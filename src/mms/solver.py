"""Exact computation of A(n,k) at desk scale, plus heuristic upper-bound search.

A configuration's non-negative family is always an up-set (filter) in the
dominance order that contains the top subset {1..k}. A(n,k) is the smallest
size of such a filter that some configuration realises exactly. `exact_A`
starts from the grid search's count and configuration as the incumbent and
walks the filters below it depth-first, growing them one member at a time
from one stack. Each one from the averaging cut on is tested with the
relaxed system R(F) of `filter_system` (total >= 0, maximal non-members
<= -1): an infeasible R(F) refutes F, and a feasible one gives a point that
realises a filter inside F, a new incumbent (see `exact_A`). When the walk
ends, every smaller filter is refuted and the incumbent's count is A.
Strict negativity of the non-members is encoded as `sum <= -1`: the system
is positively homogeneous apart from that normalization, so any
configuration with strictly negative non-member sums can be scaled to
satisfy it, and the two formulations are equivalent.
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lp import LinRow, solve_feasibility
from .numerics import (
    Configuration,
    binomial,
    binomial_at_most,
    count_nonneg_ksums,
    count_nonneg_scaled,
    scaled_ksums,
)

#: Default cap on C(n,k) for the exact solver.
EXACT_SOLVER_CAP = 126
DEFAULT_NODE_BUDGET = 1_000_000
#: Grid answers kept, one per (n, k); a sweep asks for each twice.
GRID_CACHE_SIZE = 128


@dataclass(frozen=True)
class SolverResult:
    n: int
    k: int
    A_value: int
    minimal_elements: tuple[tuple[int, ...], ...]
    optimal_config: Configuration
    nodes_explored: int
    upper_bound_only: bool = False


# --- dominance-order helpers ---------------------------------------------

def cover_dominators(subset: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Subsets obtained by decrementing one index (the covers from above)."""
    out = []
    for j, idx in enumerate(subset):
        lower = subset[j - 1] if j > 0 else 0
        if idx - 1 > lower:
            out.append(subset[:j] + (idx - 1,) + subset[j + 1:])
    return out


def cover_dominated(subset: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Subsets obtained by incrementing one index (the covers from below)."""
    out = []
    k = len(subset)
    for j, idx in enumerate(subset):
        upper = subset[j + 1] if j + 1 < k else n + 1
        if idx + 1 < upper:
            out.append(subset[:j] + (idx + 1,) + subset[j + 1:])
    return out


def minimal_elements_of(members: frozenset[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Generating antichain: members none of whose dominated covers is a member."""
    return sorted(
        m for m in members
        if not any(c in members for c in cover_dominated(m, n))
    )


def maximal_nonmembers_of(members: frozenset[tuple[int, ...]], n: int, k: int) -> list[tuple[int, ...]]:
    """Non-members all of whose dominating covers are members.

    Constraining exactly these to be negative forces, via monotonicity, every
    other non-member negative as well. A scan over all k-sets: `exact_A`
    grows each frontier with `child_frontier`, and this is its reference.
    """
    out = []
    for combo in itertools.combinations(range(1, n + 1), k):
        if combo in members:
            continue
        if all(c in members for c in cover_dominators(combo)):
            out.append(combo)
    return out


def child_frontier(
    frontier: list[tuple[int, ...]],
    cand: tuple[int, ...],
    grown: frozenset[tuple[int, ...]],
    n: int,
) -> list[tuple[int, ...]]:
    """`maximal_nonmembers_of(grown, n, k)` for grown = members | {cand}, from
    the parent's frontier: the parent's maximal non-members other than
    `cand`, plus each set covered by `cand` whose covers from above are now
    all members (it is a non-member, as `cand` was)."""
    kept = [b for b in frontier if b != cand]
    new = [c for c in cover_dominated(cand, n)
           if all(d in grown for d in cover_dominators(c))]
    return sorted(kept + new)


def filter_system(
    max_nonmembers: list[tuple[int, ...]],
    n: int,
    k: int,
) -> list[LinRow]:
    """The relaxed filter system R(F): total >= 0 and every maximal non-member
    <= -1, over sorted values x_1 >= ... >= x_n with x_n <= 0.

    The variables are d_i = x_i - x_{i+1} (i < n) and s = -x_n, all >= 0, so
    x_i = d_i + ... + d_{n-1} - s. The total row is
    sum_j j*d_j - n*s >= 0, and a maximal non-member b gives
    k*s - sum_j |{i in b : i <= j}|*d_j >= 1. Every entry is a plain int.
    `values_of_differences` maps a point back to x.
    """
    rows = [LinRow((*range(1, n), -n), 0)]
    for b in max_nonmembers:
        covered = itertools.accumulate(j in b for j in range(1, n))
        rows.append(LinRow((*(-c for c in covered), k), 1))
    return rows


def values_of_differences(point: tuple[int, ...], den: int) -> tuple[Fraction, ...]:
    """x_n = -s and x_i = x_{i+1} + d_i, for the point (d_1, ..., d_{n-1}, s)
    given as int numerators over den > 0 (an LP answer), as Fractions."""
    *diffs, s = point
    values = [-s]
    for d in reversed(diffs):
        values.append(values[-1] + d)
    return tuple(Fraction(v, den) for v in reversed(values))


def averaging_lower_bound(n: int, k: int) -> int:
    """A(n,k) >= C(m-1,k-1) for m = n - (n mod k), as the top m values sum to >= 0."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    return binomial(n - n % k - 1, k - 1)


#: A search node: a filter, its largest member and its maximal non-members.
_Node = tuple[frozenset[tuple[int, ...]], tuple[int, ...], list[tuple[int, ...]]]


def _children(
    members: frozenset[tuple[int, ...]],
    last: tuple[int, ...],
    frontier: list[tuple[int, ...]],
    n: int,
) -> list[_Node]:
    """The children of a filter in the canonical-parent tree, in increasing
    order: one per set of its sorted frontier after its largest member
    `last`, each with its own largest member and frontier."""
    out = []
    for cand in frontier[bisect_right(frontier, last):]:
        grown = members | {cand}
        out.append((grown, cand, child_frontier(frontier, cand, grown, n)))
    return out


def exact_A(n: int, k: int, budget: int = DEFAULT_NODE_BUDGET) -> SolverResult:
    """Minimum up-closure size over realisable filters = A(n,k), exactly.

    The grid search (`search_upper_bound`) gives the incumbent: a count and
    a configuration realising it, so A <= best. If the averaging cut
    `averaging_lower_bound(n, k)` meets it, A = best and no node is visited.
    Otherwise a depth-first walk refutes every filter smaller than best
    that contains the top subset {1..k} (non-negative whenever the total
    sum is); when it ends, A = best, realised by the incumbent.

    Each filter F other than {top} is built once, from its canonical parent
    F - {m}, where m is the lexicographically largest member of F (reverse
    search, Avis-Fukuda 1996). Every set that m dominates is
    lexicographically larger than m, so none is in F, and F - {m} is a
    filter that still holds the top subset. The covers of m from above are
    smaller members of F, so m is a maximal non-member of F - {m}. And
    sorted(F) = sorted(F - {m}) + [m]. So the children of a filter are the
    sets of its sorted frontier after its largest member `last`
    (`_children`): no deduplication and no set of the filters seen. One
    stack holds the walk, children pushed in reverse, so the filters of one
    size come in the sorted order of their member lists. A filter is
    expanded only if its children are smaller than best, and a popped
    filter no smaller than best (after best fell) is skipped. Filters below the cut are
    unrealisable and are only expanded; from the cut on, each visited
    filter is LP-tested. A node is a visited filter, and a budget can stop
    the walk at any node. Each child's maximal non-members grow from its
    parent's (`child_frontier`), the root's too: {top} is the child of the
    empty family, whose one maximal non-member is top. So no frontier is a
    scan over all k-sets.

    The relaxed system R(F) (`filter_system`) drops the minimal-member
    rows, so a point of it realises some filter G subset of F that
    contains the top subset. A feasible R(F) therefore makes the point the
    incumbent and its recount (`count_nonneg_ksums`), |G| <= |F|, the new
    best; a recount above |F| is an AssertionError. The sign s = -x_n >= 0
    loses nothing: every filter but the full family has the bottom k-set
    as a non-member, so x_n < 0, and the full family is realised by zero.
    An infeasible R(F) comes with Farkas weights: scaled by the total
    row's, they put weight at most n/k on maximal non-members and cover
    every prefix {1..j} at least j times, a fractional cover in the sense
    of Alon-Huang-Sudakov; for sorted x with x_n <= 0 and total >= 0 such
    a cover has a non-negative weighted sum, so some non-member is
    non-negative, and F is not realisable.

    If the node budget runs out while a filter smaller than best is left
    unvisited, the same incumbent is returned flagged `upper_bound_only`; a
    budget of 0 visits no node, and a negative budget is a ValueError. `minimal_elements` and a cross-check
    of the count come from one scan of the answer's configuration.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if binomial_at_most(n, k, EXACT_SOLVER_CAP) is None:
        raise ValueError(f"C({n},{k}) exceeds exact solver cap {EXACT_SOLVER_CAP}")
    best, config = search_upper_bound(n, k)
    cut = averaging_lower_bound(n, k)
    top = tuple(range(1, k + 1))
    start = frozenset([top])
    stack = [(start, top, child_frontier([top], top, start, n))] if cut < best else []
    nodes = 0
    while stack and nodes < budget:
        members, last, frontier = stack.pop()
        if len(members) >= best:
            continue  # no smaller than the incumbent
        nodes += 1
        if len(members) >= cut:
            res = solve_feasibility(filter_system(frontier, n, k))
            if res.feasible:
                config = Configuration(values_of_differences(res.point, res.den))
                best = count_nonneg_ksums(config, k)
                if best > len(members):
                    raise AssertionError("LP point realises no filter inside F")
        if len(members) + 1 < best:
            stack.extend(reversed(_children(members, last, frontier, n)))
    every = list(itertools.combinations(range(1, n + 1), k))
    members = frozenset(itertools.compress(every, map((0).__le__, scaled_ksums(config, every, k))))
    if len(members) != best:
        raise AssertionError("configuration does not realize the filter exactly")
    return SolverResult(
        n=n, k=k, A_value=best,
        minimal_elements=tuple(minimal_elements_of(members, n)),
        optimal_config=config,
        nodes_explored=nodes,
        upper_bound_only=any(len(node[0]) < best for node in stack),
    )


# --- heuristic upper-bound search -----------------------------------------

def search_upper_bound(
    n: int,
    k: int,
    strategy: str = "grid",
    seed: int = 0,
) -> tuple[int, Configuration]:
    """Heuristically minimize the non-negative k-sum count; exact per candidate.

    `grid` returns the best two-value configuration, the shape of both the
    star and the 3k+1 counterexample. Unless hi > 0 > lo, a non-negative
    total makes all C(n, k) k-sums non-negative. With m copies of hi and
    n - m of lo, a k-subset holding a copies of hi is non-negative iff
    a >= k*|lo|/(hi + |lo|), and a non-negative total caps that threshold
    at k*m/n, reached at (hi, lo) = (n - m, -m). So the count for m is at
    least f(m) = sum over a >= ceil(k*m/n) of C(m, a) * C(n - m, k - a),
    with equality there, and one scan over m finds the minimum: from the
    star (m = 1), each m = 2..n-1 replaces the best only if f(m) is
    strictly lower. The grid's answer is kept per (n, k) (`_grid_scan`), so
    `verify_conjecture_range` and the `exact_A` it runs share one scan.
    `anneal` runs 4000 steps of seeded simulated annealing from the star
    pattern, with values clamped to [-max(n, 8), max(n, 8)]. A step edits
    one value in place and is undone if rejected; a count depends only on
    the sorted multiset, so each distinct multiset goes through
    `count_nonneg_scaled` once per call; anneal is not kept. Either way the
    answer is recounted by the general kernel before it is returned.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if strategy not in ("grid", "anneal"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "grid":
        return _grid_scan(n, k)
    best_count = binomial(n - 1, k - 1)
    best_values = [n - 1] + [-1] * (n - 1)
    rng = random.Random(seed)
    bound = max(n, 8)
    cur = list(best_values)
    cur_sum = sum(cur)
    cur_count = best_count
    counts: dict[tuple[int, ...], int] = {}
    temperature = 2.0
    for step in range(4000):
        temperature *= 0.999
        pos = rng.randrange(n)
        old = cur[pos]
        new = max(-bound, min(bound, old + rng.choice((-3, -2, -1, 1, 2, 3))))
        if cur_sum + new - old < 0:
            continue
        cur[pos] = new
        key = tuple(sorted(cur, reverse=True))
        c = counts.get(key)
        if c is None:
            c = counts[key] = count_nonneg_scaled(key, k)
        if c <= cur_count or rng.random() < pow(2.0, -(c - cur_count) / max(temperature, 1e-9)):
            cur_sum += new - old
            cur_count = c
            if c < best_count:
                best_count, best_values = c, list(cur)
        else:
            cur[pos] = old
    return _recounted(best_count, best_values, k)


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid_scan(n: int, k: int) -> tuple[int, Configuration]:
    """The grid strategy of `search_upper_bound`: the star, then the scan
    over m, recounted; for 1 <= k <= n."""
    best_count = binomial(n - 1, k - 1)
    best_values = [n - 1] + [-1] * (n - 1)
    for m in range(2, n):
        c = sum(binomial(m, a) * binomial(n - m, k - a) for a in range(-(-k * m // n), k + 1))
        if c < best_count:
            best_count, best_values = c, [n - m] * m + [-m] * (n - m)
    return _recounted(best_count, best_values, k)


def _recounted(count: int, values: list[int], k: int) -> tuple[int, Configuration]:
    """(count, the configuration of `values`) once the general kernel agrees."""
    config = Configuration.from_values(values)
    if count_nonneg_ksums(config, k) != count:
        raise AssertionError("candidate count disagrees with the recount")
    return count, config


# --- conjecture sweep ------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    k: int
    verdict: str  # "equality" | "counterexample" | "undecided"
    lower: int
    upper: int
    witness_config: Configuration | None

    @property
    def a_value(self) -> int | None:
        """A(n,k) where the bounds meet, else None."""
        return self.upper if self.lower == self.upper else None

    @property
    def equals_target(self) -> bool | None:
        """Whether A(n,k) = C(n-1,k-1); None while the row is undecided."""
        return None if self.verdict == "undecided" else self.verdict == "equality"


def verify_conjecture_range(
    n_lo: int,
    n_hi: int,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[SweepRow]:
    """Per-n verdict against the target C(n-1, k-1), read off bounds on A(n,k).

    `lower` is `averaging_lower_bound` and `upper` the grid search's count
    (`search_upper_bound`), neither above the target. Where `lower` is below
    it and C(n,k) <= `EXACT_SOLVER_CAP`, `exact_A` runs under `node_budget`,
    and if it finishes, lower = upper = A(n,k). `a_value` is A(n,k) on every
    row where lower == upper, whichever bound closed the gap. The verdict is
    "counterexample" if upper < target, "equality" if lower == target, and
    "undecided" otherwise. `witness_config` realises `upper` (None on
    equality rows). An empty range (no n with max(n_lo, k) <= n <= n_hi)
    is a ValueError.
    """
    ns = range(max(n_lo, k), n_hi + 1)
    if not ns:
        raise ValueError(
            f"empty range: no n with max(n_lo, k) = {max(n_lo, k)} <= n <= n_hi = {n_hi}")
    out = []
    for n in ns:
        upper, witness = search_upper_bound(n, k)  # first: it refuses k < 1
        lower = averaging_lower_bound(n, k)
        target = binomial(n - 1, k - 1)
        if lower < target and binomial_at_most(n, k, EXACT_SOLVER_CAP) is not None:
            res = exact_A(n, k, budget=node_budget)
            if not res.upper_bound_only:
                lower = upper = res.A_value
                witness = res.optimal_config
        verdict = ("counterexample" if upper < target
                   else "equality" if lower == target else "undecided")
        out.append(SweepRow(
            n=n, k=k, verdict=verdict, lower=lower, upper=upper,
            witness_config=None if verdict == "equality" else witness,
        ))
    return out
