"""Constructive factorization of [n]^(k) into parallel classes (k | n).

The resulting partition has C(n-1, k-1) classes of n/k pairwise-disjoint
k-sets each; picking one non-negative block per class certifies the lower
bound A(n,k) >= C(n-1, k-1) on any configuration with non-negative total sum.

Construction, for every k: the classic inductive argument on the ground-set
size (Baranyai 1975), realized with an integral assignment step: greedy plus
shortest augmenting paths found breadth first, on integer part-type ids. The
assignment always succeeds -- the fractional relaxation is exactly feasible
and the constraint matrix is integral -- so no backtracking or restarts are
needed. A seeded RNG only shuffles the greedy order, so output is
deterministic given (n, k, seed).
"""
from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .numerics import (
    Configuration,
    SubsetFamily,
    binomial,
    binomial_at_most,
    scaled_ksums,
)

#: Instances with C(n,k) above this are refused (desk-scale guard).
PARTITION_SIZE_LIMIT = 10**4


class PartitionSizeError(ValueError):
    """Instance exceeds the desk-scale partition limit."""


def _inductive_partition(n: int, k: int, rng: random.Random) -> list[list[tuple[int, ...]]]:
    """Grow the ground set one element at a time.

    Invariant after absorbing 1..m: every class holds n/k parts (subsets of
    [m], empty allowed) partitioning [m], and each subset A of [m] occurs
    exactly C(n-m, k-|A|) times across classes. Absorbing m+1 assigns each
    class one incomplete part type; type A must be chosen by exactly
    C(n-m-1, k-|A|-1) classes (`_assign`).

    A part type is an int id, given when the type first appears (id 0 is the
    empty part); `part_of[id]` is its sorted index tuple. Each class keeps
    the ids of its incomplete parts, the empty one repeated, and its
    completed k-sets.
    """
    part_of: list[tuple[int, ...]] = [()]
    open_parts = [[0] * (n // k) for _ in range(binomial(n - 1, k - 1))]
    blocks: list[list[tuple[int, ...]]] = [[] for _ in open_parts]
    for m in range(n):
        new = m + 1
        demand_by_size = [binomial(n - new, k - a - 1) for a in range(k)]
        rem = [demand_by_size[len(part)] for part in part_of]
        order = list(range(len(open_parts)))
        rng.shuffle(order)
        assign = _assign(open_parts, rem, order)
        grown_id: dict[int, int] = {}
        for parts, done, t in zip(open_parts, blocks, assign):
            i = parts.index(t)
            grown = part_of[t] + (new,)
            if len(grown) == k:
                done.append(grown)
                del parts[i]
            else:
                if t not in grown_id:
                    grown_id[t] = len(part_of)
                    part_of.append(grown)
                parts[i] = grown_id[t]
    return blocks


def _assign(types: list[list[int]], rem: list[int], order: list[int]) -> list[int]:
    """Give each class one of its types, type t to at most rem[t] classes.

    `types[c]` lists the type ids class c may take (repeats allowed), and
    `rem` is indexed by type id; it is spent in place. In the build the
    demands add up to the number of classes, so each one is met exactly.
    The greedy visits the classes in `order`, each taking its type with the
    most remaining demand (the first such on a tie); a class left without
    one is repaired by a shortest augmenting path (`_augment`). Integral
    feasibility is guaranteed, so repair cannot fail while the invariant
    holds.
    """
    assign = [-1] * len(types)
    pending = []
    for ci in order:
        best = max(types[ci], key=rem.__getitem__)
        if rem[best]:
            rem[best] -= 1
            assign[ci] = best
        else:
            pending.append(ci)
    if not pending:
        return assign
    # each type's holders, in greedy order
    holders: list[list[int]] = [[] for _ in rem]
    for ci in order:
        if assign[ci] >= 0:
            holders[assign[ci]].append(ci)
    for ci in pending:
        if not _augment(ci, types, rem, assign, holders):
            raise AssertionError(
                f"assignment infeasible at class {ci} -- invariant broken")
    return assign


def _augment(
    start: int,
    types: list[list[int]],
    rem: list[int],
    assign: list[int],
    holders: list[list[int]],
) -> bool:
    """Breadth-first search from the unassigned class `start` for the
    shortest alternating path to a type with spare demand.

    Each type is visited at most once, and `via[t]` is the class it was
    reached from. A class is reached only through the one type it holds, so
    each class is visited at most once and its parent on the path is
    `via[assign[c]]`. On finding a free type, walk back: each class on the
    path takes the type its child gave up.
    """
    via: dict[int, int] = {}
    queue: list[int] = []  # saturated types in the order reached; grows while read
    for ci in itertools.chain((start,), (h for t in queue for h in holders[t])):
        for t in types[ci]:
            if t in via:
                continue
            via[t] = ci
            if rem[t] == 0:
                queue.append(t)
                continue
            rem[t] -= 1
            while True:
                given_up = assign[ci]
                assign[ci] = t
                holders[t].append(ci)
                if ci == start:
                    return True
                holders[given_up].remove(ci)
                ci, t = via[given_up], given_up
    return False


@lru_cache(maxsize=64)
def baranyai_partition(n: int, k: int, seed: int = 0) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partition [n]^(k) into C(n-1,k-1) parallel classes; requires k | n.

    Each class is a sorted tuple of n/k sorted index tuples. Deterministic
    given (n, k, seed); results are cached.
    """
    if k < 1 or n < 1 or n % k != 0:
        raise ValueError(f"need k | n with k, n >= 1, got n={n}, k={k}")
    if binomial_at_most(n, k, PARTITION_SIZE_LIMIT) is None:
        raise PartitionSizeError(f"C({n},{k}) exceeds limit {PARTITION_SIZE_LIMIT}")
    return tuple(tuple(sorted(cls)) for cls in _inductive_partition(n, k, random.Random(seed)))


def validate_partition(n: int, k: int, classes) -> str | None:
    """Exhaustively re-check every structural invariant.

    Independent of how the partition was constructed; returns the first
    violated condition, or None when the partition is valid. Blocks must be
    tuples; their shape (sorted, indices >= 1) is not checked here. The work
    and the diagnostic are bounded by the size of `classes`, not by n: block
    counts and sizes are checked before the class count or the ground set is
    computed.
    """
    if k < 1 or n < 1 or n % k != 0:
        return f"invalid parameters n={n}, k={k}"
    for ci, cls in enumerate(classes):
        if len(cls) != n // k:
            return f"class {ci}: expected {n // k} blocks, found {len(cls)}"
        for b in cls:
            if len(b) != k:
                return f"class {ci}: block {b} has size {len(b)}"
    expected = binomial_at_most(n - 1, k - 1, len(classes))
    if expected != len(classes):
        relation = f"> {len(classes)}" if expected is None else f"= {expected}"
        return f"expected C({n - 1},{k - 1}) {relation} classes, found {len(classes)}"
    # every class holds n points now, so n is bounded by the input
    ground = set(range(1, n + 1))
    seen: set[tuple[int, ...]] = set()
    for ci, cls in enumerate(classes):
        covered: set[int] = set()
        for b in cls:
            if b in seen:
                return f"duplicated block {b}"
            seen.add(b)
            covered.update(b)
        if covered != ground:  # n points covering [n]: each exactly once
            return f"class {ci} does not partition [n]"
    # C(n-1,k-1) classes of n/k distinct blocks: all C(n,k) k-sets
    return None


def partition_lower_bound_witnesses(
    config: Configuration, k: int, seed: int = 0
) -> SubsetFamily:
    """One non-negative block per parallel class: C(n-1,k-1) certified witnesses.

    Within each class the maximum-sum block is chosen (ties broken by
    lexicographically smallest index sequence), and its non-negativity is
    re-checked exactly on `config.scaled`: a class partitions [n], so its
    block sums add up to the total sum >= 0, forcing the maximum to be >= 0.
    `seed` picks the partition; the extraction routes leave it at 0, so that
    every configuration of the same (n, k) shares one cached build.
    """
    n = config.n
    if n % k != 0:
        raise ValueError(f"need k | n, got n={n}, k={k}")
    if config.scaled_prefix[-1] < 0:
        raise ValueError(f"total sum must be non-negative, got {config.total_sum()}")
    classes = baranyai_partition(n, k, seed)
    q = n // k
    blocks = list(itertools.chain.from_iterable(classes))
    sums = list(scaled_ksums(config, blocks, k))
    # class c is blocks[c:c + q], sorted, and index finds the first of equal
    # sums: the lexicographically smallest block wins a tie
    tops = list(map(max, zip(*[iter(sums)] * q)))
    best = list(map(sums.index, tops, range(0, len(blocks), q)))
    if min(tops) < 0:
        bad = next(blocks[i] for i in best if sums[i] < 0)
        raise AssertionError(
            f"class maximum-sum block {bad} is negative -- "
            "impossible for a configuration with non-negative total sum")
    family = SubsetFamily.explicit(n, k, map(blocks.__getitem__, best))
    if family.count != binomial(n - 1, k - 1):
        raise AssertionError("collided witnesses across classes -- partition invalid")
    return family
