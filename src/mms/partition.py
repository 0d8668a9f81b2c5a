"""Constructive factorization of [n]^(k) into parallel classes (k | n).

The resulting partition has C(n-1, k-1) classes of n/k pairwise-disjoint
k-sets each; picking one non-negative block per class certifies the lower
bound A(n,k) >= C(n-1, k-1) on any configuration with non-negative total sum.

Construction: round-robin circle method for k = 2; for every other k the
classic inductive argument on the ground-set size, realized with an integral
assignment step (greedy plus augmenting paths). The assignment always
succeeds -- the fractional relaxation is exactly feasible and the constraint
matrix is integral -- so no backtracking or restarts are needed. A seeded RNG
only shuffles the greedy order, so output is deterministic given (n, k, seed).
"""
from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .numerics import Configuration, KSubset, SubsetFamily, binomial

#: Instances with C(n,k) above this are refused (desk-scale guard).
PARTITION_SIZE_LIMIT = 10**4


class PartitionSizeError(ValueError):
    """Instance exceeds the desk-scale partition limit."""


def _circle_pairs(n: int) -> list[list[tuple[int, int]]]:
    """Round-robin 1-factorization of K_n for even n: n-1 rounds of n/2 pairs."""
    rounds = []
    m = n - 1
    for r in range(m):
        pairs = [(min(n, r + 1), max(n, r + 1))]
        for i in range(1, n // 2):
            a = (r + i) % m + 1
            b = (r - i) % m + 1
            pairs.append((min(a, b), max(a, b)))
        rounds.append(pairs)
    return rounds


def _inductive_partition(n: int, k: int, rng: random.Random) -> list[list[tuple[int, ...]]]:
    """Grow the ground set one element at a time.

    Invariant after absorbing 1..m: every class holds n/k parts (subsets of
    [m], empty allowed) partitioning [m], and each subset A of [m] occurs
    exactly C(n-m, k-|A|) times across classes. Absorbing m+1 assigns each
    class one incomplete part type; type A must be chosen by exactly
    C(n-m-1, k-|A|-1) classes. Greedy assignment is repaired by augmenting
    paths; integral feasibility is guaranteed, so repair cannot fail.
    """
    num_classes = binomial(n - 1, k - 1)
    classes: list[list[tuple[int, ...]]] = [
        [() for _ in range(n // k)] for _ in range(num_classes)
    ]
    for m in range(n):
        new = m + 1
        demand: dict[tuple[int, ...], int] = {}
        for a in range(k):
            d = binomial(n - new, k - a - 1)
            if d <= 0:
                continue
            for sub in itertools.combinations(range(1, new), a):
                demand[sub] = d
        types_per_class = [
            sorted(set(t for t in parts if len(t) < k)) for parts in classes
        ]
        rem = dict(demand)
        assign: list[tuple[int, ...] | None] = [None] * num_classes
        taken_by: dict[tuple[int, ...], list[int]] = {}
        order = list(range(num_classes))
        rng.shuffle(order)
        pending = []
        for ci in order:
            best = None
            best_rem = 0
            for t in types_per_class[ci]:
                r = rem.get(t, 0)
                if r > best_rem:
                    best, best_rem = t, r
            if best is None:
                pending.append(ci)
            else:
                assign[ci] = best
                rem[best] -= 1
                taken_by.setdefault(best, []).append(ci)

        for ci in pending:
            if not _augment(ci, types_per_class, rem, assign, taken_by):
                raise AssertionError(
                    f"assignment infeasible at ground size {new} -- invariant broken")
        for ci in range(num_classes):
            t = assign[ci]
            parts = classes[ci]
            parts[parts.index(t)] = tuple(sorted(t + (new,)))
    return classes


def _augment(
    start: int,
    types_per_class: list[list[tuple[int, ...]]],
    rem: dict[tuple[int, ...], int],
    assign: list[tuple[int, ...] | None],
    taken_by: dict[tuple[int, ...], list[int]],
) -> bool:
    """Kuhn-style alternating search from class `start`, on an explicit stack.

    Each frame is [class, iterator over its types, type being tried,
    iterator over that type's holders]. Every type is visited at most once.
    A class that finds a type with spare demand takes it; each class below
    it on the stack then takes the type its child held.
    """
    seen: set[tuple[int, ...]] = set()
    stack = [[start, iter(types_per_class[start]), None, iter(())]]
    while stack:
        frame = stack[-1]
        holder = next(frame[3], None)
        if holder is not None:
            stack.append([holder, iter(types_per_class[holder]), None, iter(())])
            continue
        t = next((t for t in frame[1] if t not in seen), None)
        if t is None:
            stack.pop()
            continue
        seen.add(t)
        if rem.get(t, 0) == 0:
            frame[2] = t
            frame[3] = iter(taken_by.get(t, ()))
            continue
        rem[t] -= 1
        child = frame[0]
        assign[child] = t
        taken_by.setdefault(t, []).append(child)
        stack.pop()
        while stack:
            ci, _, held, _ = stack.pop()
            taken_by[held].remove(child)
            assign[ci] = held
            taken_by[held].append(ci)
            child = ci
        return True
    return False


@lru_cache(maxsize=64)
def baranyai_partition(n: int, k: int, seed: int = 0) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partition [n]^(k) into C(n-1,k-1) parallel classes; requires k | n.

    Each class is a sorted tuple of n/k sorted index tuples. Deterministic
    given (n, k, seed); results are cached.
    """
    if k < 1 or n < 1 or n % k != 0:
        raise ValueError(f"need k | n with k, n >= 1, got n={n}, k={k}")
    if binomial(n, k) > PARTITION_SIZE_LIMIT:
        raise PartitionSizeError(
            f"C({n},{k}) = {binomial(n, k)} exceeds limit {PARTITION_SIZE_LIMIT}")
    raw = _circle_pairs(n) if k == 2 else _inductive_partition(n, k, random.Random(seed))
    return tuple(tuple(sorted(cls)) for cls in raw)


def validate_partition(n: int, k: int, classes) -> str | None:
    """Exhaustively re-check every structural invariant.

    Independent of how the partition was constructed; returns the first
    violated condition, or None when the partition is valid. Blocks must be
    tuples; their shape (sorted, indices >= 1) is not checked here.
    """
    if k < 1 or n < 1 or n % k != 0:
        return f"invalid parameters n={n}, k={k}"
    expected_classes = binomial(n - 1, k - 1)
    if len(classes) != expected_classes:
        return f"expected {expected_classes} classes, found {len(classes)}"
    seen: set[tuple[int, ...]] = set()
    ground = set(range(1, n + 1))
    for ci, cls in enumerate(classes):
        if len(cls) != n // k:
            return f"class {ci}: expected {n // k} blocks, found {len(cls)}"
        covered: list[int] = []
        for b in cls:
            if len(b) != k:
                return f"class {ci}: block {b} has size {len(b)}"
            if b in seen:
                return f"duplicated block {b}"
            seen.add(b)
            covered.extend(b)
        if set(covered) != ground or len(covered) != n:
            return f"class {ci} does not partition [n]"
    if len(seen) != binomial(n, k):
        return f"union covers {len(seen)} of {binomial(n, k)} k-sets"
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
    at = (0, *config.scaled).__getitem__

    def block_sum(block: tuple[int, ...]) -> int:
        return sum(map(at, block))

    # each class is sorted, and max keeps the first of equal keys: the
    # lexicographically smallest block wins a tie
    chosen = [max(cls, key=block_sum) for cls in baranyai_partition(n, k, seed)]
    for block in chosen:
        if block_sum(block) < 0:
            raise AssertionError(
                f"class maximum-sum block {block} is negative -- "
                "impossible for a configuration with non-negative total sum")
    family = SubsetFamily.explicit(n, k, map(KSubset, chosen))
    if family.count != binomial(n - 1, k - 1):
        raise AssertionError("collided witnesses across classes -- partition invalid")
    return family
