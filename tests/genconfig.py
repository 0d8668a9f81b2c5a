"""Seeded random configuration generators shared across the test suite.

Patterns are mixed so that every extraction branch gets exercised: near-star
inputs keep the top central, heavy-tailed ones defeat centrality for several
stages, half-splits defeat it at every stage.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from mms.numerics import Configuration, KSubset

PATTERNS = ("uniform", "rational", "heavy_tail", "near_star", "half_split")


def random_configuration(rng: random.Random, n: int, pattern: str | None = None) -> Configuration:
    pattern = pattern or rng.choice(PATTERNS)
    if pattern == "uniform":
        values = [rng.randint(-9, 9) for _ in range(n)]
    elif pattern == "rational":
        values = [Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(n)]
    elif pattern == "heavy_tail":
        heavy = rng.randint(1, max(1, n // 3))
        values = [rng.randint(1, 4) for _ in range(n - heavy)]
        values += [rng.randint(-3 * n, -n // 2 - 1) for _ in range(heavy)]
    elif pattern == "near_star":
        values = [n - 1 + rng.randint(-2, 2)] + [
            -1 + Fraction(rng.randint(-2, 2), 3) for _ in range(n - 1)]
    elif pattern == "half_split":
        hi = n // 2
        values = [Fraction(1)] * hi + [Fraction(-1)] * (n - hi)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    total = sum(Fraction(v) for v in values)
    if total < 0:
        # reflect to the non-negative-sum half-space
        values = [-Fraction(v) for v in values]
    return Configuration.from_values(values)


def nonneg_sum_configs(seed: int, count: int, n_range, pattern: str | None = None):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*n_range)
        yield random_configuration(rng, n, pattern)


def nonneg_members(config: Configuration, k: int) -> frozenset[KSubset]:
    """Brute force: every k-subset of [n] whose exact Fraction sum is >= 0."""
    return frozenset(
        KSubset(tuple(i + 1 for i in combo))
        for combo in itertools.combinations(range(config.n), k)
        if sum((config.values[i] for i in combo), Fraction(0)) >= 0)
