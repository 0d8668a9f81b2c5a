"""Seeded inputs, tasks and oracles for the three benchmark workloads.

A workload is a list of tasks. Each task calls the public API of `mms` the
way the matching CLI subcommand does, looking every function up on its
module at call time so that the tracer's wrappers (see `tracer.py`) are
seen. Each task returns its raw outputs; its oracle re-checks them outside
the timed section and raises `OracleError` on a wrong result.

The library receives only the generated inputs: the workload seed decides
the configurations and the per-call RNG seeds, nothing else.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from mms import bounds, numerics, partition, solver, witness

# --- decide: the exact-value path behind `mms solve` and `mms search` -------

#: A(n,k) for every instance the decide workload solves (the oracle table).
#: (8,3) and (10,3) are left out: 5 s and 825 s on their own.
KNOWN_A = {
    (4, 2): 3, (5, 2): 3, (6, 2): 5, (7, 2): 6,
    (8, 2): 7, (9, 2): 8, (10, 2): 9, (11, 2): 10,
    (6, 3): 10, (7, 3): 10, (9, 3): 28,
    (6, 4): 5, (7, 4): 10, (8, 4): 35,
    (7, 5): 6,
}
#: (n,k) for `search_upper_bound`, each run with both strategies. Grid at
#: (13,4) finds the 3k+1 counterexample, 210 < C(12,3) = 220.
SEARCH_INSTANCES = ((11, 3), (13, 3), (14, 3), (13, 4))

# --- certify_small: the soundness-stress path of acceptance criterion 04 ----

#: Passes over every (k, n) with 2k+1 <= n <= 40: 102 configurations each.
#: Three rather than two cut the spread of the run's cost over seeds from
#: about 0.046 to 0.029 (quartile distance over median of its call count).
CERTIFY_SMALL_PASSES = 3
CERTIFY_SMALL_KS = (2, 3, 4)
CERTIFY_SMALL_N_MAX = 40
#: `partition_lower_bound_witnesses` runs when k | n and C(n,k) is at most this.
CERTIFY_SMALL_PARTITION_MAX = 10**4

# --- certify_large: the `mms witness` path on big inputs --------------------

LARGE_K = 3
#: Balanced uniform-integer configurations: their central_at_stage_i
#: families have about 7.5*10^4, 1.8*10^5 and 3.5*10^5 members whatever the
#: seed. Plain uniform draws sometimes land on a 5*10^3-member two-range
#: family instead, which would make the phase time depend on the seed.
EXPLICIT_SIZES = (150, 200, 250)
#: (pattern, n) for the counted phase; n is jittered by up to 1% per seed.
COUNTED_CASES = (("half_split", 52_000), ("rational", 60_000), ("star", 100_000))
COUNTED_SAMPLE = 1000

PATTERNS = ("uniform", "rational", "heavy_tail", "near_star", "half_split")


class OracleError(AssertionError):
    """A task's output failed an independent re-check."""


@dataclass
class Task:
    name: str
    phase: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Inputs:
    """The generated inputs of one workload run, plus their digest."""

    tasks: list[Task]
    digest: str


# --- seeded value generation (the five patterns of tests/genconfig.py) ------

def pattern_values(rng: random.Random, n: int, pattern: str,
                   mirrored: bool | None = None) -> list[Fraction]:
    """n rationals with non-negative total sum, drawn from one pattern.

    A draw with a negative sum is negated, as in tests/genconfig.py. Given
    `mirrored`, the pattern is redrawn until it needs (True) or does not need
    (False) that negation, which fixes the orientation of patterns whose sum
    takes either sign.
    """
    for _ in range(1000):
        values = _raw_values(rng, n, pattern)
        negated = sum(values) < 0
        if mirrored is None or mirrored == negated:
            return [-v for v in values] if negated else values
    raise ValueError(f"{pattern} at n={n} never drew mirrored={mirrored}")


def _raw_values(rng: random.Random, n: int, pattern: str) -> list[Fraction]:
    if pattern == "uniform":
        return [Fraction(rng.randint(-9, 9)) for _ in range(n)]
    if pattern == "balanced_uniform":  # each of -9..9 equally often, the rest uniform
        return [Fraction(v) for v in range(-9, 10) for _ in range(n // 19)] + [
            Fraction(rng.randint(-9, 9)) for _ in range(n % 19)]
    if pattern == "rational":
        return [Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(n)]
    if pattern == "heavy_tail":
        heavy = rng.randint(1, max(1, n // 3))
        values = [Fraction(rng.randint(1, 4)) for _ in range(n - heavy)]
        return values + [Fraction(rng.randint(-3 * n, -n // 2 - 1)) for _ in range(heavy)]
    if pattern == "near_star":
        return [Fraction(n - 1 + rng.randint(-2, 2))] + [
            -1 + Fraction(rng.randint(-2, 2), 3) for _ in range(n - 1)]
    if pattern == "half_split":
        hi = n // 2
        return [Fraction(1)] * hi + [Fraction(-1)] * (n - hi)
    if pattern == "star":
        return [Fraction(n - 1)] + [Fraction(-1)] * (n - 1)
    raise ValueError(f"unknown pattern {pattern!r}")


def config_text(values: list[Fraction]) -> str:
    """The configuration file format: one `p/q` or integer per line, in the
    order given (unlike `mms.numerics.format_config`), so parsing also sorts."""
    return "".join(
        f"{v.numerator}\n" if v.denominator == 1 else f"{v.numerator}/{v.denominator}\n"
        for v in values)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- oracles ----------------------------------------------------------------

def _scaled(values) -> list[int]:
    """Common-denominator integers; computed here, not by the library."""
    denom = math.lcm(*(Fraction(v).denominator for v in values))
    return [int(Fraction(v) * denom) for v in values]


def brute_force_count(values, k: int) -> int:
    """Number of k-subsets with non-negative sum, by full enumeration."""
    return sum(1 for c in itertools.combinations(_scaled(values), k) if sum(c) >= 0)


def check_members(values, k: int, members) -> int:
    """Every member is a k-subset of [n] with a non-negative exact sum."""
    scaled = _scaled(values)
    n = len(scaled)
    seen = 0
    for s in members:
        ix = s.indices
        if len(ix) != k or len(set(ix)) != k or min(ix) < 1 or max(ix) > n:
            raise OracleError(f"witness {ix} is not a {k}-subset of [{n}]")
        if sum(scaled[i - 1] for i in ix) < 0:
            raise OracleError(f"witness {ix} has a negative sum")
        seen += 1
    return seen


def check_exact(n: int, k: int, result) -> None:
    expected = KNOWN_A[(n, k)]
    if result.upper_bound_only:
        raise OracleError(f"A({n},{k}) left undecided")
    if result.A_value != expected:
        raise OracleError(f"A({n},{k}) = {result.A_value}, expected {expected}")
    count = brute_force_count(result.optimal_config.values, k)
    if count != expected:
        raise OracleError(f"optimal config of A({n},{k}) has {count} non-negative k-sums")
    total = sum(result.optimal_config.values)
    if total < 0:
        raise OracleError(f"optimal config of A({n},{k}) has negative sum {total}")


def check_search(n: int, k: int, out) -> None:
    count, config = out
    if config.n != n or sum(config.values) < 0:
        raise OracleError(f"search ({n},{k}) returned an invalid configuration")
    recount = brute_force_count(config.values, k)
    if recount != count:
        raise OracleError(f"search ({n},{k}) claims {count}, recount gives {recount}")
    if count > math.comb(n - 1, k - 1):
        raise OracleError(f"search ({n},{k}) count {count} above C(n-1,k-1)")


def thm1_threshold_met(n: int, k: int) -> bool:
    return n >= 3 * k ** (k + 1) + k**3


def thm2_threshold_met(n: int, k: int) -> bool:
    """n > k (4 e ln k)^k in floating point; every n used here is at least
    10% away from the threshold, so rounding cannot flip the verdict."""
    return k >= 2 and n > k * (4 * math.e * math.log(k)) ** k


def check_report(values, k: int, report, threshold_met: bool) -> None:
    """Explicit members re-summed; counted families sampled >= 1000 times;
    the guarantee reaches C(n-1,k-1) wherever the theorem threshold is met."""
    fam = report.witnesses
    if fam.count < report.guaranteed_count:
        raise OracleError(
            f"{report.branch}: {fam.count} witnesses below the guaranteed {report.guaranteed_count}")
    if fam.is_explicit:
        if check_members(values, k, fam.members) != fam.count:
            raise OracleError(f"{report.branch}: member count differs from the family count")
    elif report.sample_size < COUNTED_SAMPLE:
        raise OracleError(f"{report.branch}: counted family sampled {report.sample_size} times")
    if threshold_met and report.guaranteed_count < math.comb(len(values) - 1, k - 1):
        raise OracleError(
            f"{report.branch}: guarantee {report.guaranteed_count} below C(n-1,k-1) "
            "inside the theorem range")


def check_partition_family(values, k: int, fam) -> None:
    n = len(values)
    if fam.count != math.comb(n - 1, k - 1):
        raise OracleError(f"partition family has {fam.count} members, expected C(n-1,k-1)")
    if check_members(values, k, fam.members) != fam.count:
        raise OracleError("partition family member count differs from its count")


def check_stage_chain(reports) -> None:
    failing = [r.parameters for r in reports if not r.holds]
    if failing:
        raise OracleError(f"stage chain fails at {failing[0]}")


# --- the workloads ----------------------------------------------------------

def decide_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    tasks = []
    for (n, k) in KNOWN_A:
        tasks.append(Task(
            f"exact_A({n},{k})", "solve",
            run=lambda n=n, k=k: solver.exact_A(n, k),
            check=lambda out, n=n, k=k: check_exact(n, k, out)))
    plan = []
    for (n, k) in SEARCH_INSTANCES:
        for strategy in ("grid", "anneal"):
            s = rng.randrange(2**31) if strategy == "anneal" else 0
            plan.append((n, k, strategy, s))
            tasks.append(Task(
                f"search({n},{k},{strategy})", "search",
                run=lambda n=n, k=k, st=strategy, s=s: solver.search_upper_bound(n, k, st, s),
                check=lambda out, n=n, k=k: check_search(n, k, out)))
    return Inputs(tasks, _digest([sorted(KNOWN_A), plan]))


def certify_small_inputs(seed: int) -> Inputs:
    """Every (k, n) with 2k+1 <= n <= 40 once per pass; k cycles through
    2, 3, 4 at each n.

    Shapes, their order and their patterns are fixed: each pass spreads the
    five patterns evenly along n, and near_star alternates between its two
    orientations from pass to pass (mirrored, it yields the largest explicit
    families). The seed draws the values and the extraction seeds, so which
    tasks need a partition build or a large family, and the memory peak,
    depend little on it.
    """
    rng = random.Random(seed)
    shapes = [
        (k, n, PATTERNS[(n + p) % len(PATTERNS)], p % 2 == 1)
        for p in range(CERTIFY_SMALL_PASSES)
        for n in range(2 * min(CERTIFY_SMALL_KS) + 1, CERTIFY_SMALL_N_MAX + 1)
        for k in CERTIFY_SMALL_KS
        if n >= 2 * k + 1
    ]
    tasks, canon = [], []
    for i, (k, n, pattern, odd_pass) in enumerate(shapes):
        mirrored = odd_pass if pattern == "near_star" else None
        values = pattern_values(rng, n, pattern, mirrored)
        config = numerics.Configuration.from_values(values)
        seed1, seed2 = rng.randint(0, 10**6), rng.randint(0, 10**6)
        canon.append([k, [str(v) for v in config.values], seed1, seed2])
        tasks.append(Task(
            f"config{i}({pattern},n={n},k={k})", "config",
            run=lambda c=config, k=k, s1=seed1, s2=seed2: _certify_small_task(c, k, s1, s2),
            check=lambda out, c=config, k=k: _certify_small_check(c, k, out)))
    return Inputs(tasks, _digest(canon))


def _certify_small_task(config, k: int, seed1: int, seed2: int):
    n = config.n
    rep1 = witness.extract_thm1(config, k, seed=seed1)
    rep2 = witness.extract_thm2(config, k, seed=seed2) if n >= 4 * k else None
    fam = None
    if n % k == 0 and math.comb(n, k) <= CERTIFY_SMALL_PARTITION_MAX:
        fam = partition.partition_lower_bound_witnesses(config, k)
    return rep1, rep2, fam


def _certify_small_check(config, k: int, out) -> None:
    rep1, rep2, fam = out
    values, n = config.values, config.n
    check_report(values, k, rep1, thm1_threshold_met(n, k))
    if rep2 is not None:
        check_report(values, k, rep2, thm2_threshold_met(n, k))
    if fam is not None:
        check_partition_family(values, k, fam)


def certify_large_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    k = LARGE_K
    tasks, canon = [], []
    for n in EXPLICIT_SIZES:
        config = numerics.Configuration.from_values(pattern_values(rng, n, "balanced_uniform"))
        s = rng.randint(0, 10**6)
        canon.append([n, [str(v) for v in config.values], s])
        tasks.append(Task(
            f"explicit(balanced_uniform,n={n})", "explicit",
            run=lambda c=config, s=s: witness.extract_thm2(c, k, mode="explicit", seed=s),
            check=lambda out, c=config: check_report(c.values, k, out, thm2_threshold_met(c.n, k))))
    for pattern, n0 in COUNTED_CASES:
        n = n0 + rng.randint(-n0 // 100, n0 // 100)
        values = pattern_values(rng, n, pattern)
        rng.shuffle(values)
        text = config_text(values)
        seed1, seed2 = rng.randint(0, 10**6), rng.randint(0, 10**6)
        canon.append([pattern, hashlib.sha256(text.encode()).hexdigest(), seed1, seed2])
        tasks.append(Task(
            f"counted({pattern},n={n})", "counted",
            run=lambda t=text, s1=seed1, s2=seed2: _counted_task(t, k, s1, s2),
            check=lambda out, v=values: _counted_check(v, k, out)))
    return Inputs(tasks, _digest(canon))


def _counted_task(text: str, k: int, seed1: int, seed2: int):
    """`mms witness --mode counted` for both theorems plus `mms check --suite thm2`."""
    config = numerics.parse_config_text(text)
    n = config.n
    chain = [bounds.thm2_stage_check(n, k, p) for p in range(1, n // (2 * k) + 1)]
    chain.append(bounds.stage_count_beats_target(n, k, 1))
    rep1 = witness.extract_thm1(config, k, mode="counted", sample_size=COUNTED_SAMPLE, seed=seed1)
    rep2 = witness.extract_thm2(config, k, mode="counted", sample_size=COUNTED_SAMPLE, seed=seed2)
    return config, chain, rep1, rep2


def _counted_check(values, k: int, out) -> None:
    config, chain, rep1, rep2 = out
    n = len(values)
    parsed = config.values
    if any(a < b for a, b in zip(parsed, parsed[1:])) or Counter(
            (v.numerator, v.denominator) for v in parsed) != Counter(
            (v.numerator, v.denominator) for v in values):
        raise OracleError("parsed configuration differs from the generated values")
    check_stage_chain(chain)
    check_report(values, k, rep1, thm1_threshold_met(n, k))
    check_report(values, k, rep2, thm2_threshold_met(n, k))


MAKERS = {
    "decide": decide_inputs,
    "certify_small": certify_small_inputs,
    "certify_large": certify_large_inputs,
}


def make_inputs(workload: str, seed: int) -> Inputs:
    return MAKERS[workload](seed)
