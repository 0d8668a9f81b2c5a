"""One-shot reproduction suite: every headline value re-derived and checked.

Each check records the two sides it compared, as decimal strings, so the
report is self-describing and byte-identical across runs with the same seed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bounds import (
    f_bound_values,
    propagate_equality,
    stage_count_beats_target,
    thm1_threshold,
    thm1_threshold_check,
    thm2_stage_check,
)
from .constructions import (
    counterexample_beats_target,
    mirror_config,
    mms_counterexample,
    star_config,
)
from .numerics import Configuration, binomial, count_nonneg_ksums, is_central
from .partition import (
    baranyai_partition,
    partition_lower_bound_witnesses,
    validate_partition,
)
from .solver import exact_A
from .witness import eq2_bound, extract_thm1, extract_thm2


@dataclass(frozen=True)
class Check:
    id: str
    status: str   # "pass" | "fail"
    lhs: str
    rhs: str


def _check(checks: list[Check], check_id: str, lhs, rhs, ok: bool) -> None:
    checks.append(Check(check_id, "pass" if ok else "fail", str(lhs), str(rhs)))


def run_reproduction(seed: int = 0) -> list[Check]:
    checks: list[Check] = []

    count = count_nonneg_ksums(star_config(8, 3).config, 3)
    _check(checks, "star_count_8_3", count, 21, count == 21)

    count = count_nonneg_ksums(mirror_config(8, 3).config, 3)
    _check(checks, "mirror_count_8_3", count, binomial(7, 3), count == binomial(7, 3))

    agree = all(
        binomial(2 * k - 1, k) == binomial(2 * k - 1, k - 1) for k in range(2, 9))
    _check(checks, "mirror_equals_star_at_2k", "k=2..8", "C(2k-1,k)=C(2k-1,k-1)", agree)

    ce3 = mms_counterexample(3)
    count = count_nonneg_ksums(ce3.config, 3)
    _check(checks, "counterexample_count_k3", count, ce3.predicted_count,
           count == ce3.predicted_count == 35)
    _check(checks, "counterexample_below_target_k3", count, binomial(9, 2),
           count < binomial(9, 2))

    ce2 = mms_counterexample(2)
    count = count_nonneg_ksums(ce2.config, 2)
    _check(checks, "counterexample_k2_not_below", count, binomial(6, 1),
           count >= binomial(6, 1))

    agree = all(
        counterexample_beats_target(k) == ((k - 1) * (k - 2) > 0)
        for k in range(2, 51))
    _check(checks, "counterexample_simplification_agrees",
           "binomial comparison, k=2..50", "(k-1)(k-2)>0", agree)

    _check(checks, "counterexample_k3_top_not_central",
           is_central(ce3.config, 1, 3), False,
           is_central(ce3.config, 1, 3) is False)

    ok = True
    for n, k in ((4, 2), (6, 3), (9, 3)):
        ok = ok and validate_partition(n, k, baranyai_partition(n, k, seed)) is None
    _check(checks, "baranyai_partitions_valid", "(4,2),(6,3),(9,3)",
           "C(n-1,k-1) valid classes", ok)

    fam = partition_lower_bound_witnesses(star_config(8, 2).config, 2)
    ok = fam.count == 7 and all(1 in w for w in fam.members)
    _check(checks, "partition_witnesses_star_8_2", fam.count, 7, ok)

    ok = True
    for n, k in ((4, 2), (6, 2), (8, 2), (6, 3), (9, 3), (8, 4), (10, 5)):
        target = binomial(n - 1, k - 1)
        lower = partition_lower_bound_witnesses(star_config(n, k).config, k).count
        upper = count_nonneg_ksums(star_config(n, k).config, k)
        ok = ok and lower == target == upper
    _check(checks, "multiple_of_k_equality", "partition lower = star upper",
           "C(n-1,k-1) at 7 instances", ok)

    values = [exact_A(n, 2).A_value for n in (4, 5, 6, 7)]
    _check(checks, "exact_solver_small_k2", values, [3, 3, 5, 6], values == [3, 3, 5, 6])

    rep = extract_thm1(star_config(40, 2).config, 2, seed=seed)
    ok = rep.branch == "central_at_top" and rep.witnesses.count == 39 and rep.certified
    _check(checks, "thm1_star_40_2", rep.witnesses.count, 39, ok)

    ok = all(
        thm1_threshold_check(thm1_threshold(k), k).holds for k in range(2, 9))
    _check(checks, "thm1_threshold_chain_k2_8", "holds at 3k^(k+1)+k^3",
           "k=2..8", ok)

    r = stage_count_beats_target(19, 3, 1)
    _check(checks, "stage_p1_binomial_19_3", r.lhs, r.rhs, r.holds)

    holding = sum(
        1 for p in range(1, 5200 // 6 + 1) if thm2_stage_check(5200, 3, p).holds)
    _check(checks, "thm2_stage_sweep_5200_3", holding, 5200 // 6,
           holding == 5200 // 6)

    rep = extract_thm2(star_config(5200, 3).config, 3, seed=seed)
    target = binomial(5199, 2)
    ok = (rep.branch == "central_at_stage_i" and rep.guaranteed_count == target
          and rep.certified and rep.sample_size >= 1000)
    _check(checks, "thm2_star_5200_3", rep.guaranteed_count, target, ok)

    half = Configuration.from_values([1] * 2600 + [-1] * 2600)
    rep = extract_thm2(half, 3, seed=seed)
    ok = (rep.branch == "two_range_family" and rep.guaranteed_count >= target
          and rep.certified)
    _check(checks, "thm2_two_range_5200_3", rep.guaranteed_count, target, ok)

    fb = f_bound_values(3)
    _check(checks, "f_bound_old_k3", fb.old_bound, 75, fb.old_bound == 75)

    pr = propagate_equality({7}, 2, 20)
    _check(checks, "propagation_coprime_f2", pr.coprime_bound, 7, pr.coprime_bound == 7)

    pr = propagate_equality({4}, 2, 12)
    expected = {4, 6, 8, 10, 12}
    _check(checks, "propagation_closure_evens", sorted(pr.closure), sorted(expected),
           pr.closure == frozenset(expected))

    b = eq2_bound(star_config(8, 3).config, 4)
    _check(checks, "eq2_bound_star_8", b, 1, b == 1)

    return checks
