"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact (zero tolerance) unless stated.
"""
import itertools
import json
import random
from fractions import Fraction

from mms.bounds import (
    propagate_equality,
    stage_count_beats_target,
    thm1_threshold_check,
    thm2_stage_check,
)
from mms.cli import main
from mms.constructions import mirror_config, mms_counterexample, star_config
from mms.numerics import Configuration, binomial, count_nonneg_ksums, ksum
from mms.partition import partition_lower_bound_witnesses
from mms.solver import exact_A
from mms.witness import extract_thm1, extract_thm2

from genconfig import random_configuration


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def recheck_members(config, family, exact_fraction_cap=2000):
    """Every explicit member re-summed from scratch; Fractions for small
    families, common-denominator integers (same exactness) for large ones."""
    if not family.is_explicit:
        return 0
    if family.count <= exact_fraction_cap:
        for s in family.members:
            assert ksum(config, s) >= 0, s.indices
    else:
        scaled = config.scaled
        for s in family.members:
            assert sum(scaled[i - 1] for i in s.indices) >= 0, s.indices
    return family.count


def test_criterion_01_multiple_of_k_equality():
    pairs = [(4, 2), (6, 2), (8, 2), (6, 3), (9, 3), (8, 4), (10, 5)]
    for n, k in pairs:
        target = binomial(n - 1, k - 1)
        star = star_config(n, k)
        lower = partition_lower_bound_witnesses(star.config, k).count
        upper = count_nonneg_ksums(star.config, k)
        assert lower == target == upper, (n, k, lower, upper, target)
    announce(1, True, f"A(n,k) = C(n-1,k-1) via partition+star at {len(pairs)} instances")


def test_criterion_02_exact_solver_spot_values():
    expected = {4: 3, 5: 3, 6: 5, 7: 6}
    got = {n: exact_A(n, 2).A_value for n in expected}
    announce(2, got == expected,
             f"exact_A(n,2) for n=4..7 -> {sorted(got.items())} (f(2)=6 reading)")


def test_criterion_03_counterexample_family():
    for k in (3, 4, 5):
        ce = mms_counterexample(k)
        count = count_nonneg_ksums(ce.config, k)
        assert count == binomial(3 * k - 2, k) == ce.predicted_count
        assert count < binomial(3 * k, k - 1), k
    count2 = count_nonneg_ksums(mms_counterexample(2).config, 2)
    assert count2 >= binomial(6, 1)
    announce(3, True,
             "counterexample counts C(3k-2,k) < C(3k,k-1) for k=3,4,5; >= target at k=2")


def test_criterion_04_witness_soundness_1000_configs():
    rng = random.Random(20260810)
    configs_run = 0
    witnesses_checked = 0
    per_k = 335
    for k in (2, 3, 4):
        for _ in range(per_k):
            n = rng.randint(2 * k + 1, 40)
            config = random_configuration(rng, n)
            assert config.total_sum() >= 0
            rep = extract_thm1(config, k, seed=rng.randint(0, 10**6))
            witnesses_checked += recheck_members(config, rep.witnesses)
            if n >= 4 * k:
                rep = extract_thm2(config, k, seed=rng.randint(0, 10**6))
                witnesses_checked += recheck_members(config, rep.witnesses)
            if n % k == 0 and binomial(n, k) <= 10**4:
                fam = partition_lower_bound_witnesses(config, k)
                witnesses_checked += recheck_members(config, fam)
            configs_run += 1
    announce(4, configs_run >= 1000,
             f"{configs_run} random configs, {witnesses_checked} explicit "
             "witnesses re-summed, zero violations")


def test_criterion_05_thm1_guarantee_k2():
    rng = random.Random(5)
    checked = 0
    for n in range(32, 65):
        configs = [
            star_config(n, 2).config,
            mirror_config(n, 2).config,
            random_configuration(rng, n, "half_split"),
            random_configuration(rng, n, "uniform"),
            random_configuration(rng, n, "uniform"),
            random_configuration(rng, n, "heavy_tail"),
        ]
        for config in configs:
            rep = extract_thm1(config, 2)
            assert rep.certified
            assert rep.witnesses.count >= n - 1, (n, rep.branch, rep.witnesses.count)
            checked += 1
    announce(5, True,
             f"certified count >= C(n-1,1) on {checked} configs, n in [32,64] "
             "(threshold 3k^(k+1)+k^3 = 32)")


def test_criterion_06_thm2_desk_scale_5200():
    target = binomial(5199, 2)
    star = extract_thm2(star_config(5200, 3).config, 3, mode="counted")
    assert star.guaranteed_count >= target
    assert star.sample_size >= 1000 and star.certified
    adversarial = Configuration.from_values([1] * 2600 + [-1] * 2600)
    adv = extract_thm2(adversarial, 3, mode="counted")
    assert adv.branch == "two_range_family"
    assert adv.guaranteed_count >= target
    assert adv.sample_size >= 1000 and adv.certified
    announce(6, True,
             f"guaranteed_count >= C(5199,2) = {target} on star and adversarial "
             "inputs; 10^3 sampled witnesses non-negative each")


def test_criterion_07_inequality_chains():
    for k in range(2, 9):
        assert thm1_threshold_check(3 * k ** (k + 1) + k**3, k).holds, k
    for p in range(1, 5200 // 6 + 1):
        assert thm2_stage_check(5200, 3, p).holds, p
    for n in range(19, 101):
        r = stage_count_beats_target(n, 3, 1)
        assert r.holds and r.lhs == 2 * binomial(n - 4, 2), n
    announce(7, True,
             "thm1 threshold (k=2..8), thm2 stages p=1..866 at (3,5200), "
             "p=1 binomial form for n in [19,100]")


def test_criterion_08_propagation_consistency():
    pr = propagate_equality({4, 7}, 2, 10)
    for n in sorted(pr.closure):
        assert exact_A(n, 2).A_value == binomial(n - 1, 1), n
    assert 5 not in pr.closure
    coprime = propagate_equality({7}, 2, 20)
    assert coprime.coprime_bound == 7
    announce(8, True,
             f"closure {sorted(pr.closure)} matches exact_A; coprime corollary "
             "gives f(2) <= 7")


def brute_force_min_count(n: int) -> int:
    best = None
    for values in itertools.combinations_with_replacement(range(6, -7, -1), n):
        if sum(values) < 0:
            continue
        count = sum(
            1 for pair in itertools.combinations(values, 2) if pair[0] + pair[1] >= 0)
        if best is None or count < best:
            best = count
    return best


def test_criterion_09_oracle_equivalence_small():
    for n in range(2, 7):
        brute = brute_force_min_count(n)
        solver = exact_A(n, 2).A_value
        assert brute == solver, (n, brute, solver)
    announce(9, True,
             "exact_A(n,2) equals brute-force minimum over [-6,6]^n for n <= 6")


def test_criterion_10_reproduce_determinism(tmp_path):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["reproduce", "--seed", "0", "--out", str(out_a)]) == 0
    assert main(["reproduce", "--seed", "0", "--out", str(out_b)]) == 0
    assert main(["reproduce", "--seed", "0", "--workers", "4", "--out", str(out_c)]) == 0
    bytes_a = (out_a / "report" / "paper.json").read_bytes()
    bytes_b = (out_b / "report" / "paper.json").read_bytes()
    bytes_c = (out_c / "report" / "paper.json").read_bytes()
    assert bytes_a == bytes_b == bytes_c
    report = json.loads(bytes_a)
    assert report["all_pass"] and len(report["checks"]) >= 15
    announce(10, True,
             "reproduce twice with seed 0 byte-identical; workers 1 vs 4 identical")
