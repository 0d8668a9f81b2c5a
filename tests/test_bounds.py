import dataclasses
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mms.bounds import (
    BoundReport,
    f_bound_values,
    new_f_bound_interval,
    propagate_equality,
    stage_count_beats_target,
    thm1_threshold_check,
    thm2_stage_check,
    thm2_threshold_exceeded,
    unimodal_gap_lb,
)
from mms.intervals import RatInterval, decide_less, e_interval, ln_interval
from mms.numerics import binomial
from mms.solver import exact_A, verify_conjecture_range


# --- interval plumbing -------------------------------------------------------

def test_e_interval_brackets_float():
    iv = e_interval(20)
    assert iv.lo < Fraction(math.e) + Fraction(1, 10**10)
    assert iv.hi > Fraction(math.e) - Fraction(1, 10**10)
    assert iv.hi - iv.lo < Fraction(1, 10**15)


@pytest.mark.parametrize("x", [2, 3, 10, Fraction(5, 3), Fraction(1, 7), 100])
def test_ln_interval_brackets_float(x):
    iv = ln_interval(x, 24)
    approx = Fraction(math.log(x))
    assert iv.lo - Fraction(1, 10**9) <= approx <= iv.hi + Fraction(1, 10**9)
    assert iv.hi - iv.lo < Fraction(1, 10**12)


def test_ln_interval_edge_cases():
    assert ln_interval(1, 8) == RatInterval.point(0)
    iv = ln_interval(8, 16)  # exact power of two: pure ln2 multiples
    three_ln2 = ln_interval(2, 16).scale(3)
    assert iv.lo == three_ln2.lo and iv.hi == three_ln2.hi
    with pytest.raises(ValueError):
        ln_interval(0, 8)


def test_interval_arithmetic_sanity():
    a = RatInterval(Fraction(1), Fraction(2))
    b = RatInterval(Fraction(-3), Fraction(4))
    assert (a * b).lo == -6 and (a * b).hi == 8
    assert (a + b).lo == -2 and (a + b).hi == 6
    assert a.power(3).hi == 8
    assert a.strictly_less_than(RatInterval.point(3)) is True
    assert a.strictly_less_than(RatInterval.point(Fraction(3, 2))) is None


def test_decide_less_compares_an_enclosure_with_a_plain_rational():
    ln3 = functools.partial(ln_interval, 3)  # ln 3 = 1.0986...
    assert decide_less(ln3, Fraction(11, 10)) is True
    assert decide_less(ln3, Fraction(109, 100)) is False
    assert decide_less(ln3, 2) is True and decide_less(ln3, 1) is False
    # ln 3 is about 1.0986122887 - 3.2e-11: precision doubles until the
    # enclosure clears the rational
    seen = []

    def recorded(terms):
        seen.append(terms)
        return ln3(terms)

    assert decide_less(recorded, Fraction(10986122887, 10**10), start_terms=2) is True
    assert seen[:2] == [2, 4] and len(seen) > 2


# --- unimodal gap bound ------------------------------------------------------

def expanded_binomial_lhs(p: Fraction, q: Fraction, m: int) -> Fraction:
    """Independent route: full binomial expansion of (p-q)^m."""
    return sum(
        (-1) ** i * binomial(m, i) * p ** (m - i) * q**i for i in range(m + 1))


def test_unimodal_examples():
    r = unimodal_gap_lb(Fraction(10), Fraction(1), 2)
    assert r.lhs == 81 and r.rhs == 80 and r.holds
    r = unimodal_gap_lb(Fraction(7), Fraction(1, 10**6), 3)
    assert r.holds and r.parameters["precondition_met"]
    assert 0 < r.margin < Fraction(1, 10**5)
    r = unimodal_gap_lb(Fraction(270), Fraction(9), 2)
    assert r.lhs == 68121 and r.rhs == 68040 and r.holds


def test_unimodal_two_evaluation_paths_agree():
    rng = random.Random(1)
    for _ in range(200):
        p = Fraction(rng.randint(1, 60), rng.randint(1, 9))
        q = Fraction(rng.randint(1, 60), rng.randint(1, 9))
        m = rng.randint(1, 7)
        r = unimodal_gap_lb(p, q, m)
        assert r.lhs == expanded_binomial_lhs(p, q, m)
        assert r.margin == r.lhs - r.rhs


def test_unimodal_holds_on_10k_precondition_samples():
    rng = random.Random(2)
    hits = 0
    while hits < 10_000:
        m = rng.randint(1, 9)
        p = Fraction(rng.randint(1, 500), rng.randint(1, 20))
        q = Fraction(rng.randint(1, 500), rng.randint(1, 20))
        if p <= m * q:
            continue
        assert unimodal_gap_lb(p, q, m).holds
        hits += 1


@settings(max_examples=300)
@given(
    pn=st.integers(1, 1000), pd=st.integers(1, 50),
    qn=st.integers(1, 1000), qd=st.integers(1, 50),
    m=st.integers(1, 8),
)
def test_unimodal_property(pn, pd, qn, qd, m):
    p, q = Fraction(pn, pd), Fraction(qn, qd)
    r = unimodal_gap_lb(p, q, m)
    if r.parameters["precondition_met"]:
        assert r.holds


# --- threshold checks ---------------------------------------------------------

def test_thm1_threshold_examples():
    r = thm1_threshold_check(270, 3)
    assert r.holds and r.parameters["chained_holds"]
    r = thm1_threshold_check(32, 2)
    assert r.lhs == 40 and r.rhs == 32 and r.holds
    r = thm1_threshold_check(100, 3)
    assert r.parameters["chained_holds"] is False  # below the threshold
    assert r.parameters["chained_equivalence_ok"]


def test_thm1_threshold_sweep_k2_to_8():
    for k in range(2, 9):
        t = 3 * k ** (k + 1) + k**3
        r = thm1_threshold_check(t, k)
        assert r.holds and r.parameters["chained_holds"]
        assert r.parameters["chained_equivalence_ok"]
        below = thm1_threshold_check(t - 1, k)
        assert below.parameters["chained_holds"] is False
        assert below.parameters["chained_equivalence_ok"]


def test_thm1_two_evaluation_paths_agree():
    # clear denominators: k^(k-1) * lhs must equal the integer-only form
    for k in range(2, 7):
        for n in (3 * k**2, 3 * k ** (k + 1) + k**3, 5000):
            r = thm1_threshold_check(n, k)
            lhs_int = (
                Fraction(k) ** (k - 1) * Fraction(n - 3 * k) ** (k - 1)
                + Fraction(n - k * k) ** (k - 1)
            )
            assert r.lhs * Fraction(k) ** (k - 1) == lhs_int


def test_thm2_stage_examples():
    r = thm2_stage_check(5200, 3, 1)
    assert r.holds and r.lhs == 2 * 5194**2 and r.rhs == 5200**2
    r = thm2_stage_check(5200, 3, 866)
    assert r.holds
    assert r.parameters["regime"] == "p_above_n_over_k2"
    assert r.parameters["sufficient_chain_holds"]  # n > 2^(k-1) k^2 = 36
    with pytest.raises(ValueError):
        thm2_stage_check(5200, 3, 867)


def test_thm2_stage_full_sweep_k3_and_k4():
    n = 5200
    for p in range(1, n // 6 + 1):
        assert thm2_stage_check(n, 3, p).holds
    # k = 4 at the ceiling of the theorem threshold
    iv = new_f_bound_interval(4, 64)
    n4 = int(iv.hi) + 1
    assert not thm2_threshold_exceeded(n4 - 1, 4) or thm2_threshold_exceeded(n4, 4)
    for p in range(1, n4 // 8 + 1):
        assert thm2_stage_check(n4, 4, p).holds


def test_thm2_stage_two_evaluation_paths_agree():
    # factored (p+1)(n-k(p+1))^(k-1) vs term-by-term binomial expansion
    for k in (2, 3, 4, 5):
        for n in (8 * k, 100 * k, 5200):
            for p in (1, n // (4 * k), n // (2 * k)):
                if p < 1:
                    continue
                r = thm2_stage_check(n, k, p)
                expanded = (p + 1) * sum(
                    binomial(k - 1, i) * n ** (k - 1 - i) * (-k * (p + 1)) ** i
                    for i in range(k)
                )
                assert r.lhs == expanded and r.margin == r.lhs - r.rhs


def stage_check_oracle(n: int, k: int, p: int):
    """The Fraction formulas `thm2_stage_check` replaced by int comparisons:
    (lhs, rhs, parameters)."""
    lhs = (p + 1) * Fraction(n - k * (p + 1)) ** (k - 1)
    rhs = Fraction(n) ** (k - 1)
    params = {"n": n, "k": k, "p": p}
    if Fraction(p) < Fraction(n, k * k):
        params["regime"] = "p_below_n_over_k2"
        params["first_term_condition"] = (
            rhs > (k - 1) * k * (p + 1) * Fraction(n) ** (k - 2))
        params["sufficient_chain_holds"] = (
            Fraction(n, k * (k - 1)) > p + 2 + Fraction(1, p))
    else:
        params["regime"] = "p_above_n_over_k2"
        floor_bound = Fraction(n) ** k / (2 ** (k - 1) * k**2)
        params["floor_bound"] = floor_bound
        params["sufficient_chain_holds"] = floor_bound > rhs
        params["sufficient_threshold_ok"] = (
            (floor_bound > rhs) == (n > 2 ** (k - 1) * k**2))
    return lhs, rhs, params


def test_thm2_stage_matches_the_fraction_oracle():
    """Both regimes, the boundary p k^2 = n, p = n // 2k, and n around the
    large-regime threshold 2^(k-1) k^2, for k = 2..6."""
    seen = set()
    for k in range(2, 7):
        threshold = 2 ** (k - 1) * k**2
        sizes = {2 * k, 4 * k, 4 * k + 1, 3 * k * k, 3 * k * k + 1, threshold - 1,
                 threshold, threshold + 1, 97 * k, 1000}
        for n in sorted(sizes):
            top = n // (2 * k)
            ps = set(range(1, min(top, 12) + 1)) | {top - 1, top}
            ps |= {n // (k * k) + d for d in (-1, 0, 1)}
            for p in sorted(q for q in ps if 1 <= q <= top):
                r = thm2_stage_check(n, k, p)
                lhs, rhs, params = stage_check_oracle(n, k, p)
                assert (r.lhs, r.rhs, r.holds, r.strict) == (lhs, rhs, lhs > rhs, True)
                assert r.margin == lhs - rhs
                assert r.parameters == params, (n, k, p)
                seen.add((params["regime"], p * k * k == n, p == top))
    assert {("p_below_n_over_k2", False, False), ("p_above_n_over_k2", True, False),
            ("p_above_n_over_k2", False, True)} <= seen
    assert ("p_below_n_over_k2", False, True) in seen  # small n: p = n // 2k below n/k^2


def stage_report_oracle(n: int, k: int, p: int) -> BoundReport:
    """`thm2_stage_check` as it was before its (n, k) terms were cached:
    every term rebuilt on each call, parameters added key by key."""
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if not 1 <= p <= n // (2 * k):
        raise ValueError(f"p={p} outside [1, {n // (2 * k)}]")
    lhs = (p + 1) * (n - k * (p + 1)) ** (k - 1)
    rhs = n ** (k - 1)
    params: dict = {"n": n, "k": k, "p": p}
    if p * k * k < n:
        params["regime"] = "p_below_n_over_k2"
        params["first_term_condition"] = rhs > (k - 1) * k * (p + 1) * n ** (k - 2)
        params["sufficient_chain_holds"] = n * p > k * (k - 1) * (p + 1) ** 2
    else:
        params["regime"] = "p_above_n_over_k2"
        divisor = 2 ** (k - 1) * k**2
        chain_holds = n**k > rhs * divisor
        params["floor_bound"] = Fraction(n**k, divisor)
        params["sufficient_chain_holds"] = chain_holds
        params["sufficient_threshold_ok"] = chain_holds == (n > divisor)
    return BoundReport(
        name="thm2_stage_check",
        parameters=params,
        holds=lhs > rhs,
        lhs=lhs,
        rhs=rhs,
        strict=True,
    )


def test_thm2_stage_matches_the_uncached_report():
    """Equal reports, key order and value types included, at every p, for
    k = 2..6 and n on both sides of the large-regime threshold 2^(k-1) k^2,
    with p k^2 = n met exactly."""
    boundary_hits = 0
    for k in range(2, 7):
        threshold = 2 ** (k - 1) * k**2
        for n in (2 * k, 5 * k - 1, 2 * k * k, 3 * k * k, threshold - 1, threshold,
                  threshold + 1, 2 * threshold + 3):
            for p in range(1, n // (2 * k) + 1):
                got, want = thm2_stage_check(n, k, p), stage_report_oracle(n, k, p)
                assert got == want, (n, k, p)
                assert list(got.parameters.items()) == list(want.parameters.items())
                assert [type(v) for v in got.parameters.values()] == [
                    type(v) for v in want.parameters.values()]
                assert (type(got.lhs), type(got.rhs)) == (int, int)
                boundary_hits += p * k * k == n
    assert boundary_hits >= 10


def test_bound_reports_are_slotted_and_replaceable():
    r = thm2_stage_check(5200, 3, 7)
    assert not hasattr(r, "__dict__")
    changed = dataclasses.replace(r, holds=False)
    assert not changed.holds and changed.parameters == r.parameters
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.holds = False


def test_stage_p1_binomial_form():
    for n in range(19, 101):
        assert stage_count_beats_target(n, 3, 1).holds
    r = stage_count_beats_target(19, 3, 1)
    assert r.lhs == 210 and r.rhs == 153


# --- f(k) bounds ---------------------------------------------------------------

def test_f_bound_values_k3():
    fb = f_bound_values(3)
    assert fb.old_bound == 75
    assert 5000 < fb.new_bound_float < 5300
    assert not fb.new_smaller_than_old
    assert abs(fb.new_bound_float / float(fb.new_bound) - 1) < 1e-9


def test_f_bound_values_k10():
    fb = f_bound_values(10)
    assert fb.old_bound == 9 * (10**10 + 100) + 10 == 90000000910
    assert not fb.new_smaller_than_old


def test_f_bound_crossover_at_41():
    assert not f_bound_values(40).new_smaller_than_old
    assert f_bound_values(41).new_smaller_than_old
    assert f_bound_values(50).new_smaller_than_old


def test_f_bound_values_builds_the_32_term_enclosure_once(monkeypatch):
    terms = []

    def recording(k, n_terms):
        terms.append(n_terms)
        return new_f_bound_interval(k, n_terms)

    monkeypatch.setattr("mms.bounds.new_f_bound_interval", recording)
    new_f_bound_interval.cache_clear()
    assert f_bound_values(41).new_smaller_than_old
    # read for new_bound and for the first round of the verdict, built once
    assert terms == [32, 32]
    assert new_f_bound_interval.cache_info()[:2] == (1, 1)


def test_f_bound_values_refines_from_64_terms_when_32_are_undecided(monkeypatch):
    terms = []

    def wide_at_32(k, n_terms):
        terms.append(n_terms)
        if n_terms == 32:
            return RatInterval(Fraction(0), Fraction(10**100))
        return new_f_bound_interval(k, n_terms)

    monkeypatch.setattr("mms.bounds.new_f_bound_interval", wide_at_32)
    assert f_bound_values(41).new_smaller_than_old
    assert not f_bound_values(40).new_smaller_than_old
    assert terms == [32, 32, 64, 32, 32, 64]


def test_f_bound_rejects_small_k():
    with pytest.raises(ValueError):
        f_bound_values(2)


def test_thm2_threshold_exceeded_matches_float():
    for k in (3, 4, 5):
        approx = k * (4 * math.e * math.log(k)) ** k
        assert thm2_threshold_exceeded(int(approx * 1.01) + 2, k)
        assert not thm2_threshold_exceeded(int(approx * 0.99), k)


def test_enclosures_are_kept_per_k_and_terms_and_verdicts_are_not(monkeypatch):
    """Repeated threshold and two-range decisions derive each series once;
    `decide_less` still runs on every call."""
    import mms.bounds as bounds_mod
    import mms.witness as witness_mod
    from mms.witness import two_range_parameters

    decided = []

    def counting(owner):
        honest = owner.decide_less
        return lambda *args, **kwargs: decided.append(owner) or honest(*args, **kwargs)

    for owner in (bounds_mod, witness_mod):
        monkeypatch.setattr(owner, "decide_less", counting(owner))
    for cached in (new_f_bound_interval, e_interval, ln_interval):
        cached.cache_clear()
    verdicts = {(thm2_threshold_exceeded(5200, 4), two_range_parameters(5200, 4))
                for _ in range(4)}
    assert verdicts == {(False, (3, 1875))}
    assert decided.count(bounds_mod) == 4 and decided.count(witness_mod) >= 8
    # one (k, terms) pair: built once, then read three times
    assert new_f_bound_interval.cache_info()[:2] == (3, 1)
    assert e_interval.cache_info().misses == 1
    assert ln_interval.cache_info().misses == 1 and ln_interval.cache_info().hits > 8
    assert new_f_bound_interval(4, 16) == new_f_bound_interval.__wrapped__(4, 16)


# --- propagation -----------------------------------------------------------------

def test_propagation_examples():
    pr = propagate_equality({7}, 2, 20)
    assert pr.closure == frozenset({7, 9, 11, 13, 14, 15, 16, 17, 18, 19, 20})
    assert pr.coprime_witness == 7 and pr.coprime_bound == 7
    pr = propagate_equality({4}, 2, 12)
    assert pr.closure == frozenset({4, 6, 8, 10, 12})
    assert pr.coprime_bound is None


@pytest.mark.parametrize("verified", [{0}, {-3}, {4, 0}, {7, -1}])
def test_propagation_refuses_values_that_are_not_positive(verified):
    # Every multiple of a value <= 0 stays <= n_max: the closure never ends.
    with pytest.raises(ValueError, match=f"got {min(verified)}$"):
        propagate_equality(verified, 2, 10)


def test_propagation_cross_checked_with_exact_solver():
    pr = propagate_equality({4, 7}, 2, 10)
    for n in sorted(pr.closure):
        assert exact_A(n, 2).A_value == binomial(n - 1, 1), n


def test_few_negatives_beats_target_above_3k2():
    # the sharper claim (no derivation given, checked numerically, not relied
    # on): C(n-2k, k) > C(n-1, k-1) already for n > 3k^2
    for k in range(2, 7):
        for n in range(3 * k**2 + 1, 3 * k**2 + 60):
            assert binomial(n - 2 * k, k) > binomial(n - 1, k - 1), (n, k)


def test_stage_count_rejects_out_of_range_parameters():
    for n, k, p in ((3, 5, 1), (30, 3, -1), (30, 3, 0), (30, 0, 1)):
        with pytest.raises(ValueError, match=f"n={n}, k={k}, p={p}"):
            stage_count_beats_target(n, k, p)
    assert not stage_count_beats_target(5, 3, 1).holds  # n = kp + 2: lhs 0


def test_threshold_readings():
    # the classical f(2) = 6: n = 5 is the last n below equality with C(n-1, 1)
    rows = verify_conjecture_range(4, 10, 2)
    assert {r.n: r.equals_target for r in rows} == {n: n != 5 for n in range(4, 11)}
    for r in rows:
        assert r.equals_target == (exact_A(r.n, 2).A_value == binomial(r.n - 1, 1))
