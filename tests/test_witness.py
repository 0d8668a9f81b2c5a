import collections
import gc
import itertools
import random
from fractions import Fraction

import pytest

import mms.witness as witness_mod
from mms.bounds import thm1_threshold, thm2_threshold_exceeded
from mms.constructions import mms_counterexample, star_config
from mms.numerics import Configuration, KSubset, SubsetFamily, binomial, count_nonneg_ksums, ksum
from mms.partition import partition_lower_bound_witnesses
from mms.witness import (
    _certify,
    RangeFamily,
    StageTrace,
    WitnessSoundnessError,
    eq2_bound,
    extract_thm1,
    extract_thm2,
    two_range_parameters,
)

from genconfig import PATTERNS, nonneg_members, random_configuration


def recheck_family(config, family):
    """Independent soundness check: exact Fraction re-summation of every
    explicit member (the library certifies through scaled integers)."""
    if not family.is_explicit:
        return
    for s in family.members:
        assert ksum(config, s) >= 0, s.indices


# --- eq2_bound ---------------------------------------------------------------

def test_eq2_examples():
    assert eq2_bound(star_config(8, 3).config, 4) == 1
    ones = Configuration.from_values([1] * 9)
    for j in range(1, 9):
        assert eq2_bound(ones, j) == Fraction(-(9 - j), j)
    assert eq2_bound(Configuration.from_values([3, 3, 3, -4, -4]), 2) == Fraction(-9, 2)


def test_eq2_rejections():
    with pytest.raises(ValueError):
        eq2_bound(Configuration.from_values([1, -5]), 1)
    with pytest.raises(ValueError):
        eq2_bound(Configuration.from_values([1, 1]), 2)
    with pytest.raises(ValueError):
        eq2_bound(Configuration.from_values(["1/2", "-2/3"]), 1)  # total -1/6


def test_eq2_bound_holds_randomly():
    rng = random.Random(31)
    for _ in range(200):
        config = random_configuration(rng, rng.randint(2, 20))
        j = rng.randint(1, config.n - 1)
        assert config.value(1) >= eq2_bound(config, j)


# --- range families ---------------------------------------------------------

def random_parts(rng, n):
    parts, lo = [], 1
    while lo <= n and len(parts) < 3:
        hi = rng.randint(lo, min(n, lo + 5))
        parts.append((lo, hi, rng.randint(1, hi - lo + 1)))
        lo = hi + 1 + rng.randint(0, 2)
    return tuple(parts)


def draw_oracle(fam, rng):
    """One uniform member of `fam`, drawn the way `RangeFamily.sample` draws
    each of its members: part by part, r distinct indices by rejection (or
    the complement's, when r is more than half the part)."""
    member = []
    for lo, hi, r in fam.parts:
        m = min(r, hi - lo + 1 - r)
        picks = set()
        while len(picks) < m:
            picks.add(rng.randrange(lo, hi + 1))
        member += sorted(picks) if m == r else (
            i for i in range(lo, hi + 1) if i not in picks)
    return tuple(member)


def test_range_family_matches_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 14)
        config = random_configuration(rng, n)
        fam = RangeFamily(random_parts(rng, n))
        k = sum(r for _, _, r in fam.parts)
        brute = [
            c for c in itertools.combinations(range(1, n + 1), k)
            if all(sum(lo <= i <= hi for i in c) == r for lo, hi, r in fam.parts)]
        members = list(fam.members())
        assert members == brute  # same members, each sorted, in lexicographic order
        assert len(members) == fam.count
        assert set(fam.sample(rng, 5)) <= set(brute)
        sums = [sum(config.scaled[i - 1] for i in c) for c in brute]
        assert fam.worst_sum(config) == min(sums)


@pytest.mark.parametrize("parts", [
    ((3, 3, 1),),                          # a single index
    ((1, 7, 7),),                          # a whole part
    ((1, 9, 7),),                          # drawn by complement
    ((1, 50, 3),),                         # drawn directly
    ((1, 1, 1), (2, 5, 4), (6, 20, 1), (21, 40, 15), (41, 60, 2)),
], ids=["single_index", "whole", "complement", "direct", "multi_part"])
def test_sample_matches_one_draw_per_member(parts):
    """`sample` returns, for the same seed, the members that drawing them one
    at a time returns, and leaves the generator in the same state."""
    fam = RangeFamily(parts)
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert fam.sample(rng, 50) == [draw_oracle(fam, oracle_rng) for _ in range(50)]
        assert rng.getstate() == oracle_rng.getstate()
    assert fam.sample(random.Random(0), 0) == []


def test_draws_from_whole_and_single_index_parts_are_members():
    """Parts with lo = hi, with r = hi - lo + 1 (the complement drawn is
    empty) and with r = 1, beside parts drawn directly and by complement."""
    families = [
        RangeFamily(((1, 1, 1), (2, 5, 4), (6, 20, 1), (21, 21, 1))),
        RangeFamily(((1, 3, 3), (4, 4, 1), (5, 9, 1), (10, 17, 5), (18, 30, 2))),
        RangeFamily(((3, 3, 1),)),
        RangeFamily(((1, 7, 7),)),
    ]
    rng = random.Random(5)
    for fam in families:
        members = set(fam.members())
        assert set(fam.sample(rng, 500)) <= members, fam.parts


@pytest.mark.parametrize("parts", [
    ((1, 6, 2),),                         # drawn directly, with repeats rejected
    ((1, 6, 4),),                         # the complement of 2 drawn instead
    ((1, 1, 1), (2, 4, 2), (5, 9, 4)),    # 1 * 3 * 5 members
], ids=["direct", "complement", "three_parts"])
def test_draws_are_spread_evenly_over_the_members(parts):
    """3,000 seeded draws from a 15-member family: each member is drawn
    200 times on average (standard deviation about 14)."""
    fam = RangeFamily(parts)
    assert fam.count == 15
    rng = random.Random(2024)
    hits = collections.Counter(fam.sample(rng, 3000))
    assert set(hits) == set(fam.members())
    assert all(150 <= h <= 250 for h in hits.values()), sorted(hits.values())


@pytest.mark.parametrize("parts", [
    (), ((0, 2, 1),), ((1, 3, 0),), ((3, 2, 1),), ((1, 3, 1), (3, 5, 1)),
    ((4, 6, 1), (1, 2, 1)), ((1, 3, -1),),
], ids=["no_parts", "lo_0", "r_0", "lo_above_hi", "overlapping", "decreasing", "r_negative"])
def test_range_family_rejects_malformed_parts(parts):
    with pytest.raises(ValueError):
        RangeFamily(parts)


def test_range_family_of_leaves_out_empty_picks():
    assert RangeFamily.of((1, 1, 1), (2, 9, 0)).parts == ((1, 1, 1),)
    assert RangeFamily.of((1, 2, 1), (3, 9, 2)).parts == ((1, 2, 1), (3, 9, 2))


def _one_negative(original, bad):
    """A stand-in for `RangeFamily.members` that lists `bad` in place of the
    last member."""
    def members(self):
        return original(self)[:-1] + [bad]

    return members


def test_a_negative_member_is_named(monkeypatch):
    config = star_config(40, 2).config  # central at the top; (2, 3) sums to -2
    monkeypatch.setattr(RangeFamily, "members", _one_negative(RangeFamily.members, (2, 3)))
    with pytest.raises(WitnessSoundnessError, match=r"witness \(2, 3\) has negative sum"):
        extract_thm1(config, 2, mode="explicit")


def test_a_negative_sample_is_named(monkeypatch):
    config = star_config(40, 2).config
    monkeypatch.setattr(RangeFamily, "sample", lambda self, rng, count: [(3, 4)] * count)
    with pytest.raises(WitnessSoundnessError, match=r"witness \(3, 4\) has negative sum"):
        extract_thm1(config, 2, mode="counted")


#: Central at the top (40 - 2 >= 0); (2, 3) sums to -2 and (3, 40) to -3.
FIRST_NEGATIVE_CONFIG = Configuration.from_values([40] + [-1] * 38 + [-2])
#: Three negative members: the first in order is neither the least, nor the
#: most negative, nor the last.
NEGATIVES = [(5, 6), (2, 3), (3, 40)]


def test_the_first_negative_member_is_named(monkeypatch):
    def members(self):
        good = [(1, j) for j in range(2, 41)]
        return good[:5] + NEGATIVES[:1] + good[5:20] + NEGATIVES[1:2] + good[20:] + NEGATIVES[2:]

    monkeypatch.setattr(RangeFamily, "members", members)
    with pytest.raises(WitnessSoundnessError, match=r"witness \(5, 6\) has negative sum"):
        extract_thm1(FIRST_NEGATIVE_CONFIG, 2, mode="explicit")


def test_the_first_negative_sample_is_named(monkeypatch):
    draws = iter([(1, 2), (1, 3), *NEGATIVES[:1], (1, 4), *NEGATIVES[1:]] + [(1, 5)] * 995)
    monkeypatch.setattr(RangeFamily, "sample",
                        lambda self, rng, count: [next(draws) for _ in range(count)])
    with pytest.raises(WitnessSoundnessError, match=r"witness \(5, 6\) has negative sum"):
        extract_thm1(FIRST_NEGATIVE_CONFIG, 2, mode="counted")


def _reordered(original, change):
    """A stand-in for `RangeFamily.members` that lists `change(members)`."""
    def members(self):
        return change(original(self))

    return members


@pytest.mark.parametrize("change,error,message", [
    (lambda ms: ms[:-1] + [ms[-2]], ValueError, r"\(1, 39\) does not follow \(1, 39\)"),
    (lambda ms: ms[:-2] + [ms[-1], ms[-2]], ValueError, r"\(1, 39\) does not follow \(1, 40\)"),
    (lambda ms: ms[:-1], AssertionError, r"enumerated 38 members, expected 39"),
], ids=["duplicate", "out_of_order", "one_short"])
def test_an_enumeration_that_is_not_the_family_is_refused(monkeypatch, change, error, message):
    config = star_config(40, 2).config  # central at the top: every member is non-negative
    monkeypatch.setattr(RangeFamily, "members", _reordered(RangeFamily.members, change))
    with pytest.raises(error, match=message):
        extract_thm1(config, 2, mode="explicit")


def test_parts_out_of_order_or_overlapping_are_refused():
    ones = Configuration.from_values([1] * 6)
    zone = RangeFamily(((1, 1, 1), (2, 6, 1)))
    rest = SubsetFamily(6, 2, ((2, 3), (2, 4)), 2)  # re-summed where it was built
    family, provenance, _ = _certify(ones, 2, (("zone", zone), ("rest", rest)), "auto", None, 0)
    assert family.index_tuples == (*zone.members(), *rest.index_tuples)
    assert provenance == (("zone", "resummed"), ("rest", "resummed"))
    with pytest.raises(ValueError, match=r"\(1, 2\) does not follow \(2, 4\)"):
        _certify(ones, 2, (("rest", rest), ("zone", zone)), "auto", None, 0)
    with pytest.raises(ValueError, match=r"\(1, 2\) does not follow \(1, 6\)"):
        _certify(ones, 2, (("zone", zone), ("again", zone)), "auto", None, 0)


@pytest.mark.parametrize("mode", ("auto", "counted"))
def test_a_counted_subset_part_rests_on_the_theorem(mode):
    ones = Configuration.from_values([1] * 6)
    zone = RangeFamily(((1, 1, 1), (2, 6, 1)))
    rest = SubsetFamily.counted(6, 2, 10)
    family, provenance, sampled = _certify(
        ones, 2, (("zone", zone), ("rest", rest)), mode, random.Random(0), 7)
    assert not family.is_explicit and family.count == 15
    assert provenance == (("zone", "worst_member"), ("rest", "theorem")) and sampled == 7
    with pytest.raises(ValueError, match="^explicit mode impossible: partition instance "
                                         "above the size limit$"):
        _certify(ones, 2, (("zone", zone), ("rest", rest)), "explicit", random.Random(0), 7)


def _assert_view_matches(family, oracle):
    """A family's members against the frozenset of `KSubset`s they replace."""
    members = list(family.members)
    present = set(members)
    assert len(members) == family.count == len(oracle)
    assert present == oracle and frozenset(family.index_tuples) == oracle
    assert members == sorted(oracle)
    assert all(type(s) is KSubset for s in members)
    assert all(type(ix) is tuple for ix in family.index_tuples)
    assert all(s in present for s in oracle)


def test_member_views_match_the_frozenset_route():
    rng = random.Random(23)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 14)
        fam = RangeFamily(random_parts(rng, n))
        k = sum(r for _, _, r in fam.parts)
        oracle = frozenset(map(KSubset, fam.members()))
        explicit = SubsetFamily.explicit(n, k, reversed(list(map(KSubset, fam.members()))))
        _assert_view_matches(explicit, oracle)
        ones = Configuration.from_values([1] * n)  # every member non-negative
        certified, _, _ = _certify(ones, k, (("family", fam),), "explicit", None, 0)
        _assert_view_matches(certified, oracle)
        assert certified == explicit
        outside = (n + 1,) * k
        assert outside not in set(certified.members) and outside not in certified.index_tuples
        checked += 1
    for n, k in ((6, 2), (9, 3), (12, 4), (10, 5)):
        config = random_configuration(rng, n)
        fam = partition_lower_bound_witnesses(config, k)
        _assert_view_matches(fam, frozenset(map(KSubset, fam.index_tuples)))
        assert list(fam.index_tuples) == sorted(tuple(s) for s in fam.members)
    assert checked == 200


def test_certifying_adds_no_collector_tracked_object_per_member():
    """Members are held as plain int tuples, which the cyclic collector stops
    tracking; a wrapper object per member would stay tracked."""
    config = Configuration.from_values([1] * 200)
    extract_thm1(config, 3, mode="explicit")  # warm every cache on the path
    gc.collect()
    before = len(gc.get_objects())
    report = extract_thm1(config, 3, mode="explicit")
    gc.collect()
    added = len(gc.get_objects()) - before
    fam = report.witnesses
    assert report.branch == "central_at_top" and fam.is_explicit
    assert fam.count == binomial(199, 2) >= 10**4
    assert added < 20, added


def reference_members(config, k, rep):
    """Each branch's explicit family rebuilt by filtering all k-subsets."""
    n = config.n
    every = list(itertools.combinations(range(1, n + 1), k))
    if rep.branch == "central_at_top":
        return {c for c in every if c[0] == 1}
    if rep.branch == "few_negatives":
        nonneg = sum(1 for v in config.values if v >= 0)
        return {c for c in every if c[-1] <= nonneg}
    if rep.branch == "central_at_stage_i":
        i = rep.trace[-1].stage_index
        bottom = n - (i - 1) * (k - 1)
        return {c for c in every if c[0] <= i < c[1] and c[-1] <= bottom}
    if rep.branch == "two_range_family":
        a, j = two_range_parameters(n, k)
        t = n // (2 * k)
        return {c for c in every
                if c[a - 1] <= t and (a == k or t < c[a]) and c[-1] <= t + j}
    assert rep.branch == "trim_and_partition_plus_top_zone"
    m = n - k - n % k
    inner = partition_lower_bound_witnesses(Configuration(config.values[1:m + 1]), k)
    z = n // k
    return ({c for c in every if c[0] == 1 and c[-1] <= z + 1}
            | {tuple(i + 1 for i in w.indices) for w in inner.members})


def test_explicit_branch_families_match_brute_force():
    # the (k, n) draws of acceptance criterion 04, from seed 0
    rng = random.Random(0)
    branches = set()
    for k in (2, 3, 4):
        for _ in range(40):
            n = rng.randint(2 * k + 1, 40)
            config = random_configuration(rng, n)
            reports = [extract_thm1(config, k)]
            if n >= 4 * k:
                reports.append(extract_thm2(config, k))
            for rep in reports:
                if not rep.witnesses.is_explicit:  # partition above the size limit
                    continue
                got = {s.indices for s in rep.witnesses.members}
                assert got == reference_members(config, k, rep), rep.branch
                branches.add(rep.branch)
    assert len(branches) == 5


@pytest.mark.parametrize("k", (2, 3, 4))
@pytest.mark.parametrize("pattern", PATTERNS)
def test_explicit_families_match_an_independent_enumeration(pattern, k):
    """Both extractions against all k-subsets of [n] filtered by the family's
    index ranges and re-summed as Fractions; every stage that the second
    traces is central exactly when its filtered family has no negative
    member."""
    rng = random.Random(10 * PATTERNS.index(pattern) + k)
    for _ in range(3):
        n = rng.randint(4 * k, 4 * k + 10)
        config = random_configuration(rng, n, pattern)
        every = list(itertools.combinations(range(1, n + 1), k))
        thm2 = extract_thm2(config, k)
        for rep in (extract_thm1(config, k), thm2):
            if rep.witnesses.is_explicit:
                expected = reference_members(config, k, rep)
                assert all(ksum(config, c) >= 0 for c in expected), rep.branch
                assert set(rep.witnesses.members) == expected, rep.branch
        assert [t.stage_index for t in thm2.trace] == list(range(1, len(thm2.trace) + 1))
        for t in thm2.trace:
            stage = t.stage_index
            bottom = n - (stage - 1) * (k - 1)
            expected = [c for c in every if c[0] <= stage < c[1] and c[-1] <= bottom]
            assert t.central == all(ksum(config, c) >= 0 for c in expected), stage


# --- first route ---------------------------------------------------------------

def test_thm1_k1_takes_the_top_value():
    rep = extract_thm1(Configuration.from_values([3, 1, -1, -2]), 1)
    assert rep.branch == "central_at_top" and set(rep.witnesses.members) == {(1,)}

def test_thm1_star_central():
    rep = extract_thm1(star_config(40, 2).config, 2)
    assert rep.branch == "central_at_top"
    assert rep.witnesses.count == 39 == rep.guaranteed_count
    assert rep.certified and rep.mode == "explicit"
    assert rep.meets_threshold_target is True
    assert all(1 in s for s in rep.witnesses.members)
    recheck_family(star_config(40, 2).config, rep.witnesses)


def test_thm1_all_ones_central_checked_first():
    # centrality is tested before the negativity count
    rep = extract_thm1(Configuration.from_values([1] * 40), 2)
    assert rep.branch == "central_at_top"
    assert rep.witnesses.count == binomial(39, 1)


def test_thm1_few_negatives():
    config = Configuration.from_values([1] * 37 + [-6, -6, -6])
    rep = extract_thm1(config, 2)
    assert rep.branch == "few_negatives"
    assert rep.witnesses.count == binomial(37, 2)
    recheck_family(config, rep.witnesses)


def test_a_count_below_the_target_inside_the_theorem_range_is_refused(monkeypatch):
    # the 3k+1 counterexample at k = 3 has 3 negatives, so few_negatives gives
    # C(7,3) = 35 members, one short of C(9,2) = 36; it can only be reached by
    # claiming that n = 10 lies inside the theorem's range
    config = mms_counterexample(3).config
    assert extract_thm1(config, 3).branch == "few_negatives"
    monkeypatch.setattr("mms.witness.thm1_threshold", lambda k: 0)
    with pytest.raises(AssertionError, match="count fell below the target inside the theorem range"):
        extract_thm1(config, 3)


@pytest.mark.parametrize("mode,reported", [
    ("auto", "explicit"), ("counted", "counted"), ("explicit", "explicit")])
def test_empty_family_is_reported_in_its_mode(mode, reported):
    # two non-negatives for k = 3: the few_negatives family has no member
    config = Configuration.from_values([10, 10, -1, -1, -1, -8, -8])
    rep = extract_thm1(config, 3, mode=mode)
    assert rep.branch == "few_negatives"
    assert rep.witnesses.count == rep.guaranteed_count == 0
    assert (rep.mode, rep.witnesses.is_explicit) == (reported, reported == "explicit")
    assert rep.sample_size == 0
    assert rep.provenance == (("few_negatives", "resummed"),)


def test_thm1_trim_branch_k2():
    config = Configuration.from_values([1] * 33 + [-4] * 7)
    rep = extract_thm1(config, 2)
    assert rep.branch == "trim_and_partition_plus_top_zone"
    # m = 38, so C(37,1) partition witnesses plus C(20,1) top-zone ones
    assert rep.guaranteed_count == 37 + 20 == rep.witnesses.count
    assert rep.guaranteed_count >= binomial(36, 1) + binomial(20, 1)  # paper-level form
    assert rep.certified and rep.meets_threshold_target is True
    assert dict(rep.provenance) == {"partition": "resummed", "top_zone": "resummed"}
    recheck_family(config, rep.witnesses)
    members = set(rep.witnesses.members)
    with_1 = {s for s in members if 1 in s}
    without_1 = members - with_1
    assert len(with_1) == 20 and len(without_1) == 37
    total = count_nonneg_ksums(config, 2)
    assert rep.witnesses.count <= total


def test_thm1_trim_branch_k3():
    config = Configuration.from_values([2] * 20 + [-7] * 8 + [5, 11])
    assert config.total_sum() == 0
    rep = extract_thm1(config, 3)
    assert rep.branch == "trim_and_partition_plus_top_zone"
    m = 3 * (30 // 3) - 3
    assert rep.guaranteed_count == binomial(m - 1, 2) + binomial(10, 2)
    recheck_family(config, rep.witnesses)


@pytest.mark.parametrize("mode,reported", [
    ("auto", "explicit"), ("counted", "counted"), ("explicit", "explicit")])
def test_thm1_trim_branch_with_an_empty_top_zone(mode, reported):
    # n = 10, k = 4: z = 2 leaves two indices beside x_1 for k - 1 = 3, so the
    # top zone is empty and the one partition block of m = 4 is the family
    config = Configuration.from_values([10, 10, -7, -7] + [-1] * 6)
    rep = extract_thm1(config, 4, mode=mode)
    assert rep.branch == "trim_and_partition_plus_top_zone"
    assert rep.witnesses.count == rep.guaranteed_count == 1
    assert dict(rep.provenance) == {"partition": "resummed", "top_zone": "resummed"}
    assert rep.sample_size == 0 and rep.mode == reported
    if rep.witnesses.is_explicit:
        assert set(rep.witnesses.members) == {(2, 3, 4, 5)}


def test_thm1_counted_mode():
    rep = extract_thm1(star_config(5200, 3).config, 3, mode="counted", seed=1)
    assert rep.mode == "counted"
    assert rep.witnesses.count == binomial(5199, 2)
    assert rep.sample_size == 1000 and rep.certified
    assert rep.provenance == (("central_at_top", "worst_member"),)


def test_thm1_partition_above_size_limit_rests_on_theorem():
    config = Configuration.from_values([1] * 2600 + [-1] * 2600)
    rep = extract_thm1(config, 3, mode="counted")
    assert rep.branch == "trim_and_partition_plus_top_zone"
    assert dict(rep.provenance) == {"partition": "theorem", "top_zone": "worst_member"}
    assert rep.certified is False


def test_thm1_rejections():
    with pytest.raises(ValueError):
        extract_thm1(Configuration.from_values([1, -5, 1]), 2)  # negative sum
    with pytest.raises(ValueError):
        extract_thm1(Configuration.from_values([1, 1, 1, 1]), 2)  # n < 2k+1
    with pytest.raises(ValueError):  # total -1/6
        extract_thm1(Configuration.from_values(["1/2", "1/3"] + ["-1/3"] * 3), 2)
    five = Configuration.from_values([4, -1, -1, -1, -1])
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            extract_thm1(five, k)
    with pytest.raises(ValueError, match="sample_size"):
        extract_thm1(five, 2, mode="counted", sample_size=-5)


def test_thm1_quantitative_guarantee_k2():
    rng = random.Random(41)
    for n in range(32, 65):
        for pattern in ("uniform", "heavy_tail", "half_split", "near_star"):
            config = random_configuration(rng, n, pattern)
            rep = extract_thm1(config, 2)
            assert rep.certified
            assert rep.witnesses.count >= n - 1, (n, pattern, rep.branch)
            assert rep.meets_threshold_target is True


# --- second route ----------------------------------------------------------------

def test_thm2_star_terminates_at_stage_one():
    rep = extract_thm2(star_config(5200, 3).config, 3)
    assert rep.branch == "central_at_stage_i"
    assert rep.trace[-1].stage_index == 1 and rep.trace[-1].central
    assert rep.guaranteed_count == binomial(5199, 2)
    assert rep.mode == "counted" and rep.sample_size == 1000
    assert rep.meets_threshold_target is True


def test_thm2_second_stage_central():
    # one huge negative defeats stage 1; stage 2 is central
    config = Configuration.from_values([5] * 99 + [-400])
    rep = extract_thm2(config, 3)
    assert rep.branch == "central_at_stage_i"
    assert rep.trace[-1].stage_index == 2
    assert rep.guaranteed_count == 2 * binomial(96, 2) == rep.witnesses.count
    recheck_family(config, rep.witnesses)
    # distinctness of the substitution family
    assert len(set(rep.witnesses.members)) == rep.witnesses.count


def test_thm2_two_range_half_split(monkeypatch):
    config = Configuration.from_values([1] * 2600 + [-1] * 2600)
    built = []  # the 866 non-central stages are counted, not kept
    monkeypatch.setattr(witness_mod, "StageTrace", lambda *args: built.append(args))
    rep = extract_thm2(config, 3)
    monkeypatch.undo()
    assert built == [] and rep.stages == 866
    assert rep.branch == "two_range_family"
    assert len(rep.trace) == 866 and not any(t.central for t in rep.trace)
    assert rep.trace == stage_scan_oracle(config, 3)[0]
    assert rep.guaranteed_count == binomial(866, 3)
    assert rep.guaranteed_count >= binomial(5199, 2)
    assert rep.certified and rep.meets_threshold_target is True
    assert rep.provenance == (("two_range_family", "worst_member"),)


def test_thm2_two_range_explicit_small():
    # ties count as non-negative, so a k=2 half-split is centrally resolved;
    # a deeper negative defeats every stage instead
    config = Configuration.from_values([1] * 8 + [-2] * 4)
    rep = extract_thm2(config, 2)
    assert rep.branch == "two_range_family"
    a, j = two_range_parameters(12, 2)
    assert (a, j) == (2, 0)
    assert rep.witnesses.count == binomial(3, 2)
    recheck_family(config, rep.witnesses)


def test_thm2_two_range_with_medium_range():
    # k = 4: a = 3, so each witness takes one medium element
    config = Configuration.from_values([1] * 20 + [-1] * 20)
    rep = extract_thm2(config, 4)
    assert rep.branch == "two_range_family"
    a, j = two_range_parameters(40, 4)
    assert a == 3 and j >= 1
    assert rep.witnesses.count == binomial(5, 3) * binomial(j, 1)
    recheck_family(config, rep.witnesses)


def test_thm2_stage_arithmetic():
    config = Configuration.from_values([1] * 30 + [-1] * 30)
    rep = extract_thm2(config, 3)
    for t in rep.trace:
        assert t.stage_set_size == 60 - (t.stage_index - 1) * 3
        assert t.removed_bottom == (t.stage_index - 1) * 2
        assert t.surviving_top == t.stage_index


def test_thm2_witnesses_subset_of_all_nonneg():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(12, 24)
        config = random_configuration(rng, n)
        rep = extract_thm2(config, 3)
        if rep.witnesses.is_explicit:
            assert rep.witnesses.count <= count_nonneg_ksums(config, 3)
            assert set(rep.witnesses.members) <= nonneg_members(config, 3)


def stage_scan_oracle(config, k):
    """The stage loop that `extract_thm2` replaced: a `RangeFamily` built at
    every stage and its worst member summed. Returns the trace, the branch
    and the family that the branch certifies."""
    n = config.n
    big_t = n // (2 * k)
    trace = []
    for i in range(1, big_t + 1):
        bottom = n - (i - 1) * (k - 1)
        assert config.scaled_range_sum(i, bottom) >= 0
        family = RangeFamily.of((1, i, 1), (i + 1, bottom, k - 1))
        central = family.worst_sum(config) >= 0
        trace.append(StageTrace(
            stage_index=i, surviving_top=i, removed_bottom=(i - 1) * (k - 1),
            central=central, stage_set_size=bottom - i + 1))
        if central:
            return tuple(trace), "central_at_stage_i", family
    a, j = two_range_parameters(n, k)
    parts = ((1, big_t, a),) + (((big_t + 1, big_t + j, k - a),) if a < k else ())
    return tuple(trace), "two_range_family", RangeFamily(parts)


def stored_report_fields(config, k, theorem, witnesses):
    """The report fields as `_report` once built them, from the family and a
    record per stage: the count, the mode, the guarantee verdicts and the
    stage trace (for the first route, its one top stage)."""
    n = config.n
    target = binomial(n - 1, k - 1)
    if theorem == 1:
        threshold_met = n >= thm1_threshold(k)
        central = RangeFamily.of((1, 1, 1), (2, n, k - 1)).worst_sum(config) >= 0
        trace = (StageTrace(stage_index=1, surviving_top=1, removed_bottom=0,
                            central=central, stage_set_size=n),)
    else:
        threshold_met = thm2_threshold_exceeded(n, k)
        trace = stage_scan_oracle(config, k)[0]
    meets = None
    if threshold_met:
        assert witnesses.count >= target
        meets = True
    return {
        "guaranteed_count": witnesses.count,
        "mode": "explicit" if witnesses.is_explicit else "counted",
        "below_guarantee": witnesses.count < target,
        "meets_threshold_target": meets,
        "trace": trace,
    }


@pytest.mark.parametrize("mode", ("auto", "explicit", "counted"))
@pytest.mark.parametrize("pattern", PATTERNS)
def test_report_fields_read_off_the_family_match_the_stored_ones(pattern, mode):
    """Both routes, on both sides of each theorem's threshold at k = 2."""
    rng = random.Random(71 + 7 * PATTERNS.index(pattern))
    seen = collections.Counter()
    for k, sizes in ((2, (5, 9, 16, 31, 32, 60, 113, 114, 140)), (3, (7, 12, 20, 33)),
                     (4, (9, 16, 25))):
        for n in sizes:
            config = random_configuration(rng, n, pattern)
            reports = [(1, extract_thm1(config, k, mode=mode, sample_size=30))]
            if n >= 4 * k:
                reports.append((2, extract_thm2(config, k, mode=mode, sample_size=30)))
            for theorem, rep in reports:
                want = stored_report_fields(config, k, theorem, rep.witnesses)
                got = {name: getattr(rep, name) for name in want}
                assert got == want, (n, k, theorem, rep.branch)
                assert rep.stages == len(want["trace"])
                seen[got["mode"], got["below_guarantee"], got["meets_threshold_target"]] += 1
    assert {mode_ for mode_, _, _ in seen} == {"explicit" if mode == "auto" else mode}, seen
    if pattern != "near_star":  # a near star is central at the top, never below
        assert {below for _, below, _ in seen} == {True, False}, seen
    assert {meets for _, _, meets in seen} == {True, None}, seen


@pytest.fixture
def certified_parts(monkeypatch):
    """The parts of every family that `_certify` is given, in call order."""
    seen = []
    honest = witness_mod._certify

    def recording(config, k, parts, *rest):
        seen.append(parts)
        return honest(config, k, parts, *rest)

    monkeypatch.setattr(witness_mod, "_certify", recording)
    return seen


def test_stage_scan_matches_the_per_stage_family_oracle(certified_parts):
    rng = random.Random(61)
    branches = collections.Counter()
    for _ in range(300):
        k = rng.randint(2, 5)
        n = rng.randint(4 * k, 200)
        pattern = rng.choice(PATTERNS + ("deep_tail",))
        if pattern == "deep_tail":  # a few large negatives defeat the first stages
            heavy = rng.randint(1, 3)
            config = Configuration.from_values(
                [rng.randint(1, 5) for _ in range(n - heavy)]
                + [-rng.randint(n, 3 * n) for _ in range(heavy)])
            if config.scaled_prefix[-1] < 0:
                continue
        else:
            config = random_configuration(rng, n, pattern)
        trace, branch, family = stage_scan_oracle(config, k)
        rep = extract_thm2(config, k, mode="counted", sample_size=20, seed=rng.randint(0, 99))
        assert (rep.trace, rep.branch) == (trace, branch), (n, k, pattern)
        assert certified_parts[-1] == ((branch, family),)
        assert rep.witnesses.count == family.count
        branches[branch, len(trace) > 1] += 1
    assert min(branches.values()) >= 20 and len(branches) == 3, branches


def test_negatives_are_counted_past_zeros_and_in_all_negative_tails(certified_parts):
    """The few_negatives branch takes the k-subsets of the non-negative
    prefix: its part ends at n minus the number of negative values, zeros
    included in the prefix."""
    rng = random.Random(67)
    seen = collections.Counter()
    for _ in range(600):
        k = rng.randint(2, 4)
        n = rng.randint(2 * k + 1, 40)
        zeros = rng.choice((0, rng.randint(1, n // 3)))  # none, or some
        negs = rng.randint(1, min(3 * k, n - zeros - 1))
        tail = [-rng.randint(4, 6) for _ in range(negs)]
        head = [rng.randint(1, 3) for _ in range(n - zeros - negs)]
        config = Configuration.from_values(head + [0] * zeros + tail)
        if config.scaled_prefix[-1] < 0 or config.scaled_range_sum(n - k + 2, n) + config.scaled[0] >= 0:
            continue  # a negative total, or central at the top
        rep = extract_thm1(config, k, mode="counted", sample_size=5)
        neg = sum(1 for v in config.values if v < 0)
        if neg < 2 * k:
            assert rep.branch == "few_negatives"
            assert certified_parts[-1] == (("few_negatives", RangeFamily(((1, n - neg, k),))),)
        else:
            assert rep.branch == "trim_and_partition_plus_top_zone"
        seen[rep.branch, zeros > 0] += 1
    assert min(seen.values()) >= 10 and len(seen) == 4, seen


def test_the_trim_branch_hands_over_its_partition_as_a_family(certified_parts):
    """Below the partition size limit the part is the trimmed instance's
    explicit witness family, each index shifted by one; above it, a count."""
    config = Configuration.from_values([2] * 20 + [-7] * 8 + [5, 11])
    m = 30 - 3 - 30 % 3
    for mode in ("auto", "counted", "explicit"):
        extract_thm1(config, 3, mode=mode)
        part = dict(certified_parts[-1])["partition"]
        inner = partition_lower_bound_witnesses(Configuration(config.values[1:m + 1]), 3)
        assert type(part) is SubsetFamily and part.is_explicit
        assert part.index_tuples == tuple(tuple(i + 1 for i in ix) for ix in inner.index_tuples)
        assert (part.n, part.k, part.count) == (30, 3, binomial(m - 1, 2))

    half = Configuration.from_values([1] * 2600 + [-1] * 2600)
    rep = extract_thm1(half, 3, mode="counted", sample_size=10)
    part = dict(certified_parts[-1])["partition"]
    m = 5200 - 3 - 5200 % 3
    assert rep.branch == "trim_and_partition_plus_top_zone"
    assert type(part) is SubsetFamily and not part.is_explicit
    assert (part.n, part.k, part.count) == (5200, 3, binomial(m - 1, 2))
    assert dict(rep.provenance)["partition"] == "theorem" and not rep.certified


def test_the_parts_add_up_to_the_reported_count(certified_parts):
    rng = random.Random(73)
    branches = collections.Counter()
    for _ in range(120):
        k = rng.randint(2, 4)
        n = rng.randint(4 * k, 40)
        config = random_configuration(rng, n, rng.choice(PATTERNS))
        mode = rng.choice(("auto", "counted"))
        for extract in (extract_thm1, extract_thm2):
            rep = extract(config, k, mode=mode, sample_size=5)
            assert sum(part.count for _, part in certified_parts[-1]) == rep.witnesses.count
            branches[rep.branch] += 1
    assert len(certified_parts) == 240
    assert len(branches) == 5, branches


def test_thm2_rejections():
    with pytest.raises(ValueError):
        extract_thm2(Configuration.from_values([1] * 11), 3)  # n < 4k
    with pytest.raises(ValueError):
        extract_thm2(Configuration.from_values([1, 1, -5] + [0] * 9), 3)
    with pytest.raises(ValueError):  # total -1/6
        extract_thm2(Configuration.from_values(["1/2", "1/3", "-1/2", "-1/2"] + [0] * 8), 3)
    with pytest.raises(ValueError, match="sample_size"):
        extract_thm2(Configuration.from_values([1] * 12), 3, mode="counted", sample_size=-1)


def test_two_range_parameters_rigorous():
    import math
    assert two_range_parameters(5200, 2) == (2, 0)
    assert two_range_parameters(5200, 3) == (3, 0)  # ceil(3/ln 3) = 3 = k
    for k in (4, 5, 6, 10, 20):
        a, j = two_range_parameters(5200, k)
        assert a == min(math.ceil(k / math.log(k)), k)
        assert j == int(5200 / (2 * math.log(k)))
        assert 1 <= a < k


# --- soundness sweep (the smaller in-module version) -------------------------------

def test_witness_soundness_random_sweep():
    rng = random.Random(97)
    reports = 0
    for _ in range(120):
        k = rng.choice((2, 3, 4))
        n = rng.randint(2 * k + 1, 40)
        config = random_configuration(rng, n)
        rep = extract_thm1(config, k, seed=rng.randint(0, 100))
        recheck_family(config, rep.witnesses)
        reports += 1
        if n >= 4 * k:
            rep = extract_thm2(config, k, seed=rng.randint(0, 100))
            recheck_family(config, rep.witnesses)
            reports += 1
    assert reports >= 150


def test_thm1_witnesses_never_exceed_total_count():
    rng = random.Random(101)
    for _ in range(40):
        k = rng.choice((2, 3))
        n = rng.randint(2 * k + 1, 18)
        config = random_configuration(rng, n)
        rep = extract_thm1(config, k)
        assert rep.witnesses.count <= count_nonneg_ksums(config, k)
        if rep.witnesses.is_explicit:
            assert set(rep.witnesses.members) <= nonneg_members(config, k)
