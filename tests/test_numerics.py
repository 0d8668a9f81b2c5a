import itertools
import math
import pickle
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mms.numerics import (
    COLUMN_SUM_MAX_K,
    ConfigParseError,
    Configuration,
    KSubset,
    SubsetFamily,
    binomial,
    count_nonneg_ksums,
    format_config,
    is_central,
    ksum,
    parse_config_text,
    parse_rational,
    scaled_ksums,
    trusted_ksubset,
)

from mms.witness import RangeFamily

from genconfig import PATTERNS, nonneg_members, random_configuration


# --- binomial ---------------------------------------------------------------

def pascal_triangle(rows: int) -> list[list[int]]:
    tri = [[1]]
    for r in range(1, rows + 1):
        prev = tri[-1]
        tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, r)] + [1])
    return tri


def test_binomial_examples():
    assert binomial(9, 2) == 36
    assert binomial(13, 5) == 1287  # Pascal oracle below confirms
    for n in range(0, 20):
        assert binomial(n, 0) == 1


def test_binomial_against_pascal_oracle():
    tri = pascal_triangle(60)
    for n in range(61):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]


def test_binomial_out_of_range_and_errors():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal_rule_exact():
    for n in range(2, 201):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_large_exact():
    # exactness well past 10^4
    assert binomial(10**4, 2) == 10**4 * (10**4 - 1) // 2
    assert binomial(10**4, 5) * 120 == 10**4 * 9999 * 9998 * 9997 * 9996


# --- configurations and k-sums ----------------------------------------------

def test_configuration_sorts_and_sums():
    c = Configuration.from_values([-4, 3, "3", Fraction(3), -4])
    assert [str(v) for v in c.values] == ["3", "3", "3", "-4", "-4"]
    assert c.total_sum() == 1
    assert c.scaled == (3, 3, 3, -4, -4)


def test_string_values_follow_the_config_line_grammar():
    for text in ("0.5", "1e3", "1_000"):
        with pytest.raises(ValueError, match="not a rational p/q or integer"):
            Configuration.from_values([text])
    c = Configuration.from_values([" 3/6 ", "-2/3"])
    assert c.values == (Fraction(1, 2), Fraction(-2, 3))


def test_a_long_line_is_quoted_by_its_head_and_length():
    for line in ("9" * 5000 + ".5", "1/" + "0" * 4000):  # 4000: under the digit limit
        with pytest.raises(ValueError) as exc:
            parse_rational(line)
        message = str(exc.value)
        assert f"{line[:40]!r}... ({len(line)} characters)" in message and len(message) < 100


@settings(max_examples=200)
@given(st.lists(
    st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-100, max_value=100, max_denominator=60)),
    min_size=1, max_size=12))
def test_scaled_matches_multiplying_by_the_common_denominator(values):
    c = Configuration.from_values(values)
    denom = math.lcm(*(v.denominator for v in c.values))
    assert c.scaled == tuple(int(v * denom) for v in c.values)
    assert c.scaled_prefix[-1] == c.total_sum() * denom


def test_ksum_examples():
    c = Configuration.from_values([3, 3, 3, -4, -4])
    assert ksum(c, KSubset((1, 2))) == 6
    assert ksum(c, KSubset((3, 4))) == -1
    assert ksum(c, KSubset((1, 2, 3, 4, 5))) == c.total_sum()
    with pytest.raises(IndexError):
        ksum(c, KSubset((5, 6)))


@pytest.mark.parametrize("indices", [(0, 1), (1, 1), (2, 1), (), (-1, 2), (1, 3, 2)])
def test_ksum_refuses_index_tuples_that_are_not_ksets(indices):
    c = Configuration.from_values([3, 1, -2])
    with pytest.raises(ValueError, match="strictly increasing"):
        ksum(c, indices)


def test_ksubset_validation():
    with pytest.raises(ValueError):
        KSubset((2, 2))
    with pytest.raises(ValueError):
        KSubset((0, 1))
    with pytest.raises(ValueError):
        KSubset(())
    with pytest.raises(ValueError):
        KSubset((3, 1))


def test_ksubset_is_its_sorted_index_tuple():
    s = KSubset((1, 4, 6))
    assert s == (1, 4, 6) and hash(s) == hash((1, 4, 6))
    assert s.indices == (1, 4, 6) and len(s) == 3
    assert 4 in s and 2 not in s and list(s) == [1, 4, 6]
    assert {(1, 4, 6)} == {s}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(s, protocol))
        assert type(back) is KSubset and back == s
    assert trusted_ksubset((2, 3)) == KSubset((2, 3))
    assert type(trusted_ksubset((2, 3))) is KSubset


# --- the k-sum kernel --------------------------------------------------------

def ksum_oracle(config, ksets):
    """Each k-set's exact Fraction sum (`ksum`), times the common denominator."""
    denom = math.lcm(*(v.denominator for v in config.values))
    return [ksum(config, s) * denom for s in ksets]


def random_ksets(rng, n, k, count):
    return [tuple(sorted(rng.sample(range(1, n + 1), k))) for _ in range(count)]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_scaled_ksums_match_the_fraction_oracle(pattern):
    """Range-family enumerations and random k-sets on seeded configurations
    of every pattern (rationals included), for every k summed by columns
    (k <= COLUMN_SUM_MAX_K) and the first four summed by rows."""
    top_k = COLUMN_SUM_MAX_K + 4
    rng = random.Random(PATTERNS.index(pattern))
    for _ in range(20):
        n = rng.randint(top_k, 14)
        config = random_configuration(rng, n, pattern)
        for k in range(1, top_k + 1):
            split = rng.randint(1, n - 1)
            a = rng.randint(max(0, k - (n - split)), min(k, split))
            family = RangeFamily.of((1, split, a), (split + 1, n, k - a)).members()
            for ksets in (family, random_ksets(rng, n, k, 50), family[-1:], []):
                sums = scaled_ksums(config, ksets, k)
                assert list(sums) == ksum_oracle(config, ksets), (pattern, k, ksets[:3])


@pytest.mark.parametrize("at", [0, 1, 4])
@pytest.mark.parametrize("k,size", [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4),
                                    (4, 3), (4, 5), (5, 4), (5, 6)])
def test_scaled_ksums_refuse_a_member_of_the_wrong_length(at, k, size):
    """One member one index short or long would shift the grouping of every
    later sum; it is named instead, before any sum is taken."""
    config = Configuration.from_values(range(-5, 7))
    ksets = random_ksets(random.Random(k), 12, k, 5)
    bad = tuple(range(1, size + 1))
    ksets[at] = bad
    with pytest.raises(ValueError, match=re.escape(f"member {bad} has wrong size (expected k={k})")):
        scaled_ksums(config, ksets, k)


@pytest.mark.parametrize("k", [2, COLUMN_SUM_MAX_K + 1])
@pytest.mark.parametrize("one_shot", [iter, lambda ksets: (s for s in ksets)],
                         ids=["iter", "generator"])
def test_scaled_ksums_refuse_a_one_shot_iterator(one_shot, k):
    """The length check would use up an iterator and leave no sum to take;
    it is refused instead of giving no sums."""
    config = Configuration.from_values(range(-5, 7))
    ksets = random_ksets(random.Random(k), 12, k, 5)
    with pytest.raises(TypeError, match="sequence, not a one-shot iterator"):
        scaled_ksums(config, one_shot(ksets), k)
    assert list(scaled_ksums(config, tuple(ksets), k)) == ksum_oracle(config, ksets)


def test_scaled_ksums_rejects_k_below_one():
    with pytest.raises(ValueError, match="k >= 1"):
        scaled_ksums(Configuration.from_values([1, 2]), [()], 0)


def test_nonneg_family_is_upward_closed():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(4, 10)
        k = rng.randint(2, n - 1)
        config = random_configuration(rng, n)
        members = {s.indices for s in nonneg_members(config, k)}
        for combo in itertools.combinations(range(1, n + 1), k):
            for member in members:
                if all(x <= y for x, y in zip(combo, member)):
                    assert combo in members, (combo, member, config.values)


def test_count_nonneg_examples():
    from mms.constructions import mms_counterexample, star_config

    count = count_nonneg_ksums(star_config(8, 3).config, 3)
    assert count == 21
    count = count_nonneg_ksums(Configuration.from_values([1] * 9), 4)
    assert count == binomial(9, 4)
    count = count_nonneg_ksums(mms_counterexample(3).config, 3)
    assert count == 35


def naive_count(config: Configuration, k: int) -> int:
    total = 0
    for combo in itertools.combinations(range(config.n), k):
        s = Fraction(0)
        for i in combo:
            s += config.values[i]
        if s >= 0:
            total += 1
    return total


def test_count_agrees_with_naive_double_loop():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 12)
        k = rng.randint(1, n)
        config = Configuration.from_values(
            [rng.randint(-3, 3) for _ in range(n)])
        count = count_nonneg_ksums(config, k)
        assert count == naive_count(config, k) == len(nonneg_members(config, k))


value_strategy = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_count_matches_naive_count_property(data):
    n = data.draw(st.integers(1, 14))
    k = data.draw(st.integers(1, n))
    shape = data.draw(st.sampled_from(("mixed", "few_values", "all_equal", "all_zero")))
    if shape == "mixed":
        values = data.draw(st.lists(value_strategy, min_size=n, max_size=n))
    elif shape == "few_values":  # long runs of ties, zero among the choices
        pool = data.draw(st.lists(value_strategy, min_size=1, max_size=3)) + [0]
        values = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif shape == "all_equal":
        values = [data.draw(value_strategy)] * n
    else:
        values = [0] * n
    config = Configuration.from_values(values)
    assert count_nonneg_ksums(config, k) == naive_count(config, k)


def test_count_distinct_values_at_default_recursion_limit():
    limit = sys.getrecursionlimit()
    values = random.Random(23).sample(range(-10**6, 10**6), 1500)
    pairwise = sum(1 for a, b in itertools.combinations(values, 2) if a + b >= 0)
    assert count_nonneg_ksums(Configuration.from_values(values), 2) == pairwise
    assert sys.getrecursionlimit() == limit


def test_count_rejects_k_out_of_range():
    config = Configuration.from_values([1, -1, 0])
    for k in (0, 4):
        with pytest.raises(ValueError):
            count_nonneg_ksums(config, k)


# --- centrality ---------------------------------------------------------------

def test_is_central_examples():
    from mms.constructions import mms_counterexample, star_config

    star = star_config(10, 3).config
    assert is_central(star, 1, 3)
    ce = mms_counterexample(3).config
    assert not is_central(ce, 1, 3)  # 3(k-1) - (3k-2) = -1 < 0
    ones = Configuration.from_values([1] * 6)
    assert all(is_central(ones, i, 3) for i in range(1, 7))


def test_is_central_matches_exhaustive_definition():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(3, 9)
        k = rng.randint(1, n)
        config = random_configuration(rng, n)
        for idx in range(1, n + 1):
            exhaustive = all(
                ksum(config, KSubset(tuple(sorted((idx,) + rest)))) >= 0
                for rest in itertools.combinations(
                    [i for i in range(1, n + 1) if i != idx], k - 1)
            )
            assert is_central(config, idx, k) == exhaustive


def test_is_central_monotone_in_index():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(3, 10)
        k = rng.randint(1, n)
        config = random_configuration(rng, n)
        flags = [is_central(config, i, k) for i in range(1, n + 1)]
        # central at i implies central at every smaller index
        for i in range(1, n):
            if flags[i]:
                assert flags[i - 1]


# --- families -----------------------------------------------------------------

def test_subset_family_invariants():
    fam = SubsetFamily.explicit(5, 2, [KSubset((1, 2)), KSubset((1, 3))])
    assert fam.count == 2 and fam.is_explicit
    assert KSubset((1, 2)) in set(fam.members)
    counted = SubsetFamily.counted(100, 3, 10**9)
    assert not counted.is_explicit and counted.members is None
    with pytest.raises(ValueError):
        SubsetFamily(5, 2, ((1, 2),), 2)
    with pytest.raises(ValueError):
        SubsetFamily.explicit(5, 2, [KSubset((1, 2, 3))])
    with pytest.raises(ValueError):
        SubsetFamily.explicit(4, 2, [KSubset((1, 5))])
    # one bad member among good ones is found and named
    good = [KSubset(c) for c in itertools.combinations(range(1, 7), 2)]
    with pytest.raises(ValueError, match=r"member \(2, 3, 4\) has wrong size"):
        SubsetFamily.explicit(6, 2, good + [KSubset((2, 3, 4))])
    with pytest.raises(ValueError, match=r"member \(3, 7\) out of range"):
        SubsetFamily.explicit(6, 2, good + [KSubset((3, 7))])
    fam = SubsetFamily.explicit(6, 2, reversed(good))
    assert fam.index_tuples == tuple(itertools.combinations(range(1, 7), 2))


def test_subset_family_keeps_plain_sorted_tuples():
    fam = SubsetFamily.explicit(6, 2, [(2, 5), KSubset((1, 3)), (2, 5), (1, 2)])
    assert fam.count == 3 and fam.index_tuples == ((1, 2), (1, 3), (2, 5))
    assert all(type(ix) is tuple for ix in fam.index_tuples)
    assert [type(s) for s in fam.members] == [KSubset] * 3
    members = fam.members  # lazy: one KSubset at a time, a fresh pass per read
    assert iter(members) is members and next(members) == (1, 2)
    assert list(fam.members)[0] == (1, 2)
    assert fam == SubsetFamily.explicit(6, 2, [(1, 3), (2, 5), (1, 2)])
    assert (2, 5) in set(fam.members) and KSubset((2, 5)) in set(fam.members)
    assert (2, 4) not in set(fam.members)
    for other in (frozenset(fam.members), list(fam.index_tuples)):
        with pytest.raises(TypeError, match=r"SubsetFamily\.explicit"):
            SubsetFamily(6, 2, other, 3)
    for bad in ((2, 1), (0, 1), (3, 3)):
        with pytest.raises(ValueError, match=re.escape(f"strictly increasing and >= 1: {bad}")):
            SubsetFamily.explicit(6, 2, [(1, 2), bad])
    with pytest.raises(ValueError, match=r"strictly increasing and >= 1: \(\)"):
        SubsetFamily.explicit(6, 0, [()])


def test_members_out_of_order_or_repeated_are_refused():
    """Built directly, a family checks that its tuples strictly increase;
    the shape of each tuple is left to `explicit` and the range families."""
    with pytest.raises(ValueError, match=r"\(2, 1\) does not follow \(2, 1\) in increasing order"):
        SubsetFamily(3, 2, ((2, 1), (2, 1)), 2)
    with pytest.raises(ValueError, match=r"\(1, 2\) does not follow \(1, 3\) in increasing order"):
        SubsetFamily(3, 2, ((1, 3), (1, 2)), 2)
    assert SubsetFamily(3, 2, ((1, 2), (1, 3), (2, 3)), 3).count == 3


# --- text format ----------------------------------------------------------------

def test_config_text_round_trip():
    c = Configuration.from_values([Fraction(7, 3), -2, 0, Fraction(-1, 2)])
    assert parse_config_text(format_config(c)) == c


@settings(max_examples=200)
@given(st.lists(
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    min_size=1, max_size=12))
def test_config_text_round_trip_property(values):
    c = Configuration.from_values(values)
    assert parse_config_text(format_config(c)) == c


def test_config_text_parsing():
    text = "# sample\n3\n-4  # trailing comment\n\n1/2\n"
    c = parse_config_text(text)
    assert c.values == (Fraction(3), Fraction(1, 2), Fraction(-4))
    assert parse_config_text("+3\n2/4\n-0\n1/2\n 007/14 \n").values == (
        Fraction(3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(0))
    with pytest.raises(ConfigParseError) as exc:
        parse_config_text("3\nnope\n")
    assert exc.value.line_no == 2
    with pytest.raises(ConfigParseError):
        parse_config_text("# only comments\n")
    # Only `[+-]?digits` and `[+-]?digits/digits` are values; the first
    # malformed line is reported, even when it repeats later.
    outside_the_grammar = ["0.5", "1e3", "1e100000", "1_000", "1/0", "1/-2", "3/", "/3",
                           "1 / 2", "--1", "0x10", "\u0661"]
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        outside_the_grammar.append("9" * (limit + 1))  # more digits than int() converts
    for line in outside_the_grammar:
        with pytest.raises(ConfigParseError) as exc:
            parse_config_text(f"1\n# note\n\n{line}  # bad\n2\n{line}\n")
        assert exc.value.line_no == 4, line


def parse_config_oracle(text: str) -> tuple[Fraction, ...]:
    """The route the parser replaced: `Fraction(line)` per line, then one
    sort of all the Fractions."""
    values = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            values.append(Fraction(line))
    return tuple(sorted(values, reverse=True))


@st.composite
def config_texts(draw):
    """Shuffled lines over a small pool of values: repeats, unreduced p/q,
    explicit signs, comments, blank lines and surrounding blanks."""
    pool = draw(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=12),
                         min_size=1, max_size=6))
    lines = []
    for value in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)):
        factor = draw(st.integers(1, 4))
        num, den = value.numerator * factor, value.denominator * factor
        sign = "+" if num >= 0 and draw(st.booleans()) else ""
        body = f"{sign}{num}" if den == 1 and draw(st.booleans()) else f"{sign}{num}/{den}"
        pad = draw(st.sampled_from(["", " ", "\t"]))
        comment = draw(st.sampled_from(["", "# v", "  # 1/0 and 0.5"]))
        lines.append(f"{pad}{body}{pad}{comment}")
        lines.extend(draw(st.lists(st.sampled_from(["", "   ", "# comment"]), max_size=2)))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300)
@given(config_texts())
def test_parser_matches_the_fraction_per_line_oracle(text):
    expected = parse_config_oracle(text)
    c = parse_config_text(text)
    assert c.values == expected
    denom = math.lcm(*(v.denominator for v in expected))
    assert c.scaled == tuple(int(v * denom) for v in expected)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_scaled_ints_per_distinct_value_match_the_per_value_formula(pattern):
    """`from_counts` (behind `from_values` and `parse_config_text`) fills in
    `scaled` from one int per distinct value; `Configuration(values)`
    derives it value by value."""
    rng = random.Random(PATTERNS.index(pattern))
    for _ in range(20):
        built = random_configuration(rng, rng.randint(1, 60), pattern)
        lines = format_config(built).splitlines(keepends=True)
        rng.shuffle(lines)
        for c in (built, parse_config_text("".join(lines))):
            oracle = Configuration(c.values)
            assert c == oracle and c.scaled == oracle.scaled
            assert c.scaled_prefix == oracle.scaled_prefix


def test_merged_values_are_scaled_once():
    for c in (parse_config_text("2/4\n1/2\n-3/6\n1/3\n2/6\n-1\n"),
              Configuration.from_values(["2/4", Fraction(1, 2), "-3/6", "1/3", "2/6", -1])):
        assert c.values == (Fraction(1, 2),) * 2 + (Fraction(1, 3),) * 2 + (
            Fraction(-1, 2), Fraction(-1))
        assert c.scaled == Configuration(c.values).scaled == (3, 3, 2, 2, -3, -6)
    # a value counted zero times adds nothing, its denominator included
    c = Configuration.from_counts(
        Counter({Fraction(1, 2): 2, Fraction(1, 7): 0, Fraction(-1): 1, Fraction(5, 3): -1}))
    assert c.values == (Fraction(1, 2), Fraction(1, 2), Fraction(-1))
    assert c.scaled == Configuration(c.values).scaled == (1, 1, -2)


def test_configuration_checks_order_after_scaling():
    with pytest.raises(ValueError):
        Configuration((Fraction(1, 3), Fraction(1, 2)))
    with pytest.raises(ValueError):
        Configuration((Fraction(-5, 6), Fraction(2, 3), Fraction(-1)))
    assert Configuration((Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))).scaled == (3, 3, 2)
