import random
import sys

import pytest

import mms.numerics
import mms.partition
from mms.numerics import Configuration, SubsetFamily, binomial, ksum
from mms.partition import (
    PARTITION_SIZE_LIMIT,
    PartitionSizeError,
    _assign,
    baranyai_partition,
    partition_lower_bound_witnesses,
    validate_partition,
)

from genconfig import PATTERNS, random_configuration


def independent_check(n: int, k: int, classes) -> bool:
    """Validator written from scratch for the tests; must agree with the
    packaged one."""
    seen = set()
    for cls in classes:
        points = [i for b in cls for i in b]
        if sorted(points) != list(range(1, n + 1)):
            return False
        for b in cls:
            if len(b) != k or b in seen:
                return False
            seen.add(b)
    return len(seen) == binomial(n, k) and len(classes) == binomial(n - 1, k - 1)


INSTANCES = [(4, 2), (6, 2), (8, 2), (14, 2), (3, 3), (6, 3), (9, 3), (12, 3),
             (8, 4), (12, 4), (10, 5), (12, 6), (7, 7)]


@pytest.mark.parametrize("n,k", INSTANCES)
def test_partitions_valid(n, k):
    classes = baranyai_partition(n, k, seed=0)
    assert len(classes) == binomial(n - 1, k - 1)
    assert validate_partition(n, k, classes) is None
    assert independent_check(n, k, classes)
    # each class is a sorted tuple of sorted index tuples
    for cls in classes:
        assert list(cls) == sorted(cls)
        assert all(list(b) == sorted(b) for b in cls)


#: Instances of the inductive build that the witness routes can reach:
#: for k = 2 every even n <= 40 and n = 140, the largest n with C(n,2)
#: within the size limit; for 3 <= k <= 7 every multiple n of k with C(n,k)
#: within the limit (n <= 39, 20, 15, 12, 14 for k = 3, ..., 7; above that
#: only n = k fits); and the one-class (40, 40).
INDUCTIVE_INSTANCES = [(n, 2) for n in range(2, 41, 2)] + [(140, 2)] + [
    (n, k) for k in range(3, 8) for n in range(k, 60, k)
    if binomial(n, k) <= PARTITION_SIZE_LIMIT
] + [(40, 40)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n,k", INDUCTIVE_INSTANCES)
def test_inductive_partitions_valid(n, k, seed):
    classes = baranyai_partition.__wrapped__(n, k, seed)
    assert validate_partition(n, k, classes) is None
    assert independent_check(n, k, classes)


def test_assign_repairs_by_a_path_through_two_holders(monkeypatch):
    # types A=0, B=1, C=2, one unit of demand each. The greedy gives class 1
    # type A (first of a tie) and class 2 type B, so class 0, which can only
    # take A, is pending. The only augmenting path is
    # class 0 -A-> class 1 -B-> class 2 -> C.
    augmented = []
    augment = mms.partition._augment

    def spy(start, *rest):
        augmented.append(start)
        return augment(start, *rest)

    monkeypatch.setattr(mms.partition, "_augment", spy)
    types = [[0], [0, 1], [1, 2]]
    rem = [1, 1, 1]
    assign = _assign(types, rem, [1, 2, 0])
    assert augmented == [0]
    assert assign == [0, 1, 2]
    assert rem == [0, 0, 0]
    assert all(t in ts for t, ts in zip(assign, types))


def test_assign_meets_every_demand_exactly():
    rng = random.Random(11)
    for _ in range(200):
        # a random instance with a known exact assignment: class c may take
        # its planted type and a few random others
        num_types = rng.randint(1, 6)
        planted = [rng.randrange(num_types) for _ in range(rng.randint(1, 12))]
        types = [sorted({t, *rng.choices(range(num_types), k=rng.randint(0, 2))})
                 for t in planted]
        demand = [planted.count(t) for t in range(num_types)]
        rem = list(demand)
        order = list(range(len(types)))
        rng.shuffle(order)
        assign = _assign(types, rem, order)
        assert all(t in ts for t, ts in zip(assign, types))
        assert [assign.count(t) for t in range(num_types)] == demand
        assert rem == [0] * num_types


def test_assign_without_an_augmenting_path_is_an_internal_error():
    with pytest.raises(AssertionError, match="invariant broken"):
        _assign([[0], [0]], [1, 1], [0, 1])


def test_single_class_for_n_equals_k():
    assert baranyai_partition(5, 5) == (((1, 2, 3, 4, 5),),)


def test_deterministic_given_seed():
    for n, k in [(9, 3), (8, 2)]:
        a = baranyai_partition.__wrapped__(n, k, seed=42)
        b = baranyai_partition.__wrapped__(n, k, seed=42)
        assert a == b
        c = baranyai_partition.__wrapped__(n, k, seed=43)
        assert validate_partition(n, k, c) is None


def test_seed_picks_the_k2_partition():
    assert baranyai_partition(8, 2, 0) != baranyai_partition(8, 2, 1)


def test_build_leaves_recursion_limit_unchanged():
    original = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
    try:
        baranyai_partition.cache_clear()
        assert validate_partition(12, 3, baranyai_partition(12, 3)) is None
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(original)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        baranyai_partition(7, 2)
    with pytest.raises(PartitionSizeError):
        baranyai_partition(60, 30)


def test_validator_catches_injected_faults():
    classes = baranyai_partition(6, 3, seed=0)
    for broken, diagnostic in [
        ((classes[0],) + classes[:-1], "duplicated"),
        (classes[:-1], "classes"),
        ((((1, 2), (3, 4, 5)),) * 10, "size"),
        ((((1, 2, 3), (1, 5, 6)),) + classes[1:], "does not partition"),
    ]:
        v = validate_partition(6, 3, broken)
        assert v is not None and diagnostic in v
        assert not independent_check(6, 3, broken)


def test_witnesses_star_example():
    fam = partition_lower_bound_witnesses(
        Configuration.from_values([7] + [-1] * 7), 2)
    assert fam.count == 7
    assert all(1 in w for w in fam.members)


def test_witnesses_all_ones():
    fam = partition_lower_bound_witnesses(Configuration.from_values([1] * 6), 3)
    assert fam.count == binomial(5, 2) == 10


def test_witnesses_small_example():
    fam = partition_lower_bound_witnesses(
        Configuration.from_values([2, 2, -1, -3]), 2)
    assert sorted(w.indices for w in fam.members) == [(1, 2), (1, 3), (2, 3)]


def test_witnesses_rejections():
    with pytest.raises(ValueError):
        partition_lower_bound_witnesses(Configuration.from_values([1] * 5), 2)
    with pytest.raises(ValueError):
        partition_lower_bound_witnesses(Configuration.from_values([1, -2]), 2)
    with pytest.raises(ValueError):  # total -1/6
        partition_lower_bound_witnesses(Configuration.from_values(["1/2", "-2/3"]), 2)
    for k in (0, -1):  # k is checked before n % k
        with pytest.raises(ValueError, match=f"k >= 1, got n=6, k={k}"):
            partition_lower_bound_witnesses(Configuration.from_values([1] * 6), k)


def test_witness_family_properties_random_sweep():
    rng = random.Random(23)
    cases = 0
    for _ in range(300):
        k = rng.choice((2, 3, 4, 6))
        blocks = rng.randint(1, 12 // k)
        n = k * blocks
        if n < 2:
            continue
        config = random_configuration(rng, n)
        fam = partition_lower_bound_witnesses(config, k)
        assert fam.count == binomial(n - 1, k - 1)
        assert len({w.indices for w in fam.members}) == fam.count
        for w in fam.members:
            assert ksum(config, w) >= 0
        cases += 1
    assert cases >= 250


def test_each_witness_is_shape_checked_once(monkeypatch):
    """The chosen blocks are plain tuples: `SubsetFamily.explicit` checks each
    one's shape once, as a `KSubset`, and nothing checks it again."""
    calls = []
    honest = mms.numerics._is_kset

    def counted(indices):
        calls.append(indices)
        return honest(indices)

    monkeypatch.setattr(mms.numerics, "_is_kset", counted)
    rng = random.Random(5)
    for n, k in ((6, 2), (9, 3), (12, 4), (10, 5), (12, 6)):
        config = random_configuration(rng, n)
        calls.clear()
        fam = partition_lower_bound_witnesses(config, k)
        assert fam.count == binomial(n - 1, k - 1)
        assert sorted(calls) == list(fam.index_tuples), (n, k)


def test_max_sum_tie_break_deterministic():
    # all-equal values: every block in a class ties; the lexicographically
    # smallest must win
    config = Configuration.from_values([0] * 6)
    fam = partition_lower_bound_witnesses(config, 3)
    expected = {min(cls) for cls in baranyai_partition(6, 3, 0)}
    assert {w.indices for w in fam.members} == expected


def block_sum_selection(config, k, seed, pick=max):
    """The per-class selection as first written, kept as the oracle:
    `pick(cls, key=block_sum)` over each class of the cached partition."""
    at = (0, *config.scaled).__getitem__

    def block_sum(block):
        return sum(map(at, block))

    return SubsetFamily.explicit(
        config.n, k, [pick(cls, key=block_sum) for cls in baranyai_partition(config.n, k, seed)])


def last_of_ties(blocks, key):
    """A mutant argmax that keeps the last of equal sums."""
    return max(reversed(blocks), key=key)


#: Every (n, k) with k | n, n <= 40 and C(n, k) within the partition limit.
SELECTION_INSTANCES = [(n, k) for k in range(1, 41) for n in range(k, 41, k)
                       if binomial(n, k) <= PARTITION_SIZE_LIMIT]


def test_class_maxima_match_the_block_sum_oracle():
    """The chosen blocks, read off one flat list of sums, equal the per-class
    `max(cls, key=block_sum)` on every instance, at seeds 0 and 1, on each
    pattern; a selection keeping the last of equal sums would differ."""
    assert len(SELECTION_INSTANCES) == 118
    rng = random.Random(31)
    mutant_differs = 0
    for n, k in SELECTION_INSTANCES:
        for seed in (0, 1):
            for pattern in PATTERNS:
                config = random_configuration(rng, n, pattern)
                fam = partition_lower_bound_witnesses(config, k, seed)
                assert fam == block_sum_selection(config, k, seed), (n, k, seed, pattern)
                mutant_differs += fam != block_sum_selection(config, k, seed, last_of_ties)
    assert mutant_differs >= 100, mutant_differs
