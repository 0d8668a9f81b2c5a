import random
import sys

import pytest

from mms.numerics import Configuration, KSubset, binomial, ksum
from mms.partition import (
    BaranyaiPartition,
    ParallelClass,
    PartitionSizeError,
    baranyai_partition,
    partition_lower_bound_witnesses,
    validate_partition,
)

from genconfig import random_configuration


def independent_check(p: BaranyaiPartition) -> bool:
    """Validator written from scratch for the tests; must agree with the
    packaged one."""
    seen = set()
    for cls in p.classes:
        points = [i for b in cls.blocks for i in b.indices]
        if sorted(points) != list(range(1, p.n + 1)):
            return False
        for b in cls.blocks:
            if len(b.indices) != p.k or b.indices in seen:
                return False
            seen.add(b.indices)
    return (
        len(seen) == binomial(p.n, p.k)
        and len(p.classes) == binomial(p.n - 1, p.k - 1)
    )


INSTANCES = [(4, 2), (6, 2), (8, 2), (14, 2), (3, 3), (6, 3), (9, 3), (12, 3),
             (8, 4), (12, 4), (10, 5), (12, 6), (7, 7)]


@pytest.mark.parametrize("n,k", INSTANCES)
def test_partitions_valid(n, k):
    p = baranyai_partition(n, k, seed=0)
    assert len(p.classes) == binomial(n - 1, k - 1)
    assert validate_partition(p)
    assert independent_check(p)


def test_single_class_for_n_equals_k():
    p = baranyai_partition(5, 5)
    assert len(p.classes) == 1
    assert p.classes[0].blocks[0].indices == (1, 2, 3, 4, 5)


def test_deterministic_given_seed():
    a = baranyai_partition.__wrapped__(9, 3, seed=42)
    b = baranyai_partition.__wrapped__(9, 3, seed=42)
    assert a == b
    c = baranyai_partition.__wrapped__(9, 3, seed=43)
    assert validate_partition(c)


def test_build_leaves_recursion_limit_unchanged():
    original = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
    try:
        baranyai_partition.cache_clear()
        assert validate_partition(baranyai_partition(12, 3))
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(original)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        baranyai_partition(7, 2)
    with pytest.raises(PartitionSizeError):
        baranyai_partition(60, 30)


def test_validator_catches_injected_faults():
    p = baranyai_partition(6, 3, seed=0)
    # duplicated block
    cls0 = p.classes[0]
    dup = BaranyaiPartition(
        n=6, k=3, classes=(cls0,) + p.classes[:-1])
    v = validate_partition(dup)
    assert not v and v.diagnostic
    # missing class
    short = BaranyaiPartition(n=6, k=3, classes=p.classes[:-1])
    v = validate_partition(short)
    assert not v and "classes" in v.diagnostic
    # block of the wrong size
    broken_cls = ParallelClass(blocks=(
        KSubset((1, 2)), KSubset((3, 4, 5))))
    v = validate_partition(BaranyaiPartition(n=6, k=3, classes=(broken_cls,) * 10))
    assert not v
    # non-covering class
    overlap = ParallelClass(blocks=(KSubset((1, 2, 3)), KSubset((1, 5, 6))))
    v = validate_partition(
        BaranyaiPartition(n=6, k=3, classes=(overlap,) + p.classes[1:]))
    assert not v


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


def test_max_sum_tie_break_deterministic():
    # all-equal values: every block in a class ties; the lexicographically
    # smallest must win
    config = Configuration.from_values([0] * 6)
    fam = partition_lower_bound_witnesses(config, 3)
    p = baranyai_partition(6, 3, 0)
    expected = {min(cls.blocks, key=lambda b: b.indices).indices for cls in p.classes}
    assert {w.indices for w in fam.members} == expected
