import pytest

from mms.constructions import (
    counterexample_beats_target,
    mirror_config,
    mms_counterexample,
    star_config,
)
from mms.numerics import binomial, count_nonneg_ksums


def test_star_examples():
    assert star_config(8, 3).predicted_count == 21
    assert star_config(5, 5).predicted_count == 1
    assert star_config(10, 2).predicted_count == 9
    # brute-force confirmation of the derived value
    count = count_nonneg_ksums(star_config(10, 2).config, 2)
    assert count == 9


def test_mirror_examples():
    assert mirror_config(8, 3).predicted_count == binomial(7, 3) == 35
    assert mirror_config(6, 2).predicted_count == 10
    count = count_nonneg_ksums(mirror_config(6, 2).config, 2)
    assert count == 10
    for k in range(2, 9):
        assert mirror_config(2 * k, k).predicted_count == binomial(2 * k - 1, k - 1)
    with pytest.raises(ValueError):
        mirror_config(3, 3)  # full set sums to zero; formula needs n > k


def test_counterexample_examples():
    c3 = mms_counterexample(3)
    assert c3.n == 10 and c3.predicted_count == 35
    c5 = mms_counterexample(5)
    assert c5.n == 16 and c5.predicted_count == binomial(13, 5) == 1287
    c2 = mms_counterexample(2)
    assert c2.predicted_count == 6 == binomial(6, 1)
    with pytest.raises(ValueError):
        mms_counterexample(1)


def test_counterexample_beats_target_examples():
    assert not counterexample_beats_target(2)
    assert counterexample_beats_target(3)  # 35 < 36
    assert counterexample_beats_target(5)  # 1287 < 1365


def test_beats_target_agrees_with_algebraic_simplification():
    for k in range(2, 51):
        assert counterexample_beats_target(k) == ((k - 1) * (k - 2) > 0)


def test_all_generators_sum_to_zero():
    for k in range(2, 6):
        for n in range(k, 17):
            assert star_config(n, k).config.total_sum() == 0
            if n > k:
                assert mirror_config(n, k).config.total_sum() == 0
        assert mms_counterexample(k).config.total_sum() == 0


def test_predictions_match_enumeration():
    for k in range(2, 6):
        for n in range(k, 17):
            star = star_config(n, k)
            count = count_nonneg_ksums(star.config, k)
            assert count == star.predicted_count, ("star", n, k)
            if n > k:
                mirror = mirror_config(n, k)
                count = count_nonneg_ksums(mirror.config, k)
                assert count == mirror.predicted_count, ("mirror", n, k)
        ce = mms_counterexample(k)
        count = count_nonneg_ksums(ce.config, k)
        assert count == ce.predicted_count, ("counterexample", k)
