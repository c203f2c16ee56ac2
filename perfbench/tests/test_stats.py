"""The order-statistic and rank-correlation helpers on fixed inputs."""

import math

import pytest

from pbstats import percentile, ranks, spearman, summary

SAMPLE = [3, 1, 4, 1, 5, 9, 2, 6]


@pytest.mark.parametrize("q, expected", [
    (0, 1.0), (25, 1.75), (50, 3.5), (90, 6.9), (99, 8.79), (100, 9.0)])
def test_percentile_matches_linear_interpolation(q, expected):
    assert percentile(SAMPLE, q) == pytest.approx(expected)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(SAMPLE, 101)


def test_summary_uses_exclusive_quartiles():
    stats = summary(SAMPLE)
    assert (stats["q1"], stats["median"], stats["q3"]) == (1.25, 3.5, 5.75)
    assert stats["spread"] == pytest.approx((5.75 - 1.25) / 3.5)
    assert stats["n"] == 8


def test_ranks_share_ties():
    assert ranks([10, 20, 20, 5]) == [2.0, 3.5, 3.5, 1.0]


def test_spearman_fixed_values():
    assert spearman([1, 2, 3, 4, 5], [5, 6, 7, 8, 7]) == pytest.approx(
        0.8207826816681233)
    assert spearman([1, 2, 2, 3], [4, 3, 3, 1]) == pytest.approx(-1.0)
    assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))
