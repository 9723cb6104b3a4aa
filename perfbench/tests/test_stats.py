import pytest

from perfbench.stats import TooFewSamples, percentile


def test_median_needs_one_sample():
    assert percentile([3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 10.0], 50) == 2.0


def test_p90_refused_below_100_samples():
    with pytest.raises(TooFewSamples, match="p90 needs >= 100"):
        percentile([1.0] * 99, 90)
    assert percentile([float(i) for i in range(1, 101)], 90) == 90.0


def test_p99_refused_below_1000_samples():
    with pytest.raises(TooFewSamples, match="p99 needs >= 1000"):
        percentile([1.0] * 999, 99)
    assert percentile([float(i) for i in range(1, 1001)], 99) == 990.0


def test_no_samples_and_bad_percentiles_refused():
    with pytest.raises(TooFewSamples):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 100)
