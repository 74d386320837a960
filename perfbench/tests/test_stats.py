import math

import pytest

from perfbench import stats


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_needed(0.9) == 100
    assert stats.samples_needed(0.99) == 1000
    assert stats.samples_needed(0.5) == 20
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([float(v) for v in range(99)], 0.9)
    stats.percentile([float(v) for v in range(100)], 0.9)


def test_p99_refused_on_a_sample_that_supports_p90():
    values = [float(v) for v in range(500)]
    stats.percentile(values, 0.9)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values, 0.99)


def test_percentile_of_a_symmetric_sample_is_its_middle():
    values = [float(v) for v in reversed(range(1, 21))]
    assert stats.percentile(values, 0.5) == pytest.approx(10.5)
    assert stats.percentile([3.0] * 40, 0.5) == pytest.approx(3.0)


def test_percentile_rises_with_q_and_stays_inside_the_sample():
    values = [math.exp(v / 37.0) for v in range(300)]
    estimates = [stats.percentile(values, q) for q in (0.5, 0.75, 0.9)]
    assert estimates == sorted(estimates)
    assert min(values) < estimates[0] and estimates[-1] < max(values)
    # on smooth data it lands on the order statistic of rank q * (n + 1)
    assert estimates[2] == pytest.approx(math.exp((0.9 * 301 - 1) / 37.0), rel=0.01)


def test_beta_cdf_known_values():
    assert stats.beta_cdf(0.3, 1.0, 1.0) == pytest.approx(0.3)
    assert stats.beta_cdf(0.3, 2.5, 1.0) == pytest.approx(0.3 ** 2.5)
    assert stats.beta_cdf(0.5, 700.0, 700.0) == pytest.approx(0.5)
    assert stats.beta_cdf(0.0, 3.0, 4.0) == 0.0
    assert stats.beta_cdf(1.0, 3.0, 4.0) == 1.0
    # I_x(a, b) = 1 - I_{1-x}(b, a)
    assert stats.beta_cdf(0.8, 90.0, 11.0) == pytest.approx(
        1.0 - stats.beta_cdf(0.2, 11.0, 90.0)
    )
