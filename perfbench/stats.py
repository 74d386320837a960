"""Summary statistics for the benchmark's timings.

A timing is reported as its median and one tail percentile.  A
percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it, so the tail is never an extrapolation from a handful of
points.

Percentiles are Harrell–Davis estimates: a Beta-weighted average of all
order statistics rather than one or two of them.  The compile and tune
samples mix kernels whose costs differ several-fold, so the sample
quantile sits in a gap between kernels and jumps with noise; the
weighted estimate moves smoothly with every sample.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie strictly beyond a reported percentile
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_needed(q: float) -> int:
    """Smallest sample count for which percentile ``q`` is reportable."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile {q!r} is not inside (0, 1)")
    # (1 - q) * n >= MIN_BEYOND, computed without float round-up (0.1 * 100
    # must give exactly 100, not 101).
    return math.ceil(round(MIN_BEYOND / (1.0 - q), 9))


def percentile(values: list[float], q: float) -> float:
    """The Harrell–Davis estimate of the ``q`` quantile (0 < q < 1).

    Raises :class:`TooFewSamples` unless ``(1 - q) * len(values)`` is at
    least :data:`MIN_BEYOND`.  ``q = 0.5`` is the median and needs
    ``2 * MIN_BEYOND`` samples.
    """
    needed = samples_needed(q)
    if len(values) < needed:
        raise TooFewSamples(
            f"p{round(q * 100, 3):g} needs {needed} samples, got {len(values)}"
        )
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(v * (cdf[i + 1] - cdf[i]) for i, v in enumerate(ordered))


def median(values: list[float]) -> float:
    """Median of any non-empty sample (no tail requirement)."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    return statistics.median(values)


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # The continued fraction converges fast on this side of the mean.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c, h = 1.0, d
    for m in range(1, 1000):
        m2 = 2 * m
        for term in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h
