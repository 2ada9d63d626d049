"""Tail-aware descriptive statistics and distribution comparison.

Percentiles use linear interpolation between closest order statistics
(rank h = (n-1)*q on the sorted data), so q=0 is the minimum, q=0.5 the
median and q=1 the maximum. Exceedance probabilities use a strict ">"
so a sample exactly at the threshold does not count as an excursion.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptySequenceError,
    LengthMismatchError,
    NonFiniteError,
    TooFewPointsError,
)

# Fixed reporting thresholds: 100 ms (interactive budget) and 1 s (stall).
EXCEED_FAST_MS = 100.0
EXCEED_STALL_MS = 1000.0
DEFAULT_OUTLIER_MS = 1000.0


class LatencySummary(NamedTuple):
    """Per-run latency digest; all rates are fractions in [0, 1]."""

    n: int
    median_ms: float
    p95_ms: float
    mean_ms: float
    exceed_100ms: float
    exceed_1s: float
    outlier_rate: float


class KsResult(NamedTuple):
    n1: int
    n2: int
    d_stat: float
    p_value: float


def segment_percentiles(sorted_values: np.ndarray, starts: np.ndarray,
                        counts: np.ndarray, q: float) -> np.ndarray:
    """Percentile at q of every segment sorted_values[start:start + count].

    Each segment must be sorted ascending and non-empty. The rank is
    h = (count - 1) * q within the segment; the result interpolates
    linearly between the order statistics at floor(h) and floor(h) + 1,
    and is the segment maximum when floor(h) is the last position.
    """
    h = (counts - 1) * q
    lo = np.floor(h)
    frac = h - lo
    last = counts - 1
    lo = np.minimum(lo.astype(np.intp), last)
    below = sorted_values[starts + lo]
    above = sorted_values[starts + np.minimum(lo + 1, last)]
    return np.where(lo >= last, below, below + frac * (above - below))


def _finite(values: Sequence[float], what: str) -> np.ndarray:
    """`values` as a float64 array; NonFiniteError if one is NaN or
    infinite, EmptySequenceError if there are none."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptySequenceError(f"{what} of an empty sequence")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} of a sequence holding NaN or an infinity")
    return arr


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of `values` at quantile q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    arr = _finite(values, "percentile")
    return float(segment_percentiles(np.sort(arr), np.zeros(1, dtype=np.intp),
                                     np.array([arr.size]), q)[0])


def exceedance_prob(values: Sequence[float], threshold: float) -> float:
    """Fraction of samples strictly above `threshold`."""
    arr = _finite(values, "exceedance")
    return int(np.count_nonzero(arr > threshold)) / int(arr.size)


def summary_stats(values: Sequence[float],
                  outlier_threshold_ms: float = DEFAULT_OUTLIER_MS) -> LatencySummary:
    """Latency digest of one run: median, p95, mean, exceedances, outlier rate."""
    arr = _finite(values, "summary")
    return LatencySummary(
        n=int(arr.size),
        median_ms=percentile(arr, 0.5),
        p95_ms=percentile(arr, 0.95),
        mean_ms=float(np.mean(arr)),
        exceed_100ms=exceedance_prob(arr, EXCEED_FAST_MS),
        exceed_1s=exceedance_prob(arr, EXCEED_STALL_MS),
        outlier_rate=exceedance_prob(arr, outlier_threshold_ms),
    )


def ks_pvalue(d: float, n1: int, n2: int) -> float:
    """Asymptotic two-sided KS p-value for statistic `d` at sizes n1, n2.

    Evaluates Q(lam) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2) with
    lam = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * d and ne = n1*n2/(n1+n2).
    The series is truncated once a term drops below 1e-12 or after 100
    terms. Below lam ~ 0.037 a 100-term truncation is no longer accurate,
    but there Q is 1 to double precision, so 1.0 is returned directly.
    """
    ne = n1 * n2 / (n1 + n2)
    sqrt_ne = math.sqrt(ne)
    lam = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d
    if lam < 0.04:
        return 1.0
    ex = -2.0 * lam * lam
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(ex * k * k)
        total += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    The statistic is the largest ECDF gap over all sample points of the
    pooled data; the p-value comes from `ks_pvalue`.
    """
    xa = np.sort(_finite(a, "KS test"))
    xb = np.sort(_finite(b, "KS test"))
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / xa.size
    cdf_b = np.searchsorted(xb, pooled, side="right") / xb.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    return KsResult(n1=int(xa.size), n2=int(xb.size), d_stat=d,
                    p_value=ks_pvalue(d, int(xa.size), int(xb.size)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # 1-based ranks; ties get the mean of the rank positions they span.
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True, equal_nan=False)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    return ((first + last) / 2.0 + 1.0)[inverse]


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Spearman rank correlation with average ranks for ties.

    Returns None (rendered "N/A" in reports) when either input has zero
    rank variance, i.e. is constant.

    The three sums are exact for fewer than 300,000 points, so rho is
    the same in any summation order: ranks are multiples of 1/2 with
    mean (n+1)/2, each product of deviations is a multiple of 1/4, and
    each partial sum stays below n**3/12 < 2**51.
    """
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.size != ay.size:
        raise LengthMismatchError(f"length mismatch: {ax.size} vs {ay.size}")
    if ax.size < 2:
        raise TooFewPointsError("rank correlation needs at least 2 points")
    rx = _average_ranks(ax)
    ry = _average_ranks(ay)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return None
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    rho = float(np.sum(dx * dy) / math.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))
    return min(1.0, max(-1.0, rho))
