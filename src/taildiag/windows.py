"""Overlapping fixed-width windows over a run and per-window aggregates.

Window membership is half-open [start, end) so boundary samples are
never double counted across tiled windows. Both layers are aggregated
column-wise over the whole grid at once, into one WindowTable whose
columns are those of the windows CSV; a window with too few samples on
either side is left out of the join (insufficient data is not an
error).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import stats
from .errors import (
    InvalidSpecError,
    RunTooShortError,
    SplitOutOfRangeError,
    check_fields,
)
from .ingest import Run, _Table

log = logging.getLogger(__name__)

# Tolerance used when a duration is an exact multiple of the stride, so
# float dust cannot drop the last window.
_GRID_EPS = 1e-9

# Labels of the phases before and after a split.
PHASE_LABELS = ("LOS", "People")

# Largest window grid, and largest total of samples over the joined
# windows (both layers), that a window spec may ask for. The kernel
# holds about 30 B per member and make_windows about 110 B per window,
# so these keep one window build under about 700 MB; a tiny stride
# fails cleanly here instead of exhausting memory.
MAX_WINDOWS = 1_000_000
MAX_MEMBERS = 20_000_000


@dataclass(frozen=True)
class WindowSpec:
    width_s: float = 10.0
    stride_s: float = 5.0
    min_latency_samples: int = 5
    min_sched_samples: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.width_s <= 0 or self.stride_s <= 0:
            raise InvalidSpecError("window width and stride must be positive")
        if self.stride_s > self.width_s:
            raise InvalidSpecError(
                f"stride {self.stride_s} exceeds width {self.width_s}")
        if self.min_latency_samples < 1 or self.min_sched_samples < 1:
            raise InvalidSpecError("minimum sample counts must be >= 1")


@dataclass(frozen=True, eq=False)
class WindowTable(_Table):
    """The joined windows of a run, one column per aggregate, in start
    order; the columns are those of the windows CSV. An MCS or SNR
    median is NaN where no snapshot of the window carries the field."""

    start_s: np.ndarray
    lat_n: np.ndarray
    lat_p95_ms: np.ndarray
    lat_median_ms: np.ndarray
    lat_exceed_100ms: np.ndarray
    sched_n: np.ndarray
    bler_mean: np.ndarray
    bler_p95: np.ndarray
    mcs_median: np.ndarray
    snr_median_db: np.ndarray

    INTEGRAL: ClassVar[tuple[str, ...]] = ("lat_n", "sched_n")


def make_windows(run_duration_s: float, spec: WindowSpec) -> list[tuple[float, float]]:
    """Window grid over [0, run_duration_s]: starts at multiples of the
    stride, only fully contained windows, count floor((T-w)/s)+1.
    A count above MAX_WINDOWS raises InvalidSpecError."""
    if run_duration_s < spec.width_s:
        raise RunTooShortError(
            f"run of {run_duration_s}s shorter than window width {spec.width_s}s")
    steps = (run_duration_s - spec.width_s) / spec.stride_s + _GRID_EPS
    count = math.floor(steps) + 1 if math.isfinite(steps) else steps
    if count > MAX_WINDOWS:
        raise InvalidSpecError(
            f"window width {spec.width_s}s and stride {spec.stride_s}s make "
            f"{count} windows over {run_duration_s}s; the limit is {MAX_WINDOWS}")
    return [(k * spec.stride_s, k * spec.stride_s + spec.width_s)
            for k in range(count)]


def _segments(lo: np.ndarray, n: np.ndarray,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Members values[lo[k]:lo[k] + n[k]] of every window k, each
    segment sorted ascending (NaN last), and the segment offsets."""
    starts = np.cumsum(n) - n
    seg = np.repeat(np.arange(n.size), n)
    # Sort (window, rank of value) keys, the rank from one stable argsort
    # of the column: each segment comes out ascending, ties in time order.
    order = np.argsort(values, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    key = np.sort(seg * order.size + rank[np.arange(seg.size) - starts[seg] + lo[seg]])
    return values[order[key - seg * order.size]], starts


def _means(lo: np.ndarray, n: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.mean of every slice values[lo[k]:lo[k] + n[k]], as one 2-D
    np.mean per slice length. Its per-row pairwise sum keeps the bits
    of np.mean on each slice, which a prefix sum or reduceat does not."""
    out = np.empty(n.size)
    for length in np.unique(n).tolist():
        k = np.flatnonzero(n == length)
        out[k] = np.mean(values[lo[k, None] + np.arange(length)], axis=1)
    return out


def _medians(lo: np.ndarray, n: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-window median over the present (non-NaN) values; NaN where
    a window has none."""
    ordered, starts = _segments(lo, n, values)
    present = np.concatenate(([0], np.cumsum(~np.isnan(ordered))))
    k = present[starts + n] - present[starts]
    med = stats.segment_percentiles(ordered, starts, np.maximum(k, 1), 0.5)
    return np.where(k > 0, med, np.nan)


def build_joined_windows(run: Run, spec: WindowSpec) -> WindowTable:
    """Aggregate both layers over every grid window and keep the windows
    with at least spec.min_latency_samples latency samples and
    spec.min_sched_samples scheduler snapshots, in start order.

    Scheduler mcs/snr medians are taken over the snapshots where the
    field is present, NaN if it is absent everywhere in the window.
    Reads the run's time-sorted columns as they are. More than
    MAX_MEMBERS samples over the joined windows raise InvalidSpecError.
    """
    bounds = np.array(make_windows(run_duration(run), spec), dtype=float).reshape(-1, 2)
    lat_t, rtt = run.latency.t_s, run.latency.rtt_ms
    sched = run.scheduler
    sched_t, bler, mcs, snr = sched.t_s, sched.dl_bler, sched.dl_mcs, sched.snr_db
    lat_lo, lat_hi = (np.searchsorted(lat_t, bounds[:, i]) for i in (0, 1))
    sched_lo, sched_hi = (np.searchsorted(sched_t, bounds[:, i]) for i in (0, 1))
    keep = np.flatnonzero((lat_hi - lat_lo >= spec.min_latency_samples)
                          & (sched_hi - sched_lo >= spec.min_sched_samples))
    lat_lo, lat_hi = lat_lo[keep], lat_hi[keep]
    sched_lo, sched_hi = sched_lo[keep], sched_hi[keep]
    lat_n, sched_n = lat_hi - lat_lo, sched_hi - sched_lo
    members = int(lat_n.sum() + sched_n.sum())
    if members > MAX_MEMBERS:
        raise InvalidSpecError(
            f"window width {spec.width_s}s and stride {spec.stride_s}s put "
            f"{members} samples into {keep.size} windows; "
            f"the limit is {MAX_MEMBERS}")

    rtt_sorted, lat_starts = _segments(lat_lo, lat_n, rtt)
    bler_sorted, sched_starts = _segments(sched_lo, sched_n, bler)
    over = np.concatenate(([0], np.cumsum(rtt > stats.EXCEED_FAST_MS)))
    return WindowTable(
        start_s=bounds[keep, 0],
        lat_n=lat_n,
        lat_p95_ms=stats.segment_percentiles(rtt_sorted, lat_starts, lat_n, 0.95),
        lat_median_ms=stats.segment_percentiles(rtt_sorted, lat_starts, lat_n, 0.5),
        lat_exceed_100ms=(over[lat_hi] - over[lat_lo]) / lat_n,
        sched_n=sched_n,
        bler_mean=_means(sched_lo, sched_n, bler),
        bler_p95=stats.segment_percentiles(bler_sorted, sched_starts, sched_n, 0.95),
        mcs_median=_medians(sched_lo, sched_n, mcs),
        snr_median_db=_medians(sched_lo, sched_n, snr))


def run_duration(run: Run) -> float:
    """Effective duration: the nominal duration or the last observed
    sample time, whichever is later."""
    last = run.meta.nominal_duration_s
    for trace in (run.latency, run.scheduler):
        if len(trace):
            last = max(last, float(trace.t_s[-1]))
    return last


def split_phases(run: Run, split_s: float | None = None) -> tuple[Run, Run]:
    """Partition a run at split_s (default: half the nominal duration)
    into two subruns with its metadata, the phases PHASE_LABELS name:
    t_s < split vs t_s >= split."""
    if split_s is None:
        split_s = run.meta.nominal_duration_s / 2.0
    if not 0.0 < split_s < run_duration(run):
        raise SplitOutOfRangeError(
            f"split at {split_s}s outside (0, {run_duration(run)}s)")
    lat_k = int(np.searchsorted(run.latency.t_s, split_s))
    sched_k = int(np.searchsorted(run.scheduler.t_s, split_s))
    lat_a, lat_b = run.latency[:lat_k], run.latency[lat_k:]
    sched_a, sched_b = run.scheduler[:sched_k], run.scheduler[sched_k:]
    for label, lat in zip(PHASE_LABELS, (lat_a, lat_b)):
        if not len(lat):
            log.warning("phase %r of run %s has no latency samples",
                        label, run.meta.run_id)
    return (Run(meta=run.meta, latency=lat_a, scheduler=sched_a),
            Run(meta=run.meta, latency=lat_b, scheduler=sched_b))
