"""Overlapping fixed-width windows over a run and per-window aggregates.

Window membership is half-open [start, end) so boundary samples are
never double counted across tiled windows. Both layers are aggregated
column-wise over the whole grid at once; a window with too few samples
on either side is left out of the join (insufficient data is not an
error).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import stats
from .errors import InvalidSpecError, RunTooShortError, SplitOutOfRangeError
from .ingest import Run

log = logging.getLogger(__name__)

# Tolerance used when a duration is an exact multiple of the stride, so
# float dust cannot drop the last window.
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class WindowSpec:
    width_s: float = 10.0
    stride_s: float = 5.0
    min_latency_samples: int = 5
    min_sched_samples: int = 1

    def __post_init__(self):
        if self.width_s <= 0 or self.stride_s <= 0:
            raise InvalidSpecError("window width and stride must be positive")
        if self.stride_s > self.width_s:
            raise InvalidSpecError(
                f"stride {self.stride_s} exceeds width {self.width_s}")
        if self.min_latency_samples < 1 or self.min_sched_samples < 1:
            raise InvalidSpecError("minimum sample counts must be >= 1")


@dataclass(frozen=True)
class LatencyWindow:
    start_s: float
    end_s: float
    n: int
    p95_ms: float
    median_ms: float
    exceed_100ms: float


@dataclass(frozen=True)
class SchedWindow:
    start_s: float
    end_s: float
    n: int
    bler_mean: float
    bler_p95: float
    mcs_median: float | None
    snr_median_db: float | None


@dataclass(frozen=True)
class JoinedWindow:
    start_s: float
    latency: LatencyWindow
    sched: SchedWindow


def make_windows(run_duration_s: float, spec: WindowSpec) -> list[tuple[float, float]]:
    """Window grid over [0, run_duration_s]: starts at multiples of the
    stride, only fully contained windows, count floor((T-w)/s)+1."""
    if run_duration_s < spec.width_s:
        raise RunTooShortError(
            f"run of {run_duration_s}s shorter than window width {spec.width_s}s")
    count = math.floor((run_duration_s - spec.width_s) / spec.stride_s + _GRID_EPS) + 1
    return [(k * spec.stride_s, k * spec.stride_s + spec.width_s)
            for k in range(count)]


def _column(records, name: str) -> np.ndarray:
    # Absent optional fields become NaN.
    return np.array([np.nan if v is None else v
                     for v in (getattr(r, name) for r in records)], dtype=float)


def _time_sorted(records, *names: str) -> tuple[np.ndarray, ...]:
    """t_s and the named value columns, in stable time order."""
    t = np.array([r.t_s for r in records], dtype=float)
    order = np.argsort(t, kind="stable")
    return (t[order],) + tuple(_column(records, n)[order] for n in names)


def _segments(lo: np.ndarray, n: np.ndarray,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Members values[lo[k]:lo[k] + n[k]] of every window k, each
    segment sorted ascending (NaN last), and the segment offsets."""
    starts = np.cumsum(n) - n
    seg = np.repeat(np.arange(n.size), n)
    members = values[np.arange(seg.size) - starts[seg] + lo[seg]]
    return members[np.lexsort((members, seg))], starts


def _medians(lo: np.ndarray, n: np.ndarray, values: np.ndarray) -> list[float | None]:
    """Per-window median over the present (non-NaN) values; None where
    a window has none."""
    ordered, starts = _segments(lo, n, values)
    present = np.concatenate(([0], np.cumsum(~np.isnan(ordered))))
    k = present[starts + n] - present[starts]
    med = stats.segment_percentiles(ordered, starts, np.maximum(k, 1), 0.5)
    return [m if c else None for m, c in zip(med.tolist(), k.tolist())]


def build_joined_windows(run: Run, spec: WindowSpec) -> list[JoinedWindow]:
    """Aggregate both layers over every grid window and keep the windows
    with at least spec.min_latency_samples latency samples and
    spec.min_sched_samples scheduler snapshots, in start order.

    Scheduler mcs/snr medians are taken over the snapshots where the
    field is present, None if it is absent everywhere in the window.
    """
    grid = make_windows(run_duration(run), spec)
    bounds = np.array(grid, dtype=float).reshape(-1, 2)
    lat_t, rtt = _time_sorted(run.latency, "rtt_ms")
    sched_t, bler, mcs, snr = _time_sorted(run.scheduler, "dl_bler", "dl_mcs", "snr_db")
    lat_lo, lat_hi = (np.searchsorted(lat_t, bounds[:, i]) for i in (0, 1))
    sched_lo, sched_hi = (np.searchsorted(sched_t, bounds[:, i]) for i in (0, 1))
    keep = np.flatnonzero((lat_hi - lat_lo >= spec.min_latency_samples)
                          & (sched_hi - sched_lo >= spec.min_sched_samples))
    lat_lo, lat_hi = lat_lo[keep], lat_hi[keep]
    sched_lo, sched_hi = sched_lo[keep], sched_hi[keep]
    lat_n, sched_n = lat_hi - lat_lo, sched_hi - sched_lo

    rtt_sorted, lat_starts = _segments(lat_lo, lat_n, rtt)
    bler_sorted, sched_starts = _segments(sched_lo, sched_n, bler)
    over = np.concatenate(([0], np.cumsum(rtt > stats.EXCEED_FAST_MS)))
    exceed = (over[lat_hi] - over[lat_lo]) / lat_n
    columns = zip(
        keep.tolist(), lat_n.tolist(),
        stats.segment_percentiles(rtt_sorted, lat_starts, lat_n, 0.95).tolist(),
        stats.segment_percentiles(rtt_sorted, lat_starts, lat_n, 0.5).tolist(),
        exceed.tolist(), sched_n.tolist(),
        # np.mean per slice, not a prefix sum: keeps its pairwise-summed bits
        [float(np.mean(bler[lo:hi])) for lo, hi in zip(sched_lo, sched_hi)],
        stats.segment_percentiles(bler_sorted, sched_starts, sched_n, 0.95).tolist(),
        _medians(sched_lo, sched_n, mcs), _medians(sched_lo, sched_n, snr))
    joined = []
    for k, ln, p95, med, exc, sn, bmean, bp95, mcs_med, snr_med in columns:
        start, end = grid[k]
        joined.append(JoinedWindow(
            start_s=start,
            latency=LatencyWindow(start_s=start, end_s=end, n=ln, p95_ms=p95,
                                  median_ms=med, exceed_100ms=exc),
            sched=SchedWindow(start_s=start, end_s=end, n=sn, bler_mean=bmean,
                              bler_p95=bp95, mcs_median=mcs_med,
                              snr_median_db=snr_med)))
    return joined


def run_duration(run: Run) -> float:
    """Effective duration: the nominal duration or the last observed
    sample time, whichever is later."""
    last = run.meta.nominal_duration_s
    if run.latency:
        last = max(last, run.latency[-1].t_s)
    if run.scheduler:
        last = max(last, run.scheduler[-1].t_s)
    return last


def split_phases(run: Run, split_s: float | None = None,
                 labels: tuple[str, str] = ("LOS", "People")) -> tuple[Run, Run]:
    """Partition a run at split_s (default: half the nominal duration)
    into two phase-labeled subruns: t_s < split vs t_s >= split."""
    if split_s is None:
        split_s = run.meta.nominal_duration_s / 2.0
    if not 0.0 < split_s < run_duration(run):
        raise SplitOutOfRangeError(
            f"split at {split_s}s outside (0, {run_duration(run)}s)")
    lat_a = tuple(s for s in run.latency if s.t_s < split_s)
    lat_b = tuple(s for s in run.latency if s.t_s >= split_s)
    sched_a = tuple(s for s in run.scheduler if s.t_s < split_s)
    sched_b = tuple(s for s in run.scheduler if s.t_s >= split_s)
    for label, lat in ((labels[0], lat_a), (labels[1], lat_b)):
        if not lat:
            log.warning("phase %r of run %s has no latency samples",
                        label, run.meta.run_id)
    meta_a = replace(run.meta, phase=labels[0])
    meta_b = replace(run.meta, phase=labels[1])
    return (Run(meta=meta_a, latency=lat_a, scheduler=sched_a),
            Run(meta=meta_b, latency=lat_b, scheduler=sched_b))
