"""Overlapping fixed-width windows over a run and per-window aggregates.

Window membership is half-open [start, end) so boundary samples are
never double counted across tiled windows. Both layers are aggregated
column-wise over the whole grid at once, into one WindowTable whose
columns are those of the windows CSV; a window with too few samples on
either side is left out of the join (insufficient data is not an
error).
"""

from __future__ import annotations

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
from .model import Run, _Table

# Tolerance used when a duration is an exact multiple of the stride, so
# float dust cannot drop the last window.
_GRID_EPS = 1e-9

# Labels of the phases before and after a split.
PHASE_LABELS = ("LOS", "People")

# Largest window grid, and largest total of samples over the joined
# windows (both layers), that a window spec may ask for. The kernel holds
# 16 B per member on the 24 h modem run (tracemalloc), 32 B at most if
# nearly all are snapshots, and make_windows 16 B per window: one build
# stays under about 800 MB, and a tiny stride fails cleanly here.
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


class WindowTable(_Table):
    """The joined windows of a run, one column per aggregate, in start
    order; the columns are those of the windows CSV. An MCS or SNR
    median is NaN where no snapshot of the window carries the field."""

    __slots__ = ("start_s", "lat_n", "lat_p95_ms", "lat_median_ms", "lat_exceed_100ms",
                 "sched_n", "bler_mean", "bler_p95", "mcs_median", "snr_median_db")
    INTEGRAL: ClassVar[tuple[str, ...]] = ("lat_n", "sched_n")


def make_windows(run_duration_s: float, spec: WindowSpec) -> np.ndarray:
    """Window grid over [0, run_duration_s] as a (count, 2) array of
    (start, end) rows: starts at multiples of the stride, only fully
    contained windows, count floor((T-w)/s)+1. A count above MAX_WINDOWS
    raises InvalidSpecError, which gives the count to 7 significant
    digits."""
    if run_duration_s < spec.width_s:
        raise RunTooShortError(
            f"run of {run_duration_s}s shorter than window width {spec.width_s}s")
    steps = (run_duration_s - spec.width_s) / spec.stride_s + _GRID_EPS
    count = math.floor(steps) + 1 if math.isfinite(steps) else steps
    if count > MAX_WINDOWS:
        raise InvalidSpecError(
            f"window width {spec.width_s}s and stride {spec.stride_s}s make "
            f"{count:.7g} windows over {run_duration_s}s; the limit is {MAX_WINDOWS}")
    starts = np.arange(count, dtype=float) * spec.stride_s
    return np.column_stack((starts, starts + spec.width_s))


def _sorted_members(lo: np.ndarray, n: np.ndarray, columns, mean=None):
    """Each window k's members columns[i][lo[k]:lo[k] + n[k]], sorted
    ascending (NaN last), in one flat array per column, and each
    window's offset there. The windows of one slice length are one block
    per column, gathered with one member index and sorted by row. Ties
    differ at most as +0.0 and -0.0, which segment_percentiles maps to
    the same bits in either order. mean[k] (if given) is np.mean of the
    unsorted row of columns[0]: its pairwise sum keeps np.mean's bits."""
    order = np.argsort(n, kind="stable")
    offsets = (np.cumsum(n[order]) - n[order])[np.argsort(order)]
    flats = [np.empty(int(n.sum())) for _ in columns]
    lengths, first = np.unique(n[order], return_index=True)
    for length, k, start in zip(lengths.tolist(), np.split(order, first[1:]),
                                offsets[order[first]].tolist()):
        members = lo[k, None] + np.arange(length)
        for column, flat in zip(columns, flats):
            block = flat[start:start + members.size].reshape(members.shape)
            np.take(column, members, out=block, mode="clip")  # in range: unbuffered
            if mean is not None and flat is flats[0]:
                mean[k] = np.mean(block, axis=1)
            block.sort(axis=1)
    return offsets, flats


def _counts(mask: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Number of true values in every slice mask[lo[k]:hi[k]]."""
    total = np.concatenate(([0], np.cumsum(mask)))
    return total[hi] - total[lo]


def _median_of_present(rows, at, column, lo, hi) -> np.ndarray:
    """Median of the non-NaN members column[lo[k]:hi[k]] of every window
    k, the first of its sorted members rows[at[k]:]; NaN if it has none."""
    present = _counts(~np.isnan(column), lo, hi)
    med = stats.segment_percentiles(rows, at, np.maximum(present, 1), 0.5)
    return np.where(present > 0, med, np.nan)


def build_joined_windows(run: Run, spec: WindowSpec) -> WindowTable:
    """Aggregate both layers over every grid window and keep the windows
    with at least spec.min_latency_samples latency samples and
    spec.min_sched_samples scheduler snapshots, in start order.

    Scheduler mcs/snr medians are taken over the snapshots where the
    field is present, NaN if it is absent everywhere in the window.
    Reads the run's time-sorted columns as they are. More than
    MAX_MEMBERS samples over the joined windows raise InvalidSpecError.
    """
    bounds = make_windows(run_duration(run), spec)
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
    # Counted first, so the prefix sum's temporaries never meet the rows.
    exceed = _counts(rtt > stats.EXCEED_FAST_MS, lat_lo, lat_hi) / lat_n
    lat_at, (rtt_rows,) = _sorted_members(lat_lo, lat_n, (rtt,))
    bler_mean = np.empty(keep.size)
    at, (bler_rows, mcs_rows, snr_rows) = _sorted_members(
        sched_lo, sched_n, (bler, mcs, snr), bler_mean)
    return WindowTable(
        start_s=bounds[keep, 0], lat_n=lat_n,
        lat_p95_ms=stats.segment_percentiles(rtt_rows, lat_at, lat_n, 0.95),
        lat_median_ms=stats.segment_percentiles(rtt_rows, lat_at, lat_n, 0.5),
        lat_exceed_100ms=exceed, sched_n=sched_n, bler_mean=bler_mean,
        bler_p95=stats.segment_percentiles(bler_rows, at, sched_n, 0.95),
        mcs_median=_median_of_present(mcs_rows, at, mcs, sched_lo, sched_hi),
        snr_median_db=_median_of_present(snr_rows, at, snr, sched_lo, sched_hi))


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
    t_s < split vs t_s >= split. Either may be empty."""
    if split_s is None:
        split_s = run.meta.nominal_duration_s / 2.0
    if not 0.0 < split_s < run_duration(run):
        raise SplitOutOfRangeError(
            f"split at {split_s}s outside (0, {run_duration(run)}s)")
    lat_k = int(np.searchsorted(run.latency.t_s, split_s))
    sched_k = int(np.searchsorted(run.scheduler.t_s, split_s))
    return (Run(meta=run.meta, latency=run.latency[:lat_k], scheduler=run.scheduler[:sched_k]),
            Run(meta=run.meta, latency=run.latency[lat_k:], scheduler=run.scheduler[sched_k:]))
