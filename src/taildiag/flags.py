"""Per-window degradation flags and cross-layer coupling summaries.

A window is flagged when latency-tail evidence (window p95 above a
threshold) and scheduler evidence (window BLER mean above a threshold)
co-occur; the AND rule is the default, OR exists for exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import stats
from .errors import (
    EmptyPhaseError,
    EmptySequenceError,
    InvalidSpecError,
    check_fields,
)
from .model import Run
from .windows import PHASE_LABELS, WindowTable, split_phases

COMBINE_AND = "AND"
COMBINE_OR = "OR"


@dataclass(frozen=True)
class FlagPolicy:
    lat_p95_threshold_ms: float = 100.0
    bler_mean_threshold: float = 0.10
    combine: str = COMBINE_AND

    def __post_init__(self):
        check_fields(self)
        if self.lat_p95_threshold_ms <= 0:
            raise InvalidSpecError("latency threshold must be positive")
        if not 0.0 < self.bler_mean_threshold < 1.0:
            raise InvalidSpecError("BLER threshold must lie in (0, 1)")
        if self.combine not in (COMBINE_AND, COMBINE_OR):
            raise InvalidSpecError(f"combine must be AND or OR, got {self.combine!r}")


class DegradationFlag(NamedTuple):
    start_s: float
    raised: bool
    lat_evidence: bool
    sched_evidence: bool
    lat_p95_ms: float
    bler_mean: float


class PhaseComparison(NamedTuple):
    """One phase of compare_phases; exceed_rate is the share of its
    latency samples above the threshold compare_phases was given."""
    phase_label: str
    lat_p95_ms: float
    exceed_rate: float
    bler_p95: float | None


class CouplingReport(NamedTuple):
    rho_bler: float | None
    rho_mcs: float | None
    n_windows: int


def evaluate_flags(windows: WindowTable,
                   policy: FlagPolicy) -> list[DegradationFlag]:
    """One flag per window. Evidence uses strict > on window p95
    latency and mean BLER."""
    if not len(windows):
        return []
    lat = windows.lat_p95_ms > policy.lat_p95_threshold_ms
    sched = windows.bler_mean > policy.bler_mean_threshold
    raised = lat & sched if policy.combine == COMBINE_AND else lat | sched
    columns = (windows.start_s, raised, lat, sched, windows.lat_p95_ms, windows.bler_mean)
    return list(map(DegradationFlag._make, zip(*(c.tolist() for c in columns))))


def flag_rate(flags: Sequence[DegradationFlag]) -> float:
    if not flags:
        raise EmptySequenceError("flag rate of an empty timeline")
    return sum(1 for f in flags if f.raised) / len(flags)


def compare_phases(run: Run, split_s: float | None = None,
                   exceed_threshold_ms: float = 100.0,
                   ) -> tuple[PhaseComparison, PhaseComparison]:
    """Latency tail and raw-snapshot BLER p95 for the two phases of a
    run split at split_s (default: half the nominal duration). A phase
    without latency samples raises EmptyPhaseError naming the run."""
    rows = []
    for label, phase in zip(PHASE_LABELS, split_phases(run, split_s)):
        if not len(phase.latency):
            raise EmptyPhaseError(
                f"run {run.meta.run_id!r}: phase {label!r} has no latency samples")
        rtts, blers = phase.latency.rtt_ms, phase.scheduler.dl_bler
        rows.append(PhaseComparison(
            phase_label=label,
            lat_p95_ms=stats.percentile(rtts, 0.95),
            exceed_rate=stats.exceedance_prob(rtts, exceed_threshold_ms),
            bler_p95=stats.percentile(blers, 0.95) if blers.size else None))
    return rows[0], rows[1]


def coupling_report(windows: WindowTable) -> CouplingReport:
    """Spearman rho of window latency p95 against window BLER mean and
    against window MCS median. A rho is None (reported "N/A") when the
    indicator is constant, absent in some window, or there are fewer
    than two windows to rank."""
    n = len(windows)
    if not n:
        raise EmptySequenceError("coupling report over zero windows")
    if n < 2:
        return CouplingReport(rho_bler=None, rho_mcs=None, n_windows=n)
    p95 = windows.lat_p95_ms
    rho_bler = stats.spearman_rho(p95, windows.bler_mean)
    rho_mcs = (None if np.isnan(windows.mcs_median).any()
               else stats.spearman_rho(p95, windows.mcs_median))
    return CouplingReport(rho_bler=rho_bler, rho_mcs=rho_mcs, n_windows=n)
