"""Report rows with fixed formatting, and plot-ready table files.

Two kinds of output, deliberately different:

- Report tables (summaries, comparisons, phase rows) use fixed human
  formatting: 1 decimal for milliseconds, 3 decimals for rates and
  BLER, scientific notation for p-values below 1e-3, "N/A" for
  undefined correlations. Stable for golden-file comparison.
- Data tables (windowed join, flag timeline) keep full float precision
  so downstream statistics on the emitted file agree exactly with
  statistics on the in-memory windows. canon.csv_bytes renders them,
  each float as its repr.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import canon, stats
from .flags import CouplingReport, DegradationFlag, PhaseComparison
from .ingest import RunMetadata, SchedulerTrace
from .stats import KsResult, LatencySummary
from .windows import WindowTable

FLAGS_HEADER = "start_s,raised,lat_evidence,sched_evidence,lat_p95_ms,bler_mean"


def fmt_ms(x: float) -> str:
    return f"{x:.1f}"


def fmt_rate(x: float) -> str:
    return f"{x:.3f}"


def fmt_pvalue(p: float) -> str:
    return f"{p:.2e}" if p < 1e-3 else f"{p:.3f}"


def fmt_rho(rho: float | None) -> str:
    return "N/A" if rho is None else f"{rho:.2f}"


def fmt_mcs(m: float | None) -> str:
    if m is None:
        return ""
    return str(int(m)) if m == int(m) else f"{m:.1f}"


def _fmt_threshold(t: float) -> str:
    return str(int(t)) if t == int(t) else repr(t)


@dataclass(frozen=True)
class SchedSummary:
    """Raw-snapshot scheduler digest for one run."""
    n: int
    bler_median: float
    bler_p95: float
    mcs_median: float | None
    snr_median_db: float | None


def scheduler_summary(snapshots: SchedulerTrace) -> SchedSummary | None:
    if not len(snapshots):
        return None
    blers = snapshots.dl_bler
    mcs = snapshots.dl_mcs[~np.isnan(snapshots.dl_mcs)]
    snr = snapshots.snr_db[~np.isnan(snapshots.snr_db)]
    return SchedSummary(
        n=len(snapshots),
        bler_median=stats.percentile(blers, 0.5),
        bler_p95=stats.percentile(blers, 0.95),
        mcs_median=stats.percentile(mcs, 0.5) if mcs.size else None,
        snr_median_db=stats.percentile(snr, 0.5) if snr.size else None)


def summary_table(meta: RunMetadata, summary: LatencySummary,
                  sched: SchedSummary | None,
                  exceed_cols: Sequence[tuple[float, float]]) -> str:
    """One header line and one data row; scheduler cells stay empty for
    latency-only runs. exceed_cols pairs (threshold_ms, rate)."""
    header = ["run_id", "lat_n", "lat_median_ms", "lat_p95_ms", "lat_mean_ms"]
    row = [meta.run_id, str(summary.n), fmt_ms(summary.median_ms),
           fmt_ms(summary.p95_ms), fmt_ms(summary.mean_ms)]
    for threshold, rate in exceed_cols:
        header.append(f"exceed_{_fmt_threshold(threshold)}ms")
        row.append(fmt_rate(rate))
    header += ["outlier_rate", "sched_n", "bler_median", "bler_p95",
               "mcs_median", "snr_median_db"]
    row.append(fmt_rate(summary.outlier_rate))
    if sched is None:
        row += [""] * 5
    else:
        row += [str(sched.n), fmt_rate(sched.bler_median), fmt_rate(sched.bler_p95),
                fmt_mcs(sched.mcs_median),
                "" if sched.snr_median_db is None else fmt_ms(sched.snr_median_db)]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def compare_table(packet_size_b: int, ks: KsResult,
                  p95_a_ms: float, p95_b_ms: float) -> str:
    header = "packet_size_b,n_a,n_b,ks_d,p_value,p95_a_ms,p95_b_ms"
    row = ",".join([str(packet_size_b), str(ks.n1), str(ks.n2),
                    fmt_rate(ks.d_stat), fmt_pvalue(ks.p_value),
                    fmt_ms(p95_a_ms), fmt_ms(p95_b_ms)])
    return header + "\n" + row + "\n"


def windows_table(windows: WindowTable) -> str:
    return canon.table_text(windows)


def flags_table(flags: Sequence[DegradationFlag]) -> str:
    names = FLAGS_HEADER.split(",")
    columns = np.array([(f.start_s, f.raised, f.lat_evidence, f.sched_evidence,
                         f.lat_p95_ms, f.bler_mean) for f in flags], dtype=float)
    return canon.csv_bytes(names, columns.reshape(-1, len(names)).T,
                           names[1:4]).decode("utf-8")


def phases_table(rows: Sequence[PhaseComparison],
                 exceed_threshold_ms: float) -> str:
    header = (f"phase,lat_p95_ms,"
              f"exceed_{_fmt_threshold(exceed_threshold_ms)}ms,bler_p95")
    lines = [header]
    for r in rows:
        lines.append(",".join([
            r.phase_label, fmt_ms(r.lat_p95_ms), fmt_rate(r.exceed_rate),
            "N/A" if r.bler_p95 is None else fmt_rate(r.bler_p95)]))
    return "\n".join(lines) + "\n"


def flag_rate_line(scenario: str, n_windows: int, rate: float) -> str:
    return f"{scenario}: windows={n_windows} flag_rate={fmt_rate(rate)}"


def coupling_line(rep: CouplingReport) -> str:
    return (f"rho_bler={fmt_rho(rep.rho_bler)} rho_mcs={fmt_rho(rep.rho_mcs)} "
            f"n_windows={rep.n_windows}")
