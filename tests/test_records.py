"""The result records: their repr, field by field in declaration order,
and their equality, pinned so that printed output and comparisons
cannot drift."""

import math

import pytest

from taildiag.flags import CouplingReport, DegradationFlag, PhaseComparison
from taildiag.ingest import FullstatsParseResult, PingParseResult
from taildiag.model import LatencyTrace, Run, RunMetadata, SchedulerTrace
from taildiag.report import SchedSummary
from taildiag.stats import KsResult, LatencySummary

_NAN = math.nan
_META = RunMetadata("r1", "modem", 6.0, 30, "baseline", 10.0)
_LATENCY = "LatencyTrace(t_s=array([0.5]), seq=array([1.]), rtt_ms=array([12.5]))"
_SCHEDULER = ("SchedulerTrace(t_s=array([1.]), rnti=array([17.]), dl_bler=array([0.05]), "
              "ul_bler=array([nan]), dl_mcs=array([9.]), ul_mcs=array([nan]), "
              "snr_db=array([30.]), rsrp_dbm=array([nan]), dl_retx=array([0.]), "
              "dl_total=array([4.]))")


def _latency(rtt=12.5):
    return LatencyTrace([0.5], [1], [rtt])


def _scheduler():
    return SchedulerTrace([1.0], [17], [0.05], [_NAN], [9], [_NAN], [30.0], [_NAN], [0], [4])


# Per record: a factory of it, one with a field changed, and its repr.
RECORDS = {
    "flag": (lambda: DegradationFlag(5.0, True, True, False, 123.5, 0.25),
             lambda: DegradationFlag(5.0, False, True, False, 123.5, 0.25),
             "DegradationFlag(start_s=5.0, raised=True, lat_evidence=True, "
             "sched_evidence=False, lat_p95_ms=123.5, bler_mean=0.25)"),
    "phase": (lambda: PhaseComparison("LOS", 14.25, 0.125, None),
              lambda: PhaseComparison("LOS", 14.25, 0.125, 0.5),
              "PhaseComparison(phase_label='LOS', lat_p95_ms=14.25, exceed_rate=0.125, "
              "bler_p95=None)"),
    "coupling": (lambda: CouplingReport(0.5, None, 3),
                 lambda: CouplingReport(0.5, None, 4),
                 "CouplingReport(rho_bler=0.5, rho_mcs=None, n_windows=3)"),
    "sched_summary": (lambda: SchedSummary(1800, 0.05, 0.762, None, 30.0),
                      lambda: SchedSummary(1800, 0.05, 0.762, 9.0, 30.0),
                      "SchedSummary(n=1800, bler_median=0.05, bler_p95=0.762, "
                      "mcs_median=None, snr_median_db=30.0)"),
    "latency_summary": (lambda: LatencySummary(9000, 35.7, 115.6, 80.6, 0.066, 0.008, 0.008),
                        lambda: LatencySummary(9000, 35.7, 115.6, 80.6, 0.066, 0.008, 0.0),
                        "LatencySummary(n=9000, median_ms=35.7, p95_ms=115.6, mean_ms=80.6, "
                        "exceed_100ms=0.066, exceed_1s=0.008, outlier_rate=0.008)"),
    "ks": (lambda: KsResult(9000, 9000, 0.892, 0.0),
           lambda: KsResult(9000, 8999, 0.892, 0.0),
           "KsResult(n1=9000, n2=9000, d_stat=0.892, p_value=0.0)"),
    "run": (lambda: Run(_META, _latency(), _scheduler()),
            lambda: Run(_META, _latency(12.75), _scheduler()),
            f"Run(meta={_META!r}, latency={_LATENCY}, scheduler={_SCHEDULER})"),
    "ping_parse": (lambda: PingParseResult(_latency(), 2, [(3, "bad line")]),
                   lambda: PingParseResult(_latency(), 2, []),
                   f"PingParseResult(samples={_LATENCY}, skipped_lines=2, "
                   "malformed=[(3, 'bad line')])"),
    "fullstats_parse": (lambda: FullstatsParseResult(_scheduler(), 1),
                        lambda: FullstatsParseResult(_scheduler(), 0),
                        f"FullstatsParseResult(snapshots={_SCHEDULER}, skipped_rows=1)"),
}


@pytest.mark.parametrize("make, other, text", RECORDS.values(), ids=RECORDS.keys())
def test_record_repr_and_equality(make, other, text):
    record = make()
    assert repr(record) == text
    assert record == make() and not record != make()
    assert record != other() and not record == other()
