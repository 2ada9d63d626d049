"""Traces and runs from record rows, for tests that state their inputs
as LatencySample / SchedulerSnapshot records.

The library holds a run as column traces; this is the one place where
test rows become columns. Absent optional fields (None) become NaN.
"""

from taildiag.ingest import LatencyTrace, SchedulerTrace, consolidate_run


def latency_trace(samples):
    return LatencyTrace(*([getattr(s, f) for s in samples] for f in LatencyTrace.names()))


def sched_trace(snapshots):
    return SchedulerTrace(*([getattr(s, f) for s in snapshots]
                            for f in SchedulerTrace.names()))


def make_run(meta, samples, snapshots):
    """A Run as load_run assembles one: through consolidate_run, so both
    layers come out time-sorted and restricted to the dominant RNTI."""
    return consolidate_run(latency_trace(samples), sched_trace(snapshots), meta)
