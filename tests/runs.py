"""Traces, window tables and runs from record rows, for tests that
state their inputs as LatencySample / SchedulerSnapshot / JoinedWindow
records.

The library holds runs and windows as column tables; this is the one
place where test rows become columns. Absent optional fields (None)
become NaN.
"""

from taildiag.ingest import LatencyTrace, SchedulerTrace, consolidate_run


def table(cls, rows):
    """The `cls` table (a trace or WindowTable) holding `rows`."""
    return cls(*([getattr(r, f) for r in rows] for f in cls.names()))


def latency_trace(samples):
    return table(LatencyTrace, samples)


def sched_trace(snapshots):
    return table(SchedulerTrace, snapshots)


def make_run(meta, samples, snapshots):
    """A Run as load_run assembles one: through consolidate_run, so both
    layers come out time-sorted and restricted to the dominant RNTI."""
    return consolidate_run(latency_trace(samples), sched_trace(snapshots), meta)
