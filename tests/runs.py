"""Traces and runs from record rows, for tests that state their inputs
as LatencySample / SchedulerSnapshot records.

The library holds runs as column traces; this is the one place where
test rows become trace columns. Absent optional fields (None) become
NaN. Tests build a WindowTable from its columns directly.
"""

from taildiag.model import LatencyTrace, SchedulerTrace, consolidate_run


def table(cls, rows):
    """The `cls` trace holding `rows`."""
    return cls(*([getattr(r, f) for r in rows] for f in cls.names()))


def latency_trace(samples):
    return table(LatencyTrace, samples)


def sched_trace(snapshots):
    return table(SchedulerTrace, snapshots)


def make_run(meta, samples, snapshots):
    """A Run as load_run assembles one: through consolidate_run, so both
    layers come out time-sorted and restricted to the dominant RNTI."""
    return consolidate_run(latency_trace(samples), sched_trace(snapshots), meta)
