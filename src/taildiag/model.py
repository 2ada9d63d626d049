"""The in-memory run model: a run's metadata and its two layers.

A run holds each layer as a trace: numpy columns, one per field, in
time order, with optional scheduler fields NaN where a snapshot lacks
them. Each trace class owns its value rules (`faults`), which the raw
parsers and the canonical readers apply alike, and whether an empty
canonical cell reads as NaN. Iterating or indexing a trace yields
LatencySample / SchedulerSnapshot rows with built-in Python values.
`consolidate_run` assembles a Run from the traces a reader or parser
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, NamedTuple

import numpy as np

from .errors import EmptyTraceError, InvalidSpecError, check_fields, warn

SCENARIO_BASELINE = "baseline"
SCENARIO_DYNAMIC_PEOPLE = "dynamic_people"
SCENARIO_STATIC_LONG = "static_long"


def _has_control(text: str) -> bool:
    """Whether text holds a C0 or C1 control character, or DEL."""
    return any(c < " " or "\x7f" <= c <= "\x9f" for c in text)


@dataclass(frozen=True)
class RunMetadata:
    """Experimental context of one measurement run."""

    run_id: str
    ue_type: str
    distance_m: float
    packet_size_b: int
    scenario: str
    nominal_duration_s: float
    ping_interval_s: float = 0.2

    def __post_init__(self):
        check_fields(self)
        if not self.run_id:
            raise InvalidSpecError("run_id must be non-empty")
        # It names the run's output files and fills a cell of its CSV rows.
        if self.run_id in (".", "..") or _has_control(self.run_id) or any(
                c in "/\\," for c in self.run_id):
            raise InvalidSpecError(
                "run_id must be a plain file name, without '/', '\\', ',' or a "
                f"control character, got {self.run_id!r}")
        if not self.ue_type or not self.scenario:
            raise InvalidSpecError("ue_type and scenario must be non-empty")
        # Each is one `key=value` line of the run's manifest.
        for name, value in (("ue_type", self.ue_type), ("scenario", self.scenario)):
            if _has_control(value):
                raise InvalidSpecError(f"{name} must hold no control character, got {value!r}")
        if self.distance_m < 0:
            raise InvalidSpecError(f"distance_m must be >= 0, got {self.distance_m}")
        if self.packet_size_b < 1:
            raise InvalidSpecError(f"packet_size_b must be >= 1, got {self.packet_size_b}")
        if self.ping_interval_s <= 0:
            raise InvalidSpecError(f"ping_interval_s must be > 0, got {self.ping_interval_s}")
        if self.nominal_duration_s <= 0:
            raise InvalidSpecError(
                f"nominal_duration_s must be > 0, got {self.nominal_duration_s}")


class LatencySample(NamedTuple):
    """One row of a LatencyTrace."""

    t_s: float
    seq: int
    rtt_ms: float


class SchedulerSnapshot(NamedTuple):
    """One row of a SchedulerTrace; None marks an absent field."""

    t_s: float
    rnti: int
    dl_bler: float
    ul_bler: float | None = None
    dl_mcs: int | None = None
    ul_mcs: int | None = None
    snr_db: float | None = None
    rsrp_dbm: float | None = None
    dl_retx: int | None = None
    dl_total: int | None = None


# Integers float64 holds exactly and without a neighbour it rounds to
# them: the one bound every reader applies to an integral value.
MAX_EXACT_INT = 2.0 ** 53

# Integral values at or beyond this magnitude do not fit an int64.
_INT64_BOUND = 2.0 ** 63


def _not_integer(values: np.ndarray) -> np.ndarray:
    """Mask of values that are not integers below 2**53 in magnitude,
    the ones float64 holds exactly (NaN and infinities included)."""
    return ~(np.abs(values) < MAX_EXACT_INT) | (np.floor(values) != values)


def _check_finite(t: float, layer: str, how: str) -> None:
    """Raise InvalidSpecError naming the layer unless t, a time the
    parsers or consolidate_run derive (`how`), is finite: before the
    numpy arithmetic would overflow to an infinity."""
    if not math.isfinite(t):
        raise InvalidSpecError(f"{layer} t_s overflows: {how} is not finite")


def _first_faults(checks) -> dict[int, str]:
    """Every row that fails one of `checks`, (reason, bad-row mask)
    pairs in order, mapped to the reason of the first check it fails."""
    faults: dict[int, str] = {}
    for reason, bad in checks:
        for row in np.flatnonzero(bad).tolist():
            faults.setdefault(row, reason)
    return faults


class _Table:
    """Equal-length float64 numpy columns, one per name in the class's
    __slots__ and in its order, NaN where an optional field is absent.
    The fields named in INTEGRAL hold integers. A table is built from
    its columns by position or by name, and is read-only: no attribute
    can be set, and columns are read-only views, so an order a holder
    relies on (the time order of a Run's traces) cannot change
    underneath it. A plain class rather than a frozen dataclass: every
    process builds the table classes, and a dataclass costs about a
    millisecond each to create."""

    __slots__ = ()
    INTEGRAL: ClassVar[tuple[str, ...]]

    def __init__(self, *columns, **named):
        names = self.names()
        rest = set(names[len(columns):])
        if len(columns) + len(named) != len(names) or not named.keys() <= rest:
            raise TypeError(f"{type(self).__name__} takes the columns {', '.join(names)}")
        named.update(zip(names, columns))
        lengths = set()
        for name in names:
            col = np.asarray(named[name], dtype=float).view()
            if col.ndim != 1:
                raise InvalidSpecError(f"trace column {name} must be one-dimensional")
            col.flags.writeable = False
            lengths.add(col.size)
            object.__setattr__(self, name, col)
        if len(lengths) > 1:
            raise InvalidSpecError(f"trace columns differ in length: {sorted(lengths)}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return cls.__slots__

    def replace(self, **columns):
        """This table with the named columns replaced."""
        return type(self)(**{name: getattr(self, name) for name in self.names()} | columns)

    def rendered(self, name: str) -> np.ndarray:
        """Column `name` as float64 holding what its cells render as: in
        an integral column each value cast to int64, and one NaN (the
        one an empty cell reads as) wherever a value is absent. An
        integral value that int64 cannot hold (an infinity, or 2**63 or
        more in magnitude) raises InvalidSpecError naming its row. The
        column itself, not a copy, where it already holds exactly that."""
        col = getattr(self, name)
        absent = np.isnan(col)
        if name in self.INTEGRAL:
            beyond = np.flatnonzero(~absent & ~(np.abs(col) < _INT64_BOUND))
            if beyond.size:
                row = int(beyond[0])
                raise InvalidSpecError(f"cannot write {name} {float(col[row])!r} of "
                                       f"trace row {row}: int64 cannot hold it")
            whole = np.where(absent, 0.0, col).astype(np.int64).astype(float)
            # Bit for bit: a -0.0 renders as 0.0.
            if not np.array_equal(whole.view(np.int64), col.view(np.int64)):
                col = whole
        return np.where(absent, np.nan, col) if absent.any() else col

    def values(self, name: str) -> list:
        """Column `name` as built-in Python values, None where absent."""
        col = self.rendered(name)
        absent = np.isnan(col)
        if name in self.INTEGRAL:     # whole numbers now: the cast is exact
            col = np.where(absent, 0.0, col).astype(np.int64)
        vals = col.tolist()
        if absent.any():
            vals = [None if a else v for v, a in zip(vals, absent.tolist())]
        return vals

    def __len__(self) -> int:
        return len(getattr(self, self.names()[0]))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n), equal_nan=True)
                   for n in self.names())

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.names()))


class _Trace(_Table):
    """One layer of a run. Its value rules are the static method
    `faults(columns)`: the rows of float64 columns, named as the
    trace's and NaN where absent, whose values leave their domains,
    each with the first rule it breaks. Raw and canonical rows obey the
    same rules. EMPTY_IS_NAN says whether an empty canonical cell reads
    as NaN (an absent value) rather than as malformed.

    As a sequence a trace yields ROW records with built-in Python
    values (None for an absent field): len, iteration and integer
    indexing give rows, while slices, boolean masks and index arrays
    give traces of the same type.
    """

    __slots__ = ()
    ROW: ClassVar[type]
    EMPTY_IS_NAN: ClassVar[bool]

    @classmethod
    def empty(cls):
        return cls(*([],) * len(cls.names()))

    def __iter__(self):
        return map(self.ROW._make, zip(*map(self.values, self.names())))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            k = key + len(self) if key < 0 else key
            if not 0 <= k < len(self):
                raise IndexError(f"trace index {key} out of range")
            return next(iter(self[k:k + 1]))
        return type(self)(*(getattr(self, name)[key] for name in self.names()))


class LatencyTrace(_Trace):
    __slots__ = ("t_s", "seq", "rtt_ms")

    ROW: ClassVar[type] = LatencySample
    INTEGRAL: ClassVar[tuple[str, ...]] = ("seq",)
    EMPTY_IS_NAN: ClassVar[bool] = False

    @staticmethod
    def faults(c: Mapping[str, np.ndarray]) -> dict[int, str]:
        rtt = c["rtt_ms"]
        return _first_faults([
            ("t_s not finite", ~np.isfinite(c["t_s"])),
            ("seq not an integer", _not_integer(c["seq"])),
            ("rtt_ms not finite and > 0", ~(np.isfinite(rtt) & (rtt > 0.0))),
        ])


class SchedulerTrace(_Trace):
    __slots__ = ("t_s", "rnti", "dl_bler", "ul_bler", "dl_mcs", "ul_mcs", "snr_db", "rsrp_dbm",
                 "dl_retx", "dl_total")

    ROW: ClassVar[type] = SchedulerSnapshot
    INTEGRAL: ClassVar[tuple[str, ...]] = ("rnti", "dl_mcs", "ul_mcs", "dl_retx",
                                           "dl_total")
    EMPTY_IS_NAN: ClassVar[bool] = True

    @staticmethod
    def faults(c: Mapping[str, np.ndarray]) -> dict[int, str]:
        bler, ul_bler = c["dl_bler"], c["ul_bler"]
        retx, total = c["dl_retx"], c["dl_total"]
        return _first_faults([
            ("t_s missing or not finite", ~np.isfinite(c["t_s"])),
            ("rnti missing or not an integer", _not_integer(c["rnti"])),
            ("rnti < 0", c["rnti"] < 0),
            ("dl_bler missing or outside [0, 1]", ~((bler >= 0.0) & (bler <= 1.0))),
            ("ul_bler outside [0, 1]", (ul_bler < 0.0) | (ul_bler > 1.0)),
            *((f"{name} not an integer", ~np.isnan(c[name]) & _not_integer(c[name]))
              for name in ("dl_mcs", "ul_mcs", "dl_retx", "dl_total")),
            *((f"{name} outside [0, 28]", (c[name] < 0) | (c[name] > 28))
              for name in ("dl_mcs", "ul_mcs")),
            *((f"{name} not finite", np.isinf(c[name])) for name in ("snr_db", "rsrp_dbm")),
            ("dl_retx < 0", retx < 0),
            ("dl_total < 0", total < 0),
            ("dl_retx > dl_total", (total > 0) & (retx > total)),
        ])


class Run(NamedTuple):
    """One run: metadata plus both layers, each in time order (latency
    by (t_s, seq)). consolidate_run builds it from parsed traces."""

    meta: RunMetadata
    latency: LatencyTrace
    scheduler: SchedulerTrace


def select_dominant_rnti(snapshots: SchedulerTrace) -> tuple[int, SchedulerTrace]:
    """RNTI with the most records and its subsequence; ties break low.
    Snapshots of one RNTI are their own subsequence."""
    if not len(snapshots):
        raise EmptyTraceError("no snapshots to select an RNTI from")
    first = snapshots.rnti[0]
    if (snapshots.rnti == first).all():
        return int(first), snapshots
    rntis, counts = np.unique(snapshots.rnti, return_counts=True)
    rnti = int(rntis[np.argmax(counts)])    # the first maximum: lowest RNTI
    return rnti, snapshots[snapshots.rnti == rnti]


def consolidate_run(latency: LatencyTrace, scheduler: SchedulerTrace | None,
                    meta: RunMetadata, *,
                    sched_offset_s: float = 0.0) -> Run:
    """Assemble a Run: both layers time-sorted (latency by (t_s, seq),
    both stably), scheduler restricted to the dominant RNTI, optional
    constant offset applied to scheduler times (snapshots shifted below
    t=0 are dropped; a shifted time float64 cannot hold raises
    InvalidSpecError). A run without scheduler data passes None. A
    trace already in that order, as a canonical file holds it, is kept
    as it is: the stable sorts would leave it unchanged."""
    lat = latency
    if not _in_time_order(latency.t_s, latency.seq):
        lat = latency[np.lexsort((latency.seq, latency.t_s))]
    sched = SchedulerTrace.empty()
    if scheduler is not None and len(scheduler):
        _, sched = select_dominant_rnti(scheduler)
        if sched_offset_s:
            for end in (float(sched.t_s.min()), float(sched.t_s.max())):
                _check_finite(end + sched_offset_s, "scheduler",
                              f"t_s {end!r} plus sched_offset_s {sched_offset_s!r}")
            t = sched.t_s + sched_offset_s
            below = t < 0
            dropped = int(np.count_nonzero(below))
            if dropped:
                warn(f"sched_offset_s {sched_offset_s!r} drops {dropped} snapshots below t=0")
            sched = sched.replace(t_s=t)[~below]
        if not _in_time_order(sched.t_s):
            sched = sched[np.argsort(sched.t_s, kind="stable")]
    return Run(meta=meta, latency=lat, scheduler=sched)


def _in_time_order(t: np.ndarray, seq: np.ndarray | None = None) -> bool:
    """Whether rows with times t, ties ordered by seq (when given), are
    in the order a stable sort by (t, seq) gives: t non-decreasing and
    seq non-decreasing within equal times. A NaN compared counts as out
    of order."""
    if not (t[1:] >= t[:-1]).all():
        return False
    if seq is None:
        return True
    tied = np.flatnonzero(t[1:] == t[:-1])
    return bool((seq[tied + 1] >= seq[tied]).all())
