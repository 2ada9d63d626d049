"""Raw log ingestion and the in-memory run model.

A run holds each layer as a trace: numpy columns, one per field, in
time order, with optional scheduler fields NaN where a snapshot lacks
them. Iterating or indexing a trace yields LatencySample /
SchedulerSnapshot rows with built-in Python values.

Both parsers are tolerant: lines or rows that cannot be used are counted
and reported, never silently dropped, and never abort the parse. An
input that yields zero usable records raises EmptyTraceError.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    EmptyTraceError,
    InvalidSpecError,
    MissingColumnError,
    check_fields,
)

log = logging.getLogger(__name__)

UE_SMARTPHONE = "smartphone"
UE_MODEM = "modem"

SCENARIO_BASELINE = "baseline"
SCENARIO_DYNAMIC_PEOPLE = "dynamic_people"
SCENARIO_STATIC_LONG = "static_long"


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
    phase: str | None = None

    def __post_init__(self):
        check_fields(self)
        if not self.run_id:
            raise InvalidSpecError("run_id must be non-empty")
        if not self.ue_type or not self.scenario:
            raise InvalidSpecError("ue_type and scenario must be non-empty")
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


class _Trace:
    """Equal-length float64 numpy columns, one per field of the row type
    ROW and in its order, NaN where an optional field is absent. The
    fields named in INTEGRAL hold integers. Columns are read-only views,
    so an order a holder relies on (the time order of a Run's traces)
    cannot change underneath it.

    As a sequence a table yields ROW records with built-in Python
    values (None for an absent field): len, iteration and integer
    indexing give rows, while slices, boolean masks and index arrays
    give tables of the same type.
    """

    ROW: ClassVar[type]
    INTEGRAL: ClassVar[tuple[str, ...]]

    def __post_init__(self):
        lengths = set()
        for name in self.names():
            col = np.asarray(getattr(self, name), dtype=float).view()
            if col.ndim != 1:
                raise InvalidSpecError(f"trace column {name} must be one-dimensional")
            col.flags.writeable = False
            lengths.add(col.size)
            object.__setattr__(self, name, col)
        if len(lengths) > 1:
            raise InvalidSpecError(f"trace columns differ in length: {sorted(lengths)}")

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def empty(cls):
        return cls(*([],) * len(cls.names()))

    def rendered(self, name: str) -> np.ndarray:
        """Column `name` as float64 holding what its cells render as: in
        an integral column each value cast to int64, and one NaN (the
        one an empty cell reads as) wherever a value is absent."""
        col = getattr(self, name)
        absent = np.isnan(col)
        if name in self.INTEGRAL:
            col = np.where(absent, 0.0, col).astype(np.int64).astype(float)
        return np.where(absent, np.nan, col)

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

    def __iter__(self):
        return map(self.ROW._make, zip(*map(self.values, self.names())))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            k = key + len(self) if key < 0 else key
            if not 0 <= k < len(self):
                raise IndexError(f"trace index {key} out of range")
            return next(iter(self[k:k + 1]))
        return type(self)(*(getattr(self, name)[key] for name in self.names()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n), equal_nan=True)
                   for n in self.names())


@dataclass(frozen=True, eq=False)
class LatencyTrace(_Trace):
    t_s: np.ndarray
    seq: np.ndarray
    rtt_ms: np.ndarray

    ROW: ClassVar[type] = LatencySample
    INTEGRAL: ClassVar[tuple[str, ...]] = ("seq",)


@dataclass(frozen=True, eq=False)
class SchedulerTrace(_Trace):
    t_s: np.ndarray
    rnti: np.ndarray
    dl_bler: np.ndarray
    ul_bler: np.ndarray
    dl_mcs: np.ndarray
    ul_mcs: np.ndarray
    snr_db: np.ndarray
    rsrp_dbm: np.ndarray
    dl_retx: np.ndarray
    dl_total: np.ndarray

    ROW: ClassVar[type] = SchedulerSnapshot
    INTEGRAL: ClassVar[tuple[str, ...]] = ("rnti", "dl_mcs", "ul_mcs", "dl_retx",
                                           "dl_total")


@dataclass(frozen=True)
class Run:
    """One run: metadata plus both layers, each in time order (latency
    by (t_s, seq)). consolidate_run builds it from parsed traces."""

    meta: RunMetadata
    latency: LatencyTrace
    scheduler: SchedulerTrace


@dataclass
class PingParseResult:
    """Samples plus an accounting of every input line.

    len(samples) + skipped_lines + len(malformed) equals the number of
    lines consumed. skipped_lines counts non-reply lines (headers,
    summaries, timeouts); malformed holds reply-looking lines whose
    fields could not be extracted, as (line_number, line) pairs.
    """

    samples: LatencyTrace
    skipped_lines: int
    malformed: list[tuple[int, str]]


@dataclass
class FullstatsParseResult:
    snapshots: SchedulerTrace
    skipped_rows: int


# Integers beyond this lose their last digits in a float64 column.
_MAX_EXACT_INT = 2.0 ** 53


def not_integer(values: np.ndarray) -> np.ndarray:
    """Mask of values that are not integers float64 holds exactly
    (NaN and infinities included)."""
    return ~(np.abs(values) <= _MAX_EXACT_INT) | (np.floor(values) != values)


def first_faults(checks) -> dict[int, str]:
    """Every row that fails one of `checks`, (reason, bad-row mask)
    pairs in order, mapped to the reason of the first check it fails."""
    faults: dict[int, str] = {}
    for reason, bad in checks:
        for row in np.flatnonzero(bad).tolist():
            faults.setdefault(row, reason)
    return faults


def scheduler_faults(c: Mapping[str, np.ndarray]) -> dict[int, str]:
    """Rows of float64 scheduler columns (named as SchedulerTrace's,
    NaN where absent) whose values leave their documented domains, each
    with the first rule it breaks. Raw and canonical rows obey the same
    rules."""
    bler, ul_bler = c["dl_bler"], c["ul_bler"]
    retx, total = c["dl_retx"], c["dl_total"]
    return first_faults([
        ("t_s missing or not finite", ~np.isfinite(c["t_s"])),
        ("rnti missing or not an integer", not_integer(c["rnti"])),
        ("rnti < 0", c["rnti"] < 0),
        ("dl_bler missing or outside [0, 1]", ~((bler >= 0.0) & (bler <= 1.0))),
        ("ul_bler outside [0, 1]", (ul_bler < 0.0) | (ul_bler > 1.0)),
        *((f"{name} not an integer", ~np.isnan(c[name]) & not_integer(c[name]))
          for name in ("dl_mcs", "ul_mcs", "dl_retx", "dl_total")),
        *((f"{name} outside [0, 28]", (c[name] < 0) | (c[name] > 28))
          for name in ("dl_mcs", "ul_mcs")),
        *((f"{name} not finite", np.isinf(c[name])) for name in ("snr_db", "rsrp_dbm")),
        ("dl_retx < 0", retx < 0),
        ("dl_total < 0", total < 0),
        ("dl_retx > dl_total", (total > 0) & (retx > total)),
    ])


_EPOCH_RE = re.compile(r"^\[(\d+(?:\.\d+)?)\]")
_REPLY_RE = re.compile(r"icmp_[sr]eq=(\d+)\b.*?\btime=(\d+(?:\.\d+)?)\s*ms")
_SEQ_MOD = 1 << 16


def _is_reply_candidate(line: str) -> bool:
    return "bytes from" in line and ("icmp_seq=" in line or "icmp_req=" in line)


def _unwrap_seq(seq: np.ndarray) -> np.ndarray:
    """Sequence count behind 16-bit icmp_seq values in file order: each
    step is taken to the nearest value modulo 2**16 (half-range rule),
    so duplicates and reordered replies step back instead of wrapping.
    Shifted by whole wraps if a reply from before the first one would
    make a count negative."""
    half = _SEQ_MOD // 2
    step = (np.diff(seq) + half) % _SEQ_MOD - half
    count = seq[0] + np.concatenate(([0], np.cumsum(step)))
    low = int(count.min())
    return count - (low // _SEQ_MOD) * _SEQ_MOD if low < 0 else count


def parse_ping_log(lines: Iterable[str], meta: RunMetadata) -> PingParseResult:
    """Parse standard ping reply output into time-ordered latency samples.

    Reply lines may carry a leading bracketed epoch timestamp; when they
    do, t_s is the offset from the earliest such epoch, otherwise
    t_s = count * meta.ping_interval_s, where count is icmp_seq with
    its 16-bit wraps undone. The seq column keeps the printed value.
    """
    skipped = 0
    malformed: list[tuple[int, str]] = []
    epochs: list[float] = []
    seqs: list[int] = []
    rtts: list[float] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not _is_reply_candidate(line):
            skipped += 1
            continue
        m = _REPLY_RE.search(line)
        rtt = float(m.group(2)) if m else 0.0
        if m is None or rtt <= 0.0:
            malformed.append((line_no, line))
            # One warning per line, uncapped: perfbench's raw_ingest check
            # reads these line numbers from stderr. Capping them waits for
            # the diagnostics sidecar (ROADMAP item 5).
            log.warning("ping line %d unparseable: %s", line_no, line)
            continue
        em = _EPOCH_RE.match(line)
        epochs.append(float(em.group(1)) if em else math.nan)
        seqs.append(int(m.group(1)))
        rtts.append(rtt)
    if not rtts:
        raise EmptyTraceError("no ping reply lines parsed")
    epoch = np.array(epochs)
    seq = np.array(seqs, dtype=np.int64)
    stamped = ~np.isnan(epoch)
    # Earliest epoch as base, not the first line's, so t_s stays >= 0
    # even when replies arrive out of order.
    base = epoch[stamped].min() if stamped.any() else 0.0
    t = np.where(stamped, epoch - base, _unwrap_seq(seq) * meta.ping_interval_s)
    order = np.lexsort((seq, t))
    return PingParseResult(
        samples=LatencyTrace(t[order], seq[order], np.array(rtts)[order]),
        skipped_lines=skipped, malformed=malformed)


# Canonical fullstats fields, with value domains in scheduler_faults.
# column_map maps these names to the header names of the incoming CSV;
# only rnti and dl_bler are mandatory, t_s is the optional timestamp
# column.
FULLSTATS_FIELDS = SchedulerTrace.names()
_REQUIRED_FIELDS = ("rnti", "dl_bler")


def _float_cell(cell: str) -> float:
    """A numeric cell; NaN (absent) when blank. Raises ValueError on
    text that is not a number, "nan" included."""
    cell = cell.strip()
    if not cell:
        return math.nan
    v = float(cell)
    if v != v:
        raise ValueError(f"not a number: {cell!r}")
    return v


def _int_cell(cell: str) -> float:
    """Like _float_cell, but a 0x prefix reads as hexadecimal."""
    cell = cell.strip()
    if cell[:2].lower() == "0x":
        return float(int(cell, 16))
    return _float_cell(cell)


def parse_fullstats(lines: Iterable[str], column_map: Mapping[str, str],
                    meta: RunMetadata, *,
                    stats_period_s: float = 1.0) -> FullstatsParseResult:
    """Parse a delimited fullstats table into scheduler snapshots.

    column_map maps canonical field names (FULLSTATS_FIELDS) to header
    names in the incoming file. Without a mapped t_s column, row index
    times stats_period_s is used as the snapshot time; a mapped t_s is
    rebased so the earliest kept snapshot lies at 0. Rows with values
    outside the documented domains are skipped and counted.
    """
    for name in _REQUIRED_FIELDS:
        if name not in column_map:
            raise MissingColumnError(f"column_map must map {name!r}")
    unknown = set(column_map) - set(FULLSTATS_FIELDS)
    if unknown:
        raise InvalidSpecError(f"unknown canonical fields in column_map: {sorted(unknown)}")

    reader = csv.reader(lines)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise EmptyTraceError("fullstats input has no header row") from None
    missing = [col for col in column_map.values() if col not in header]
    if missing:
        raise MissingColumnError(f"mapped columns absent from header: {missing}")
    mapped = [name for name in FULLSTATS_FIELDS if name in column_map]
    cells = [(header.index(column_map[name]),
              _int_cell if name in SchedulerTrace.INTEGRAL else _float_cell)
             for name in mapped]

    values: list[list[float]] = []
    row_idx_of: list[int] = []      # row index of each entry of values
    faults: dict[int, str] = {}     # row index -> why the row is skipped
    for row_idx, row in enumerate(reader):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            values.append([parse(row[i]) for i, parse in cells])
        except (ValueError, IndexError, OverflowError) as exc:
            faults[row_idx] = str(exc)
            continue
        row_idx_of.append(row_idx)

    table = np.array(values, dtype=float).reshape(len(values), len(mapped))
    cols = {name: np.full(len(values), np.nan) for name in FULLSTATS_FIELDS}
    cols.update((name, table[:, j]) for j, name in enumerate(mapped))
    if "t_s" not in column_map:
        cols["t_s"] = np.array(row_idx_of) * stats_period_s
    keep = np.ones(len(values), dtype=bool)
    for pos, reason in scheduler_faults(cols).items():
        keep[pos] = False
        faults[row_idx_of[pos]] = reason
    for row_idx in sorted(faults):
        # Uncapped on purpose, like the ping warnings above.
        log.warning("fullstats row %d skipped: %s", row_idx + 1, faults[row_idx])
    if not keep.any():
        raise EmptyTraceError("no usable fullstats rows parsed")

    snaps = SchedulerTrace(**{name: col[keep] for name, col in cols.items()})
    if "t_s" in column_map:
        snaps = replace(snaps, t_s=snaps.t_s - snaps.t_s.min())
    return FullstatsParseResult(
        snapshots=snaps[np.lexsort((snaps.rnti, snaps.t_s))],
        skipped_rows=len(faults))


def select_dominant_rnti(snapshots: SchedulerTrace) -> tuple[int, SchedulerTrace]:
    """RNTI with the most records and its subsequence; ties break low."""
    if not len(snapshots):
        raise EmptyTraceError("no snapshots to select an RNTI from")
    rntis, counts = np.unique(snapshots.rnti, return_counts=True)
    rnti = int(rntis[np.argmax(counts)])    # the first maximum: lowest RNTI
    return rnti, snapshots[snapshots.rnti == rnti]


def consolidate_run(latency: LatencyTrace, scheduler: SchedulerTrace | None,
                    meta: RunMetadata, *,
                    sched_offset_s: float = 0.0) -> Run:
    """Assemble a Run: both layers time-sorted (latency by (t_s, seq),
    both stably), scheduler restricted to the dominant RNTI, optional
    constant offset applied to scheduler times (snapshots shifted below
    t=0 are dropped). A run without scheduler data passes None."""
    lat = latency[np.lexsort((latency.seq, latency.t_s))]
    sched = SchedulerTrace.empty()
    if scheduler is not None and len(scheduler):
        _, sched = select_dominant_rnti(scheduler)
        if sched_offset_s:
            t = sched.t_s + sched_offset_s
            below = t < 0
            dropped = int(np.count_nonzero(below))
            if dropped:
                log.warning("sched offset %.3fs drops %d snapshots below t=0",
                            sched_offset_s, dropped)
            sched = replace(sched, t_s=t)[~below]
        sched = sched[np.argsort(sched.t_s, kind="stable")]
    return Run(meta=meta, latency=lat, scheduler=sched)
