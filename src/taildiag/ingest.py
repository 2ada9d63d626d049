"""Raw log ingestion and the in-memory run model.

A run holds each layer as a trace: numpy columns, one per field, in
time order, with optional scheduler fields NaN where a snapshot lacks
them. Each trace class owns its value rules (`faults`), which the raw
parsers and the canonical readers apply alike, and whether an empty
canonical cell reads as NaN. Iterating or indexing a trace yields
LatencySample / SchedulerSnapshot rows with built-in Python values.

Both parsers read a chunks.RawLog, a raw log file read as bytes a
chunk of whole lines at a time, or any iterable of str lines. They are
tolerant: lines or rows that cannot be used are counted and reported,
never silently dropped, and never abort the parse. An input that yields zero
usable records raises EmptyTraceError, and a fullstats file the CSV
reader cannot split, or a byte that is not UTF-8, raises
MalformedRecordError at its line.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from collections import deque
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import ClassVar, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import chunks, decimals
from .decimals import MAX_EXACT_INT
from .errors import (
    EmptyTraceError,
    InvalidSpecError,
    MalformedRecordError,
    MissingColumnError,
    check_fields,
)

log = logging.getLogger(__name__)

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


# Integral values at or beyond this magnitude do not fit an int64.
_INT64_BOUND = 2.0 ** 63


def _not_integer(values: np.ndarray) -> np.ndarray:
    """Mask of values that are not integers below 2**53 in magnitude,
    the ones float64 holds exactly (NaN and infinities included)."""
    return ~(np.abs(values) < MAX_EXACT_INT) | (np.floor(values) != values)


def _first_faults(checks) -> dict[int, str]:
    """Every row that fails one of `checks`, (reason, bad-row mask)
    pairs in order, mapped to the reason of the first check it fails."""
    faults: dict[int, str] = {}
    for reason, bad in checks:
        for row in np.flatnonzero(bad).tolist():
            faults.setdefault(row, reason)
    return faults


class _Table:
    """Equal-length float64 numpy columns, one per dataclass field and
    in its order, NaN where an optional field is absent. The fields
    named in INTEGRAL hold integers. Columns are read-only views, so an
    order a holder relies on (the time order of a Run's traces) cannot
    change underneath it."""

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

    def rendered(self, name: str) -> np.ndarray:
        """Column `name` as float64 holding what its cells render as: in
        an integral column each value cast to int64, and one NaN (the
        one an empty cell reads as) wherever a value is absent. An
        integral value that int64 cannot hold (an infinity, or 2**63 or
        more in magnitude) raises InvalidSpecError naming its row."""
        col = getattr(self, name)
        absent = np.isnan(col)
        if name in self.INTEGRAL:
            beyond = np.flatnonzero(~absent & ~(np.abs(col) < _INT64_BOUND))
            if beyond.size:
                row = int(beyond[0])
                raise InvalidSpecError(f"cannot write {name} {float(col[row])!r} of "
                                       f"trace row {row}: int64 cannot hold it")
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

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n), equal_nan=True)
                   for n in self.names())


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


@dataclass(frozen=True, eq=False)
class LatencyTrace(_Trace):
    t_s: np.ndarray
    seq: np.ndarray
    rtt_ms: np.ndarray

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


_NL = ord("\n")
_EPOCH_RE = re.compile(r"^\[([0-9]+(?:\.[0-9]+)?)\]")
_REPLY_RE = re.compile(r"icmp_[sr]eq=([0-9]+)\b.*?\btime=([0-9]+(?:\.[0-9]+)?)\s*ms")
_SEQ_MOD = 1 << 16

def _is_reply_candidate(line: str) -> bool:
    return "bytes from" in line and ("icmp_seq=" in line or "icmp_req=" in line)


def _reply_fields(line: str) -> tuple[float, int, float] | None:
    """(epoch, seq, rtt_ms) of a reply-like line without its line end,
    epoch NaN when the line has none. None when the line is malformed:
    no seq and time fields, an rtt that is not finite and > 0, a seq of
    2**53 or more (float64 holds only smaller ones exactly), or an epoch
    that is not finite."""
    m = _REPLY_RE.search(line)
    if m is None:
        return None
    rtt = float(m.group(2))
    try:
        seq = int(m.group(1))
    except ValueError:          # more digits than int() converts
        return None
    em = _EPOCH_RE.match(line)
    epoch = float(em.group(1)) if em else math.nan
    if not 0.0 < rtt < math.inf or seq >= MAX_EXACT_INT or epoch == math.inf:
        return None
    return epoch, seq, rtt


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
    its 16-bit wraps undone. In a log where any reply carries an epoch,
    a reply without one is malformed. The seq column keeps the printed
    value.

    lines is a RawLog or an iterable of str lines, read in pieces
    (chunks.pieces). The lines of a plain piece that have the strict
    reply shape (chunks.decode_replies) are decoded together; every
    other line is read by the per-line rules, which define the result
    for every line. Warnings, one per malformed line, come in line
    order.
    """
    skipped = 0
    malformed: list[tuple[int, str]] = []
    parts: list[tuple[np.ndarray, ...]] = []
    stamped = False
    # Replies without an epoch before the first with one, malformed if
    # one follows: their line numbers, and their lines unless a RawLog
    # can read them again.
    bare: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    bare_lines: list[str] = []
    first_no = 1
    probe = True                    # only after a piece without a strict reply
    for piece in chunks.pieces(lines):
        if isinstance(piece, bytes):
            start, end, ok, epoch, seq, rtt = chunks.decode_replies(piece, probe)
            probe = not ok.any()
            text = partial(chunks.line_at, piece, (start, end))
        else:
            n = len(piece)
            ok, epoch, seq, rtt = (np.zeros(n, dtype=bool), np.full(n, math.nan),
                                   np.zeros(n), np.zeros(n))
            text = partial(chunks.line_at, piece, None)
        at, read = [], []           # lines the per-line rules read, and their fields
        odd = np.flatnonzero(~ok).tolist()
        if isinstance(piece, bytes) and not ok.any():
            odd_lines = piece.decode("ascii").split("\n")   # all lines, at once
        else:
            odd_lines = map(text, odd)
        for i, line in zip(odd, odd_lines):
            if not _is_reply_candidate(line):
                skipped += 1
            elif (fields := _reply_fields(line)) is None:
                malformed.append((first_no + i, line))
            else:
                at.append(i)
                read.append(fields)
        if at:
            # Exact: _reply_fields bounds seq by 2**53.
            epoch[at], seq[at], rtt[at] = np.array(read).T
            ok[at] = True
        replies = np.flatnonzero(ok)
        unstamped = replies[np.isnan(epoch[replies])].tolist()
        if not stamped and len(unstamped) < len(replies):
            stamped = True
            parts.clear()           # replies without an epoch, all of them
            numbers = np.concatenate(bare).tolist()
            malformed += (_lines_at(lines, set(numbers)) if isinstance(lines, chunks.RawLog)
                          else zip(numbers, bare_lines))
        if stamped:
            malformed += ((first_no + i, text(i)) for i in unstamped)
            ok[unstamped] = False
        else:
            bare.append(first_no + np.array(unstamped, dtype=np.int64))
            if not isinstance(lines, chunks.RawLog):
                bare_lines += map(text, unstamped)
        parts.append((epoch[ok], seq[ok], rtt[ok]))
        first_no += len(ok)
    malformed.sort()
    for line_no, line in malformed:
        # One warning per line, uncapped: perfbench's raw_ingest check
        # reads these line numbers from stderr. Capping them waits for
        # the diagnostics sidecar (ROADMAP item 4).
        log.warning("ping line %d unparseable: %s", line_no, line)
    if not any(len(rtt) for _, _, rtt in parts):
        raise EmptyTraceError("no ping reply lines parsed")
    epoch, seq, rtt = (np.concatenate(col) for col in zip(*parts))
    # Earliest epoch as base, not the first line's, so t_s stays >= 0
    # even when replies arrive out of order.
    t = epoch - epoch.min() if stamped else _unwrap_seq(seq) * meta.ping_interval_s
    order = np.lexsort((seq, t))
    return PingParseResult(
        samples=LatencyTrace(t[order], seq[order], rtt[order]),
        skipped_lines=skipped, malformed=malformed)


def _lines_at(log: chunks.RawLog, numbers) -> Iterator[tuple[int, str]]:
    """(number, line without its line end) of each of the lines of log
    numbered in numbers, read again."""
    last = max(numbers, default=0)
    for line_no, line in zip(range(1, last + 1), log):
        if line_no in numbers:
            yield line_no, line.rstrip("\n")


# Canonical fullstats fields, with value domains in SchedulerTrace.faults.
# column_map maps these names to the header names of the incoming CSV;
# only rnti and dl_bler are mandatory, t_s is the optional timestamp
# column.
FULLSTATS_FIELDS = SchedulerTrace.names()
_REQUIRED_FIELDS = ("rnti", "dl_bler")


def _plain_cell(text: str) -> bool:
    """Whether text holds no "_" and is ASCII: float() and int() read
    "1_0" as 10 and any Unicode digit ("٣") as a digit."""
    return "_" not in text and text.isascii()


def _float_cell(cell: str) -> float:
    """A numeric cell; NaN (absent) when blank. Raises ValueError on
    text that is not a number: "nan", or a cell that is not
    _plain_cell."""
    if not _plain_cell(cell):
        raise ValueError(f"not a number: {cell!r}")
    cell = cell.strip()
    if not cell:
        return math.nan
    v = float(cell)
    if v != v:
        raise ValueError(f"not a number: {cell!r}")
    return v


def _int_cell(cell: str) -> float:
    """Like _float_cell, but a 0x prefix reads as hexadecimal."""
    if _plain_cell(cell) and cell.strip()[:2].lower() == "0x":
        return float(int(cell, 16))
    return _float_cell(cell)


def _settle(col: np.ndarray, ok: np.ndarray, cell, parse) -> dict[int, str]:
    """Read each cell the kernel left (not ok) with parse, _float_cell or
    _int_cell, into col; cell(k) is the text of cell k. Returns the
    position of each cell parse refuses, with the reason."""
    refused = {}
    for k in np.flatnonzero(~ok).tolist():
        try:
            col[k] = parse(cell(k))
        except (ValueError, OverflowError) as exc:
            refused[k] = str(exc)
    return refused


def _column(cells: list[str], parse) -> tuple[np.ndarray, dict[int, str]]:
    """The cells read by parse (_float_cell or _int_cell) through the
    kernel, and the position of each cell parse refuses, with the
    reason."""
    text = "\n".join(cells)
    ok, col = np.zeros(len(cells), dtype=bool), np.empty(len(cells))
    if text.isascii():
        size = np.fromiter(map(len, cells), np.int64, count=len(cells))
        end = len(chunks.PAD) + np.cumsum(size + 1) - 1
        buf = np.frombuffer(chunks.PAD + text.encode() + chunks.PAD, np.uint8)
        ok, col = decimals.decode(buf, end - size, end, integral=parse is _int_cell)
    return col, _settle(col, ok, cells.__getitem__, parse)


def _fullstats_rows(rows: list[list[str]], row_idx: np.ndarray,
                    cells: list[tuple[str, int, object]],
                    faults: dict[int, str]) -> tuple[np.ndarray, np.ndarray]:
    """(table, row_idx): the mapped values of those of rows (numbered
    row_idx) that are not blank and that every cell parser accepts, and
    their row indices. cells holds (field, column, parser) per mapped
    field. A refused row goes into faults with the reason its first
    refused or missing cell gives, in column_map field order."""
    live = [k for k, row in enumerate(rows) if any(map(str.strip, row))]
    rows = [rows[k] for k in live]
    row_idx = row_idx[live]
    table = np.empty((len(rows), len(cells)))
    bad: dict[int, str] = {}
    lengths = np.fromiter(map(len, rows), np.int64, count=len(rows))
    whole = lengths > max(i for _, i, _ in cells)
    for k in np.flatnonzero(~whole).tolist():      # too short for a mapped cell
        row = rows[k]
        try:
            for j, (name, i, parse) in enumerate(cells):
                if i >= len(row):
                    raise ValueError(f"{name} is field {i + 1}, but the row has {len(row)}")
                table[k, j] = parse(row[i])
        except (ValueError, OverflowError) as exc:
            bad[k] = str(exc)
    full = np.flatnonzero(whole)
    full_rows = [rows[k] for k in full]
    for j, (_, i, parse) in enumerate(cells):
        table[full, j], refused = _column(list(map(itemgetter(i), full_rows)), parse)
        for k, reason in refused.items():
            bad.setdefault(int(full[k]), reason)
    keep = np.ones(len(table), dtype=bool)
    for k, reason in bad.items():
        keep[k] = False
        faults[int(row_idx[k])] = reason
    return table[keep], row_idx[keep]


def _plain_rows(piece: bytes, first: int, width: int, cells: list[tuple[str, int, object]],
                faults: dict[int, str]) -> tuple[np.ndarray, np.ndarray]:
    """What _fullstats_rows gives for the rows of piece, plain lines
    each ending in LF and numbered from first, in a file whose header
    has width fields. The lines of width fields are split with numpy
    and their mapped cells read by the kernel; any other line, and one
    without a mapped number (it may be blank), is split on commas and
    read by _fullstats_rows."""
    padded = chunks.PAD + piece + chunks.PAD
    buf = np.frombuffer(padded, np.uint8)
    seps = np.flatnonzero((buf == 44) | (buf == _NL))
    newline = np.flatnonzero(buf[seps] == _NL)
    ends = seps[newline]
    starts = np.concatenate(([len(chunks.PAD)], ends[:-1] + 1))
    seps = np.concatenate(([len(chunks.PAD) - 1], seps))
    lines = np.flatnonzero(np.diff(newline, prepend=-1) == width)
    base = newline[lines] + 1 - width           # seps[base]: the LF before the line
    table = np.empty((len(lines), len(cells)))
    number = np.zeros(len(lines), dtype=bool)
    bad: dict[int, str] = {}
    for j, (_, i, parse) in enumerate(cells):
        start, end = seps[base + i] + 1, seps[base + i + 1]
        ok, table[:, j] = decimals.decode(buf, start, end, integral=parse is _int_cell)
        number |= ok & ~np.isnan(table[:, j])
        cell = partial(chunks.line_at, padded, (start, end))
        for k, reason in _settle(table[:, j], ok, cell, parse).items():
            bad.setdefault(k, reason)
    keep = number.copy()
    for k, reason in bad.items():
        if number[k]:
            keep[k] = False
            faults[first + int(lines[k])] = reason
    rest = np.setdiff1d(np.arange(len(ends)), lines[number], assume_unique=True)
    split = [padded[a:b].decode("ascii").split(",") if b > a else []
             for a, b in zip(starts[rest].tolist(), ends[rest].tolist())]
    more, more_idx = _fullstats_rows(split, first + rest, cells, faults)
    row_idx = np.concatenate((first + lines[keep], more_idx))
    order = np.argsort(row_idx, kind="stable")
    return np.concatenate((table[keep], more))[order], row_idx[order]


def _fullstats_blocks(lines: Iterable[str]) -> Iterator[list[str] | bytes | list[list[str]]]:
    """The rows of a fullstats input: its header row (None if it has no
    line), then blocks of rows, a chunks.pieces piece at a time. A plain
    piece whose lines csv.reader would split on commas alone is a bytes
    block, each line a row; every other line goes to one csv.reader,
    whose rows up to the end of a piece are a list block, so a quoted
    field may run on into the next piece (which it then reads too). A
    line csv.reader cannot split (an unterminated quote, a field past
    csv.field_size_limit()) raises MalformedRecordError naming it."""
    pieces = chunks.pieces(lines)
    pending: deque[str] = deque()   # lines for csv.reader
    line_no = 0                     # lines read so far
    head = next(pieces, [])
    if isinstance(head, bytes):     # the header line goes to csv.reader
        cut = head.index(b"\n") + 1
        pieces = chain([head[cut:]] if cut < len(head) else [], pieces)
        head = [head[:cut].decode("ascii")]
    pending.extend(head)

    def feed():
        nonlocal line_no
        while True:
            while pending:
                line_no += 1
                yield pending.popleft()
            piece = next(pieces, None)
            if piece is None:
                return
            pending.extend(chunks.text_lines(piece))

    reader = csv.reader(feed())
    try:
        yield next(reader, None)
        while pending or (piece := next(pieces, None)) is not None:
            if not pending:
                if isinstance(piece, bytes):
                    ends = np.flatnonzero(np.frombuffer(piece, np.uint8) == _NL)
                    if np.diff(ends, prepend=-1).max() <= csv.field_size_limit():
                        line_no += len(ends)
                        yield piece
                        continue
                pending.extend(chunks.text_lines(piece))
            rows = [next(reader)]
            while pending:
                rows.append(next(reader))
            yield rows
    except csv.Error as exc:
        raise MalformedRecordError(getattr(lines, "name", "fullstats input"), line_no,
                                   f"not CSV: {exc}") from None


def parse_fullstats(lines: Iterable[str], column_map: Mapping[str, str],
                    meta: RunMetadata, *,
                    stats_period_s: float = 1.0) -> FullstatsParseResult:
    """Parse a delimited fullstats table into scheduler snapshots.

    column_map maps canonical field names (FULLSTATS_FIELDS) to header
    names in the incoming file. Without a mapped t_s column, row index
    times stats_period_s is used as the snapshot time; a mapped t_s is
    rebased so the earliest kept snapshot lies at 0. Rows with values
    outside the documented domains are skipped and counted.

    lines is a RawLog or an iterable of str lines, read in blocks of
    rows (_fullstats_blocks): a plain block is split with numpy
    (_plain_rows), and any other rows come from csv.reader, which
    defines them.
    """
    for name in _REQUIRED_FIELDS:
        if name not in column_map:
            raise MissingColumnError(f"column_map must map {name!r}")
    unknown = set(column_map) - set(FULLSTATS_FIELDS)
    if unknown:
        raise InvalidSpecError(f"unknown canonical fields in column_map: {sorted(unknown)}")

    blocks = _fullstats_blocks(lines)
    header = next(blocks)
    if header is None:
        raise EmptyTraceError("fullstats input has no header row")
    header = [h.strip() for h in header]
    missing = [col for col in column_map.values() if col not in header]
    if missing:
        raise MissingColumnError(f"mapped columns absent from header: {missing}")
    mapped = [name for name in FULLSTATS_FIELDS if name in column_map]
    cells = [(name, header.index(column_map[name]),
              _int_cell if name in SchedulerTrace.INTEGRAL else _float_cell)
             for name in mapped]

    tables = [np.empty((0, len(mapped)))]
    kept_idx = [np.empty(0, dtype=np.int64)]
    faults: dict[int, str] = {}     # row index -> why the row is skipped
    first = 0
    for block in blocks:
        if isinstance(block, bytes):
            table, row_idx = _plain_rows(block, first, len(header), cells, faults)
            first += block.count(b"\n")
        else:
            row_idx = first + np.arange(len(block))
            table, row_idx = _fullstats_rows(block, row_idx, cells, faults)
            first += len(block)
        tables.append(table)
        kept_idx.append(row_idx)
    table = np.concatenate(tables)
    row_idx_of = np.concatenate(kept_idx)   # row index of each row of table

    cols = {name: np.full(len(table), np.nan) for name in FULLSTATS_FIELDS}
    cols.update((name, table[:, j]) for j, name in enumerate(mapped))
    if "t_s" not in column_map:
        cols["t_s"] = row_idx_of * stats_period_s
    keep = np.ones(len(table), dtype=bool)
    for pos, reason in SchedulerTrace.faults(cols).items():
        keep[pos] = False
        faults[int(row_idx_of[pos])] = reason
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
