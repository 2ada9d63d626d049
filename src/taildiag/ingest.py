"""Raw log ingestion and the in-memory run model.

A run holds each layer as a trace: numpy columns, one per field, in
time order, with optional scheduler fields NaN where a snapshot lacks
them. Each trace class owns its value rules (`faults`), which the raw
parsers and the canonical readers apply alike, and whether an empty
canonical cell reads as NaN. Iterating or indexing a trace yields
LatencySample / SchedulerSnapshot rows with built-in Python values.

Both parsers are tolerant: lines or rows that cannot be used are counted
and reported, never silently dropped, and never abort the parse. An
input that yields zero usable records raises EmptyTraceError, and a
fullstats file the CSV reader cannot split raises MalformedRecordError
at its line.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import islice
from operator import itemgetter, methodcaller
from typing import ClassVar, Iterable, Mapping, NamedTuple

import numpy as np

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
# Integers beyond this lose their last digits in a float64 column.
_MAX_EXACT_INT = 2.0 ** 53


def _not_integer(values: np.ndarray) -> np.ndarray:
    """Mask of values that are not integers float64 holds exactly
    (NaN and infinities included)."""
    return ~(np.abs(values) <= _MAX_EXACT_INT) | (np.floor(values) != values)


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


_EPOCH_RE = re.compile(r"^\[([0-9]+(?:\.[0-9]+)?)\]")
_REPLY_RE = re.compile(r"icmp_[sr]eq=([0-9]+)\b.*?\btime=([0-9]+(?:\.[0-9]+)?)\s*ms")
_SEQ_MOD = 1 << 16

# Lines (ping) or rows (fullstats) the raw parsers read at a time, so a
# log is never held whole.
_BLOCK_LINES = 16384
# The longest number, in bytes, that the block decoder reads; a line
# with a longer one takes the per-line rules.
_MAX_NUMBER = 18
# Bytes of padding around a block, so every window the decoder reads
# lies inside the buffer.
_PAD = 32
_INT_POW10 = 10 ** np.arange(_MAX_NUMBER + 1, dtype=np.int64)
_POW10 = _INT_POW10.astype(float)               # exact: 10**k for k <= 22
_DOT, _EQ, _NL = ord("."), ord("="), ord("\n")
_LAST = itemgetter(slice(-1, None))             # a line's last character, if any
# Lines at the head of a block that must hold a strict reply for the
# block to be decoded together, so a log without that shape goes to the
# per-line rules without paying for the block pass too.
_PROBE_LINES = 64


def _is_reply_candidate(line: str) -> bool:
    return "bytes from" in line and ("icmp_seq=" in line or "icmp_req=" in line)


def _reply_fields(line: str) -> tuple[float, int, float] | None:
    """(epoch, seq, rtt_ms) of a reply-like line without its line end,
    epoch NaN when the line has none. None when the line is malformed:
    no seq and time fields, an rtt that is not finite and > 0, a seq
    beyond 2**53 (the largest a float64 column holds exactly), or an
    epoch that is not finite."""
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
    if not 0.0 < rtt < math.inf or seq > _MAX_EXACT_INT or epoch == math.inf:
        return None
    return epoch, seq, rtt


def _rows(buf: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes of buf from each position in pos, one row each
    (pos clipped into buf)."""
    view = np.lib.stride_tricks.sliding_window_view(buf, width)
    return view[np.clip(pos, 0, len(view) - 1)]


def _holds(buf: np.ndarray, pos: np.ndarray, *words: bytes) -> np.ndarray:
    """Mask of the positions in pos at which buf holds one of words, all
    of one length."""
    rows = _rows(buf, pos, len(words[0])).view(f"S{len(words[0])}")[:, 0]
    return np.logical_or.reduce([rows == word for word in words])


def _run_end(buf: np.ndarray, pos: np.ndarray, width: int, dots: bool) -> np.ndarray:
    """End of the run of digits (and dots, with `dots`) from each
    position in pos; pos itself where the run is `width` bytes or
    longer."""
    rows = _rows(buf, pos, width)
    numeric = (rows - 48) < 10
    if dots:
        numeric |= rows == _DOT
    return pos + np.argmin(numeric, axis=1)


def _numbers(buf: np.ndarray, start: np.ndarray, end: np.ndarray, ok: np.ndarray,
             integral: bool) -> tuple[np.ndarray, np.ndarray]:
    r"""(ok, value) of the fields buf[start:end] where ok is set on entry:
    ok stays set where a field is 1 to _MAX_NUMBER bytes of the form
    [0-9]+ (integral) or [0-9]+(\.[0-9]+)?, the byte before it is no
    digit, and its digits as one integer, the mantissa, are below 2**53.
    Then value is float() of the field: mantissa / 10**k for k digits
    after the dot, exact since both are exact in float64 (Clinger's fast
    path)."""
    length = end - start
    ok = ok & (length >= 1) & (length <= _MAX_NUMBER)
    width = int(length[ok].max()) + 1 if ok.any() else 2
    rows = _rows(buf, end - width, width)           # fields right-aligned
    values = rows - 48
    digit = values < 10
    inside = np.arange(width) >= (width - length)[:, None]
    edge = width - 1 - length                       # column of the byte before
    # Column of the last byte that is no digit: edge when all are digits.
    last = width - 1 - np.argmin(digit[:, ::-1], axis=1)
    # Exact in int64: width exceeds every kept field, so column 0 holds
    # no digit of one and its sum stays below 10**18.
    raw = (values * (digit & inside)) @ _INT_POW10[width - 1::-1]
    if integral:
        ok &= (last == edge) & (raw < _MAX_EXACT_INT)
        return ok, raw.astype(float)
    point = (ok & (np.argmax(~digit & inside, axis=1) == last)
             & (rows[np.arange(len(rows)), last] == _DOT)
             & (last > edge + 1) & (last < width - 1))
    # Left of the dot, raw weighs each digit ten times too much.
    scale = _INT_POW10[np.where(point, width - last, 0)]
    frac = raw % scale
    mantissa = np.where(point, (raw - frac) // 10 + frac, raw)
    ok &= ((last == edge) | point) & (mantissa < _MAX_EXACT_INT)
    return ok, mantissa / _POW10[np.where(point, width - 1 - last, 0)]


def _block_buffer(block: list[str]) -> np.ndarray | None:
    """The lines of block as one ASCII byte buffer, each ending in one
    newline (added where it has none), padded by _PAD bytes either side.
    None when a line holds a line break before its end or the block is
    not ASCII."""
    text = "".join(block)
    if text.count("\n") != len(block):
        block = [line if line.endswith("\n") else line + "\n" for line in block]
        text = "".join(block)
    if (text.count("\n") != len(block) or "".join(map(_LAST, block)) != "\n" * len(block)
            or not text.isascii()):
        return None
    pad = b"\0" * _PAD
    return np.frombuffer(pad + text.encode("ascii") + pad, np.uint8)


def _decode_block(block: list[str]) -> tuple[np.ndarray, ...]:
    """(ok, epoch, seq, rtt_ms): per line of block, whether it has the
    strict reply shape

        [EPOCH] N bytes from HOST: icmp_seq=S ttl=T time=R ms

    (epoch optional, icmp_req= also accepted, HOST and T free of '=',
    each number short enough for _numbers) and values the per-line
    rules accept, and if so its fields, epoch NaN when absent. The
    per-line rules give the same fields for every such line; every
    other line is left to them, and so is every line of a block whose
    first _PROBE_LINES lines hold no such line."""
    n = len(block)
    epoch, seq, rtt = np.full(n, math.nan), np.zeros(n, dtype=np.int64), np.zeros(n)
    if (n > _PROBE_LINES and not _decode_block(block[:_PROBE_LINES])[0].any()
            or (buf := _block_buffer(block)) is None):
        return np.zeros(n, dtype=bool), epoch, seq, rtt
    # The three '=' of a reply (icmp_seq=, ttl=, time=), found between
    # the newlines, which end the n lines.
    marks = np.flatnonzero((buf == _EQ) | (buf == _NL))
    newlines = np.flatnonzero(buf[marks] == _NL)
    end = marks[newlines]
    start = np.concatenate(([_PAD], end[:-1] + 1))
    before = np.concatenate(([-1], newlines[:-1]))
    ok = newlines - before == 4
    e_seq, e_ttl, e_time = (marks[np.minimum(before + k, len(marks) - 1)] for k in (1, 2, 3))
    ok &= (_holds(buf, e_seq - 10, b": icmp_seq=", b": icmp_req=")
           & _holds(buf, e_ttl - 4, b" ttl=") & _holds(buf, e_time - 5, b" time=")
           & _holds(buf, end - 3, b" ms"))
    stamped = buf[start] == ord("[")
    stamp_end = _run_end(buf, start + 1, _MAX_NUMBER + 1, dots=True)
    stamp_ok, stamp = _numbers(buf, start + 1, stamp_end, ok & stamped, integral=False)
    ok &= ~stamped | (stamp_ok & _holds(buf, stamp_end, b"] "))
    size = np.where(stamped, stamp_end + 2, start)
    size_end = _run_end(buf, size, 8, dots=False)
    ok &= ((size_end > size) & _holds(buf, size_end, b" bytes from ")
           & (size_end + 12 <= e_seq - 10))
    ok, seq_value = _numbers(buf, e_seq + 1, e_ttl - 4, ok, integral=True)
    ok, rtt_value = _numbers(buf, e_time + 1, end - 3, ok, integral=False)
    ok &= rtt_value > 0.0
    epoch[ok & stamped] = stamp[ok & stamped]
    seq[ok] = seq_value[ok]
    rtt[ok] = rtt_value[ok]
    return ok, epoch, seq, rtt


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

    Lines are read in blocks of _BLOCK_LINES. The lines of a block that
    have the strict reply shape (_decode_block) are decoded together;
    every other line is read by the per-line rules, which define the
    result for every line.
    """
    skipped = 0
    malformed: list[tuple[int, str]] = []
    parts: list[tuple[np.ndarray, ...]] = []
    line_iter = iter(lines)
    first_no = 1
    while block := list(islice(line_iter, _BLOCK_LINES)):
        ok, epoch, seq, rtt = _decode_block(block)
        at, read = [], []           # lines the per-line rules read, and their fields
        for i in np.flatnonzero(~ok).tolist():
            line = block[i].rstrip("\n")
            if not _is_reply_candidate(line):
                skipped += 1
                continue
            fields = _reply_fields(line)
            if fields is None:
                malformed.append((first_no + i, line))
                # One warning per line, uncapped: perfbench's raw_ingest
                # check reads these line numbers from stderr. Capping them
                # waits for the diagnostics sidecar (ROADMAP item 4).
                log.warning("ping line %d unparseable: %s", first_no + i, line)
                continue
            at.append(i)
            read.append(fields)
        if at:
            # Exact: _reply_fields bounds seq by 2**53.
            epoch[at], seq[at], rtt[at] = np.array(read).T
            ok[at] = True
        parts.append((epoch[ok], seq[ok], rtt[ok]))
        first_no += len(block)
    if not any(len(rtt) for _, _, rtt in parts):
        raise EmptyTraceError("no ping reply lines parsed")
    epoch, seq, rtt = (np.concatenate(col) for col in zip(*parts))
    stamped = ~np.isnan(epoch)
    # Earliest epoch as base, not the first line's, so t_s stays >= 0
    # even when replies arrive out of order.
    base = epoch[stamped].min() if stamped.any() else 0.0
    t = np.where(stamped, epoch - base, _unwrap_seq(seq) * meta.ping_interval_s)
    order = np.lexsort((seq, t))
    return PingParseResult(
        samples=LatencyTrace(t[order], seq[order], rtt[order]),
        skipped_lines=skipped, malformed=malformed)


# Canonical fullstats fields, with value domains in SchedulerTrace.faults.
# column_map maps these names to the header names of the incoming CSV;
# only rnti and dl_bler are mandatory, t_s is the optional timestamp
# column.
FULLSTATS_FIELDS = SchedulerTrace.names()
_REQUIRED_FIELDS = ("rnti", "dl_bler")


def _plain(text: str) -> bool:
    """Whether text holds no "_" and is ASCII: float() and int() read
    "1_0" as 10 and any Unicode digit ("\u0663") as a digit."""
    return "_" not in text and text.isascii()


def _float_cell(cell: str) -> float:
    """A numeric cell; NaN (absent) when blank. Raises ValueError on
    text that is not a number: "nan", or a cell that is not _plain."""
    if not _plain(cell):
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
    if _plain(cell) and cell.strip()[:2].lower() == "0x":
        return float(int(cell, 16))
    return _float_cell(cell)


def _column(cells: list[str], parse) -> tuple[np.ndarray, dict[int, str]]:
    """The cells read by parse (_float_cell or _int_cell), and the
    position of each cell it refuses, with the reason. When the joined
    cells are _plain, one pass converts them all with float(), or for
    _int_cell, when every cell has the 0x prefix, with int(cell, 16);
    only otherwise, or when that raises or meets a NaN, are the cells
    read one by one by parse itself."""
    try:
        if _plain("".join(cells)):
            try:
                col = np.fromiter(map(float, cells), float, count=len(cells))
            except ValueError:
                if parse is not _int_cell or not all(
                        map(methodcaller("startswith", ("0x", "0X")), cells)):
                    raise
                col = np.fromiter(map(float, map(partial(int, base=16), cells)), float,
                                  count=len(cells))
            if not np.isnan(col).any():
                return col, {}
    except (ValueError, OverflowError):
        pass
    col = np.empty(len(cells))
    refused = {}
    for k, cell in enumerate(cells):
        try:
            col[k] = parse(cell)
        except (ValueError, OverflowError) as exc:
            refused[k] = str(exc)
    return col, refused


def _fullstats_rows(rows: list[list[str]], first: int, cells: list[tuple[str, int, object]],
                    faults: dict[int, str]) -> tuple[np.ndarray, np.ndarray]:
    """(table, row_idx): the mapped values of those of rows that are not
    blank and that every cell parser accepts, and their row indices
    (rows[0] has index first). cells holds (field, column, parser) per
    mapped field. A refused row goes into faults with the reason its
    first refused or missing cell gives, in column_map field order."""
    live = [k for k, row in enumerate(rows) if any(map(str.strip, row))]
    rows = [rows[k] for k in live]
    row_idx = first + np.array(live, dtype=np.int64)
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


def _csv_rows(lines: Iterable[str]):
    """The rows csv.reader splits lines into. A line it cannot split (an
    unterminated quote, a field past csv.field_size_limit()) raises
    MalformedRecordError naming the line, in the file lines were read
    from when they come from an open file."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedRecordError(getattr(lines, "name", "fullstats input"),
                                   reader.line_num, f"not CSV: {exc}") from None


def parse_fullstats(lines: Iterable[str], column_map: Mapping[str, str],
                    meta: RunMetadata, *,
                    stats_period_s: float = 1.0) -> FullstatsParseResult:
    """Parse a delimited fullstats table into scheduler snapshots.

    column_map maps canonical field names (FULLSTATS_FIELDS) to header
    names in the incoming file. Without a mapped t_s column, row index
    times stats_period_s is used as the snapshot time; a mapped t_s is
    rebased so the earliest kept snapshot lies at 0. Rows with values
    outside the documented domains are skipped and counted.

    Rows are read in blocks of _BLOCK_LINES and converted column by
    column.
    """
    for name in _REQUIRED_FIELDS:
        if name not in column_map:
            raise MissingColumnError(f"column_map must map {name!r}")
    unknown = set(column_map) - set(FULLSTATS_FIELDS)
    if unknown:
        raise InvalidSpecError(f"unknown canonical fields in column_map: {sorted(unknown)}")

    reader = _csv_rows(lines)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise EmptyTraceError("fullstats input has no header row") from None
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
    while rows := list(islice(reader, _BLOCK_LINES)):
        table, row_idx = _fullstats_rows(rows, first, cells, faults)
        tables.append(table)
        kept_idx.append(row_idx)
        first += len(rows)
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
