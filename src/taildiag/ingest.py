"""Raw log ingestion: ping logs and fullstats CSVs into traces.

One reader, `parse_raw_logs`, parses the raw logs of a run, either or
both; `parse_ping_log` and `parse_fullstats` are its one-log forms. It
reads a RawLog, a file or the bytes str lines given from code join to
(RawLog.of), cut into chunks of whole lines by one rule, so that a
file is never held whole and str lines read as the file holding their
bytes. A log is read in pieces (`RawLog.pieces`), one per chunk, each
bytes of UTF-8 lines ending in LF (the last line of the log may not):
a chunk that is ASCII without CR as it is, and any other decoded with
universal newlines and encoded again. Lines numpy can prove whole are
read together, through the exact decimal reader (`decode_replies` the
ping replies, `decimals.numeric_lines` the fullstats cells); every
other line goes to its format's per-line rules, which define the
result. Each log is parsed in steps (`_PingParse`, `_FullstatsParse`):
where the ping log is large, its tail is read by one forked child
while this process reads its head and then the whole fullstats log,
and the two ping reads are joined; the parses are then finished, with
the outcome of reading the logs whole one after the other. The
parsers are tolerant: lines or rows that cannot be used are counted
and reported, never silently dropped, and never abort the parse. An input that yields zero usable records raises
EmptyTraceError, and a fullstats file the CSV reader cannot split, or
a byte that is not UTF-8, raises MalformedRecordError at its line. The
traces they give obey the value rules of the run model (`model`),
whose `consolidate_run` and `select_dominant_rnti`, which take parsed
traces on to a run, this module also binds.
"""

from __future__ import annotations

import csv
import io
import math
import os
import pickle
import re
from collections import deque
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import canon, decimals
from .errors import (
    EmptyTraceError,
    InvalidSpecError,
    MalformedRecordError,
    MissingColumnError,
    decode_text,
    warn,
)
from .model import (
    MAX_EXACT_INT,
    LatencyTrace,
    RunMetadata,
    SchedulerTrace,
    _check_finite,
    consolidate_run,
    select_dominant_rnti,
)

# Bytes of a raw log read at a time, so a log is never held whole, and
# read at a time in a search for a line end (RawLog.line_start).
_CHUNK_BYTES = 1 << 20
_FIND_BYTES = 1 << 16
_EQ, _NL = ord("="), ord("\n")
# A ping log of at least this many bytes is cut in two, its tail read by
# a forked child (canon.split_work) where canon.may_split holds.
_SPLIT_BYTES = 1 << 22


class RawLog:
    """A raw log, UTF-8 text read as bytes: the file at `path`, or `data`,
    the bytes str lines join to (`RawLog.of`). Both are read by one
    rule, _CHUNK_BYTES at a time and cut after the last line end read
    (`RawLog.pieces`), so a file is never held whole. The raw parsers
    decode a plain piece without making a str of any line; iterating the
    log yields its lines as a text file does, with universal newlines. A
    byte that is not UTF-8 raises MalformedRecordError at its line."""

    def __init__(self, path: str | Path, data: bytes | None = None) -> None:
        self.name = str(path)
        self._data = data

    @classmethod
    def of(cls, lines: RawLog | Iterable[str], name: str) -> RawLog:
        """lines as it is if a RawLog; else a RawLog named `name` of the
        UTF-8 text the str lines join to, an LF added where a line has
        none. A lone surrogate is encoded as it is (`surrogatepass`):
        bytes that are not UTF-8, which the parsers refuse at its line."""
        if isinstance(lines, RawLog):
            return lines
        text = "".join(line if line.endswith("\n") else line + "\n" for line in lines)
        return cls(name, text.encode("utf-8", "surrogatepass"))

    def _open(self):
        return open(self.name, "rb") if self._data is None else io.BytesIO(self._data)

    def size(self) -> int:
        """The log's length in bytes."""
        return os.path.getsize(self.name) if self._data is None else len(self._data)

    def line_start(self, offset: int) -> int:
        """The first line start at or after byte offset (at most the log's
        size): the log's start for an offset below 1, its size if no line
        starts there. Read in blocks of _FIND_BYTES, as a line
        end is mostly near."""
        if offset < 1:
            return 0
        with self._open() as fh:
            fh.seek(offset - 1)         # a line starts at offset if an LF ends here
            while block := fh.read(_FIND_BYTES):
                if (i := block.find(b"\n")) >= 0:
                    return offset + i
                offset += len(block)
        return offset - 1

    def pieces(self, start: int = 0, stop: int | None = None) -> Iterator[bytes]:
        """The log's bytes from start to stop (to its end if None), both
        at the start of a line, in pieces of whole lines, one per chunk
        of about _CHUNK_BYTES (a longer line is one chunk), each UTF-8
        text whose lines end in LF, the last line of the log without one
        if it has none: a chunk that is ASCII without CR as it is, any
        other decoded with universal newlines and encoded again. Lines
        are counted as the pieces pass, the one at start numbered 1, to
        name a byte that is not UTF-8."""
        line = 1
        rest = b""
        with self._open() as fh:
            fh.seek(start)
            left = math.inf if stop is None else stop - start
            while True:
                block = fh.read(min(_CHUNK_BYTES, left))
                left -= len(block)
                data = rest + block
                # After the last LF, or in a log without one after the last
                # CR but a final one, which may begin a CRLF; at the end,
                # after all that is left.
                cut = (data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, len(data) - 1) + 1
                       if block else len(data))
                data, rest = data[:cut], data[cut:]
                if data:
                    if not data.isascii() or b"\r" in data:
                        data = decode_text(self.name, data, line).encode()
                    line += _line_ends(data)
                    yield data
                if not block:
                    return

    def __iter__(self) -> Iterator[str]:
        for piece in self.pieces():
            yield from text_lines(piece)


def _line_ends(data: bytes) -> int:
    """The LFs in data, counted by numpy, which is faster than
    bytes.count."""
    return int(np.count_nonzero(np.frombuffer(data, np.uint8) == _NL))


def text_lines(piece: bytes) -> list[str]:
    """The lines of a piece as str, each with its LF (the last line of
    the log without one if it has none)."""
    return io.StringIO(piece.decode()).readlines()


class PingParseResult(NamedTuple):
    """Samples plus an accounting of every input line.

    len(samples) + skipped_lines + len(malformed) equals the number of
    lines consumed. skipped_lines counts non-reply lines (headers,
    summaries, timeouts); malformed holds reply-looking lines whose
    fields could not be extracted, as (line_number, line) pairs.
    """

    samples: LatencyTrace
    skipped_lines: int
    malformed: list[tuple[int, str]]


class FullstatsParseResult(NamedTuple):
    snapshots: SchedulerTrace
    skipped_rows: int


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


def _holds(at: np.ndarray, pos: np.ndarray, *texts: bytes) -> np.ndarray:
    """Mask of the positions in pos at which one of texts, of at most 16
    bytes, begins in the buffer whose words_at is `at`."""
    found = np.zeros(len(pos), dtype=bool)
    for text in texts:
        here = np.ones(len(pos), dtype=bool)
        for off in range(0, len(text), 8):
            part = text[off:off + 8]
            mask = np.uint64((1 << 8 * len(part)) - 1)
            here &= (at[pos + off] & mask) == np.uint64(int.from_bytes(part, "little"))
        found |= here
    return found


# Byte k holds 7 - k: the top byte of (1 << 8i) * _BYTE_INDEX is i.
_BYTE_INDEX = np.uint64(0x0001020304050607)


def _find(at: np.ndarray, pos: np.ndarray, byte: int, words: int) -> np.ndarray:
    """The position of the first `byte` in the 8 * words bytes from each
    position in pos, in the buffer whose words_at is `at`; the end of
    those bytes where none is."""
    found = pos + 8 * words
    for j in range(words - 1, -1, -1):
        first = decimals.first_byte(at[pos + 8 * j], byte)
        index = (first * _BYTE_INDEX) >> np.uint64(56)
        found = np.where(first != 0, pos + 8 * j + index.astype(np.int64), found)
    return found


def _digit(buf: np.ndarray, pos: np.ndarray) -> np.ndarray:
    return (buf[pos] - 48) < 10


def decode_replies(chunk: bytes) -> tuple[np.ndarray, ...]:
    """(start, end, ok, epoch, seq, rtt_ms): per line of chunk, a piece
    (UTF-8 text whose lines end in LF, the last may not), the line's
    bytes chunk[start:end] without its LF, whether it has the strict reply
    shape

        [EPOCH] N bytes from HOST: icmp_seq=S ttl=T time=R ms

    (epoch optional, icmp_req= also accepted, EPOCH below 24 bytes and
    N below 8 without spaces, HOST and T free of '=', each number one
    the kernel reads) and values the per-line rules of the ping parser
    accept, and if so its fields, epoch NaN when absent. Those rules
    give the same fields for every such line: a byte outside ASCII, or
    a NUL, can lie only in N, HOST and T, which they read past. Every
    other line is left to them, as is."""
    pad = len(decimals.PAD)
    buf = np.frombuffer(b"".join((decimals.PAD, chunk, b"" if chunk[-1:] == b"\n" else b"\n",
                                  decimals.PAD)), np.uint8)
    at = decimals.words_at(buf)
    # The three '=' of a reply (icmp_seq=, ttl=, time=), found between
    # the newlines, which end the lines.
    marks = np.flatnonzero((buf == _EQ) | (buf == _NL))
    newlines = np.flatnonzero(buf[marks] == _NL)
    end = marks[newlines]
    start = np.concatenate(([pad], end[:-1] + 1))
    n = len(end)
    epoch, seq, rtt = np.full(n, math.nan), np.zeros(n), np.zeros(n)
    before = np.concatenate(([-1], newlines[:-1]))
    ok = newlines - before == 4
    e_seq, e_ttl, e_time = (marks[np.minimum(before + k, len(marks) - 1)] for k in (1, 2, 3))
    ok &= (_holds(at, e_seq - 10, b": icmp_seq=", b": icmp_req=")
           & _holds(at, e_ttl - 4, b" ttl=") & _holds(at, e_time - 5, b" time=")
           & _holds(at, end - 3, b" ms"))
    stamped = buf[start] == ord("[")
    stamp_end = _find(at, start + 1, ord("]"), 3)
    ok &= ~stamped | _holds(at, stamp_end, b"] ")
    size = np.where(stamped, stamp_end + 2, start)
    size_end = _find(at, size, ord(" "), 1)
    ok &= _holds(at, size_end, b" bytes from ") & (size_end + 12 <= e_seq - 10)
    bounds = start - pad, end - pad
    if not ok.any():
        return *bounds, ok, epoch, seq, rtt
    stamp_ok, stamp = decimals.decode(buf, start + 1, stamp_end)
    ok &= ~stamped | (stamp_ok & _digit(buf, start + 1) & _digit(buf, stamp_end - 1))
    # A digit first, and second if any: no sign, and no 0x prefix.
    seq_ok, seq_value = decimals.decode(buf, e_seq + 1, e_ttl - 4, integral=True)
    ok &= seq_ok & _digit(buf, e_seq + 1) & (_digit(buf, e_seq + 2) | (e_ttl - 4 == e_seq + 2))
    rtt_ok, rtt_value = decimals.decode(buf, e_time + 1, end - 3)
    ok &= rtt_ok & _digit(buf, e_time + 1) & _digit(buf, end - 4) & (rtt_value > 0.0)
    epoch[ok & stamped] = stamp[ok & stamped]
    seq[ok] = seq_value[ok]
    rtt[ok] = rtt_value[ok]
    return *bounds, ok, epoch, seq, rtt


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


def _read_replies(pieces: Iterable[bytes]) -> tuple:
    """What the ping parse reads from pieces, its lines numbered from 1:
    (lines, skipped, malformed, bare, epoch, seq, rtt), where bare holds
    the line numbers of the replies without an epoch, and epoch, seq and
    rtt the fields of every reply, in line order."""
    skipped = 0
    malformed: list[tuple[int, str]] = []
    # Per piece: the line numbers of its replies without an epoch, and
    # the epochs, seqs and rtts of all its replies.
    parts = [(np.empty(0, np.int64),) + (np.empty(0),) * 3]
    first_no = 1
    for piece in pieces:
        start, end, ok, epoch, seq, rtt = decode_replies(piece)
        odd = np.flatnonzero(~ok).tolist()
        if not ok.any():            # no strict reply: all lines, at once
            odd_lines = piece.decode().split("\n")
        else:
            odd_lines = (piece[start[i]:end[i]].decode() for i in odd)
        at, read = [], []           # lines the per-line rules read, and their fields
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
        bare = np.flatnonzero(ok & np.isnan(epoch))
        parts.append((first_no + bare, epoch[ok], seq[ok], rtt[ok]))
        first_no += len(ok)
    return first_no - 1, skipped, malformed, *map(np.concatenate, zip(*parts))


def _sort_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """np.lexsort((minor, major)), the stable order by major, then minor,
    for a major without NaN: a stable sort by major, fast on the nearly
    sorted times the parsers give, then the few runs of equal major
    values sorted by minor."""
    order = np.argsort(major, kind="stable")
    ranked = major[order]
    tied = ranked[1:] == ranked[:-1]
    if tied.any():
        # The positions in a run of equal values.
        at = np.flatnonzero(np.concatenate((tied, [False])) | np.concatenate(([False], tied)))
        runs = order[at]
        order[at] = runs[np.lexsort((minor[runs], ranked[at]))]
    return order


class _PingParse:
    """The ping parse of one log, in the steps `parse_raw_logs` takes:
    what a byte range of it reads (`read`, lines numbered from the
    range's start), two adjacent reads as one (`join`), and the result
    of the whole log's read (`finish`), which alone warns."""

    def __init__(self, log: RawLog, meta: RunMetadata) -> None:
        self.log, self.meta = log, meta

    def read(self, start: int = 0, stop: int | None = None) -> tuple:
        return _read_replies(self.log.pieces(start, stop))

    @staticmethod
    def join(head: tuple, tail: tuple) -> tuple:
        lines, skipped, malformed, bare, *fields = head
        more, more_skipped, more_malformed, more_bare, *more_fields = tail
        malformed += [(lines + n, line) for n, line in more_malformed]
        return (lines + more, skipped + more_skipped, malformed,
                np.concatenate((bare, lines + more_bare)),
                *map(np.concatenate, zip(fields, more_fields)))

    def finish(self, read: tuple) -> PingParseResult:
        log, meta = self.log, self.meta
        _, skipped, malformed, bare, epoch, seq, rtt = read
        stamped = len(bare) < len(rtt)
        if stamped and len(bare):
            # In a log where some reply has an epoch, one without is malformed.
            malformed += _lines_at(log, set(bare.tolist()))
            keep = ~np.isnan(epoch)
            epoch, seq, rtt = epoch[keep], seq[keep], rtt[keep]
        malformed.sort()
        for line_no, line in malformed:
            warn(f"ping line {line_no} unparseable: {line}")
        if not len(rtt):
            raise EmptyTraceError(f"{log.name}: no ping reply lines parsed")
        # Earliest epoch as base, not the first line's, so t_s stays >= 0
        # even when replies arrive out of order.
        if stamped:
            t = epoch - epoch.min()
        else:
            t = _unwrap_seq(seq)                # the sequence count
            _check_finite(float(t.max()) * meta.ping_interval_s, "latency",
                          f"seq count {int(t.max())} times ping_interval_s "
                          f"{meta.ping_interval_s!r}")
            t = t * meta.ping_interval_s
        order = _sort_order(t, seq)
        return PingParseResult(
            samples=LatencyTrace(t[order], seq[order], rtt[order]),
            skipped_lines=skipped, malformed=malformed)


def _lines_at(log: RawLog, numbers) -> Iterator[tuple[int, str]]:
    """(number, line without its line end) of each of the lines of log
    numbered in numbers, read again from its start."""
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


def _row_values(cells: list[tuple[str, int, object]], faults: dict[int, str], first: int,
                k: int, row: list[str]) -> list[float] | None:
    """The mapped values of row k of a block whose first row has index
    first, each mapped cell read by its parser, per (field, column,
    parser) of cells. None for a blank row, and for a row too short for
    a mapped cell or with a cell its parser refuses, which goes into
    faults with the reason of the first such cell in cells order."""
    if not any(map(str.strip, row)):
        return None
    try:
        values = []
        for name, i, parse in cells:
            if i >= len(row):
                raise ValueError(f"{name} is field {i + 1}, but the row has {len(row)}")
            values.append(parse(row[i]))
        return values
    except (ValueError, OverflowError) as exc:
        faults[first + k] = str(exc)
        return None


def _fullstats_blocks(log: RawLog) -> Iterator:
    """The rows of a fullstats log: its header row first (None if it has
    no line; a leading UTF-8 byte-order mark, as spreadsheet exports
    write, dropped), then a (piece, rows) block per piece. A piece of
    lines ending in LF without a double quote or NUL, whose lines
    csv.reader would therefore split on commas alone, is read by numpy:
    (piece, None), each line a row. Every other line goes to one strict
    csv.reader (whose rules define the rows, and what a NUL is), whose
    rows up to the end of a piece are a (None, rows) block, so a quoted
    field may run on into the next piece (which it then reads too). A
    record csv.reader cannot split (an unterminated quote, text after a
    closing quote, a field past csv.field_size_limit()) raises MalformedRecordError naming the line
    it starts on: after the lines of the numpy blocks, the line after
    the reader.line_num lines csv.reader had read before it."""
    source = log.pieces()
    pending: deque[str] = deque()
    head = next(source, b"")
    cut = head.find(b"\n") + 1 or len(head)       # the header line goes to csv.reader
    if cut < len(head):
        source = chain([head[cut:]], source)
    if head:
        pending.append(head[:cut].decode().removeprefix("\ufeff"))
    in_blocks = 0                   # lines yielded in numpy blocks

    def feed():
        while True:
            while pending:
                yield pending.popleft()
            piece = next(source, None)
            if piece is None:
                return
            pending.extend(text_lines(piece))

    reader = csv.reader(feed(), strict=True)
    before = 0                      # lines csv.reader read before its record
    try:
        yield next(reader, None)
        while pending or (piece := next(source, None)) is not None:
            if not pending:
                if piece.endswith(b"\n") and b'"' not in piece and b"\0" not in piece:
                    ends = np.flatnonzero(np.frombuffer(piece, np.uint8) == _NL)
                    if np.diff(ends, prepend=-1).max() <= csv.field_size_limit():
                        in_blocks += len(ends)
                        yield piece, None
                        continue
                pending.extend(text_lines(piece))
            before = reader.line_num
            rows = [next(reader)]
            while pending:
                before = reader.line_num
                rows.append(next(reader))
            yield None, rows
    except csv.Error as exc:
        raise MalformedRecordError(log.name, in_blocks + before + 1,
                                   f"not CSV: {exc}") from None


class _FullstatsParse:
    """The fullstats parse of one log, in the steps `parse_raw_logs`
    takes: a read of the whole log (`read`), which finds the mapped
    columns in its header and runs the row rule (_row_values) on its
    rows, and `finish`, which runs the value rules
    (SchedulerTrace.faults) once over the rows at their times and alone
    warns."""

    def __init__(self, log: RawLog, column_map: Mapping[str, str],
                 stats_period_s: float) -> None:
        self.log, self.column_map, self.period = log, column_map, stats_period_s
        self.width = 0
        self.cells: list[tuple[str, int, object]] = []   # (field, column, parser)

    def _header(self, blocks: Iterator) -> None:
        """Check the column map, then read the header row from blocks and
        find the mapped columns in it."""
        for name in _REQUIRED_FIELDS:
            if name not in self.column_map:
                raise MissingColumnError(f"column_map must map {name!r}")
        unknown = set(self.column_map) - set(FULLSTATS_FIELDS)
        if unknown:
            raise InvalidSpecError(f"unknown canonical fields in column_map: {sorted(unknown)}")
        header = next(blocks)
        if header is None:
            raise EmptyTraceError(f"{self.log.name}: no header row")
        header = [h.strip() for h in header]
        missing = [col for col in self.column_map.values() if col not in header]
        if missing:
            raise MissingColumnError(
                f"{self.log.name}: mapped columns absent from header: {missing}")
        self.width = len(header)
        self.cells = [(name, header.index(self.column_map[name]),
                       _int_cell if name in SchedulerTrace.INTEGRAL else _float_cell)
                      for name in FULLSTATS_FIELDS if name in self.column_map]

    def read(self) -> tuple:
        """(rows, table, row_idx, faults): the rows read, the mapped
        values of those the row rule reads and their row indices, and why
        each row it refuses is skipped, by row index."""
        blocks = _fullstats_blocks(self.log)
        self._header(blocks)
        columns = [(i, parse is _int_cell) for _, i, parse in self.cells]
        tables = [np.empty((0, len(self.cells)))]
        kept_idx = [np.empty(0, dtype=np.int64)]
        faults: dict[int, str] = {}     # row index -> why the row is skipped
        first = 0
        for piece, rows in blocks:
            rule = partial(_row_values, self.cells, faults, first)
            if rows is None:
                table, row_idx = decimals.numeric_lines(piece, self.width, columns, True,
                                                        lambda k, line: rule(k, line.split(",")))
                count = _line_ends(piece)
            else:
                values = list(map(rule, range(len(rows)), rows))
                row_idx = np.flatnonzero([v is not None for v in values])
                table = np.reshape([v for v in values if v is not None],
                                   (len(row_idx), len(self.cells)))
                count = len(rows)
            tables.append(table)
            kept_idx.append(first + row_idx)
            first += count
        return first, np.concatenate(tables), np.concatenate(kept_idx), faults

    def finish(self, read: tuple) -> FullstatsParseResult:
        _, table, row_idx, faults = read
        # The trace's columns: the mapped cells, NaN where no column is
        # mapped, and the row times where none is mapped to t_s.
        cols = {name: table[:, j] for j, (name, _, _) in enumerate(self.cells)}
        if "t_s" not in self.column_map:
            last = int(row_idx.max(initial=0))
            _check_finite(last * self.period, "scheduler",
                          f"row index {last} times stats_period_s {self.period!r}")
            cols["t_s"] = row_idx * self.period
        cols = {name: cols[name] if name in cols else np.full(len(table), np.nan)
                for name in FULLSTATS_FIELDS}
        keep = np.ones(len(table), dtype=bool)
        for pos, reason in SchedulerTrace.faults(cols).items():
            keep[pos] = False
            faults[int(row_idx[pos])] = reason
        for row in sorted(faults):
            warn(f"fullstats row {row + 1} skipped: {faults[row]}")
        if not keep.any():
            raise EmptyTraceError(f"{self.log.name}: no usable fullstats rows parsed")
        # The kept rows, in the order of their times, each column gathered once.
        kept = np.flatnonzero(keep)
        t_s = cols["t_s"][kept]
        if "t_s" in self.column_map:
            low, high = float(t_s.min()), float(t_s.max())
            _check_finite(high - low, "scheduler", f"t_s {high!r} less the earliest t_s {low!r}")
            t_s = t_s - low
        order = _sort_order(t_s, cols["rnti"][kept])
        rows = kept[order]
        cols = {name: col[rows] for name, col in cols.items() if name != "t_s"}
        return FullstatsParseResult(snapshots=SchedulerTrace(t_s=t_s[order], **cols),
                                    skipped_rows=len(faults))


def parse_ping_log(lines: Iterable[str], meta: RunMetadata) -> PingParseResult:
    """parse_raw_logs of the ping log alone: lines is a RawLog, or str
    lines, read as one (RawLog.of). A log without a reply raises
    EmptyTraceError naming its file (`lines.name`)."""
    log = RawLog.of(lines, getattr(lines, "name", "ping log"))
    return parse_raw_logs(log, None, {}, meta)[0]


def parse_fullstats(lines: Iterable[str], column_map: Mapping[str, str],
                    meta: RunMetadata, *,
                    stats_period_s: float = 1.0) -> FullstatsParseResult:
    """parse_raw_logs of the fullstats log alone: lines is a RawLog, or
    str lines, read as one (RawLog.of). An error about the whole input
    names its file (`lines.name`). meta is not read."""
    log = RawLog.of(lines, getattr(lines, "name", "fullstats input"))
    return parse_raw_logs(None, log, column_map, meta, stats_period_s=stats_period_s)[1]


def parse_raw_logs(ping_log: RawLog | None, fullstats: RawLog | None,
                   column_map: Mapping[str, str], meta: RunMetadata, *,
                   stats_period_s: float = 1.0
                   ) -> tuple[PingParseResult | None, FullstatsParseResult | None]:
    """The ping parse of ping_log and the fullstats parse of fullstats,
    None for a log given as None, with the outcome of reading each log
    whole and finishing its parse before the next log is read: the same
    results, warnings (the ping log's, then the fullstats log's) and
    first error.

    The ping parse: reply lines may carry a leading bracketed epoch;
    when they do, t_s is the offset from the earliest such epoch,
    otherwise t_s = count * meta.ping_interval_s, where count is
    icmp_seq with its 16-bit wraps undone. In a log where any reply
    carries an epoch, a reply without one is malformed. The seq column
    keeps the printed value. Warnings, one per malformed line, come in
    line order. A log without a reply raises EmptyTraceError.

    The fullstats parse: column_map maps canonical field names
    (FULLSTATS_FIELDS) to header names in the log. Without a mapped t_s
    column, row index times stats_period_s is the snapshot time; a
    mapped t_s is rebased so the earliest kept snapshot lies at 0. The
    rows come in blocks (_fullstats_blocks); the row rule (_row_values)
    reads every row numpy does not read whole, and the value rules
    (SchedulerTrace.faults) then run once over the rows of the whole
    log. Rows either refuses are skipped, counted and warned of in row
    order. Either parse raises InvalidSpecError for a time float64
    cannot hold.

    The split: where canon.may_split holds and the ping log has at least
    _SPLIT_BYTES, the ping log alone is cut, at the first line start at
    or after half the bytes by which it is larger than the fullstats log
    (RawLog.line_start), so that each process reads about half the bytes
    of both. One forked child reads the ping log's tail
    (canon.split_work) and pickles its read back, while this process
    reads the ping log's head and then the whole fullstats log. Each
    ping read numbers its lines from its start and runs the per-line
    rules; this process shifts the child's numbers by its own counts,
    joins the two, and then finishes the parses in turn. Whatever fails
    in the split (the temp file, the fork, the child, any read or the
    join) sends both logs back to the serial order, which raises the
    error it meets first at its line in the whole log."""
    ping = None if ping_log is None else _PingParse(ping_log, meta)
    stats = None if fullstats is None else _FullstatsParse(fullstats, column_map, stats_period_s)
    given = [parse for parse in (ping, stats) if parse is not None]
    reads = None
    if ping is not None and canon.may_split():
        try:
            size = ping_log.size()
            if size >= _SPLIT_BYTES:
                cut = ping_log.line_start((size - (stats.log.size() if stats else 0)) // 2)
                reads = canon.split_work(
                    lambda: [ping.read(0, cut), *(parse.read() for parse in given[1:])],
                    lambda out: pickle.dump(ping.read(cut), out, pickle.HIGHEST_PROTOCOL),
                    lambda heads, out: [ping.join(heads[0], pickle.load(out)), *heads[1:]])
        except Exception:           # raised again, in order, by the whole reads
            pass
    if reads is None:
        # Lazy, so that each parse finishes before the next log is read.
        reads = (parse.read() for parse in given)
    results = iter([parse.finish(read) for parse, read in zip(given, reads)])
    return tuple(None if log is None else next(results) for log in (ping_log, fullstats))
