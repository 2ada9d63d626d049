"""Raw log ingestion: ping logs and fullstats CSVs into traces.

Both parsers read a RawLog, a file or the bytes str lines given from
code join to (RawLog.of), cut into chunks of whole lines by one rule,
so that a file is never held whole and str lines read as the file
holding their bytes. A parser reads the log in pieces
(`RawLog.pieces`), one per chunk, each bytes of UTF-8 lines ending in
LF (the last line of the log may not): a chunk that is ASCII without
CR as it is, and any other decoded with universal newlines and encoded
again. Lines numpy can prove whole are read together, through the
exact decimal reader (`decode_replies` the ping replies,
`decimals.numeric_lines` the fullstats cells); every other line goes
to its format's per-line rules, which define the result. A large ping
log is read in two halves, the second by a forked child
(`parse_ping_log`). The parsers are tolerant: lines or rows that
cannot be used are counted and reported, never silently dropped, and
never abort the parse. An input that yields zero usable records
raises EmptyTraceError, and a fullstats file the CSV reader cannot
split, or a byte that is not UTF-8, raises MalformedRecordError at its
line. The traces they give obey the value rules of the run model
(`model`), whose `consolidate_run` and `select_dominant_rnti`, which
take parsed traces on to a run, this module also binds.
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

# Bytes of a raw log read at a time, so a log is never held whole.
_CHUNK_BYTES = 1 << 20
_EQ, _NL = ord("="), ord("\n")
# A ping log of at least this many bytes is parsed in two halves, the
# second by a forked child (canon.split_work) where canon.may_split holds.
_SPLIT_BYTES = 1 << 22
# Lines at the head of a chunk that must hold a strict reply for the
# chunk to be decoded together, so a log without that shape goes to the
# per-line rules without paying for the numpy pass too.
_PROBE_LINES = 64


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

    def line_start(self, at: int) -> int:
        """The offset just past the first LF at or after byte `at`; the
        log's size if there is none."""
        with self._open() as fh:
            fh.seek(at)
            while block := fh.read(_CHUNK_BYTES):
                if (i := block.find(b"\n")) >= 0:
                    return at + i + 1
                at += len(block)
        return at

    def pieces(self, start: int = 0, stop: int | None = None, line: int = 1) -> Iterator[bytes]:
        """The log's bytes from start to stop (to its end if None), both
        at the start of a line, in pieces of whole lines, one per chunk
        of about _CHUNK_BYTES (a longer line is one chunk), each UTF-8
        text whose lines end in LF, the last line of the log without one
        if it has none: a chunk that is ASCII without CR as it is, any
        other decoded with universal newlines and encoded again. Lines
        are counted as the pieces pass, the first numbered `line`, to
        name a byte that is not UTF-8."""
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
                    line += data.count(b"\n")
                    yield data
                if not block:
                    return

    def __iter__(self) -> Iterator[str]:
        for piece in self.pieces():
            yield from text_lines(piece)


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


def decode_replies(chunk: bytes, probe: bool = True) -> tuple[np.ndarray, ...]:
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
    other line is left to them, as is, with `probe`, every line of a
    chunk whose first _PROBE_LINES lines hold none."""
    pad = len(decimals.PAD)
    buf = np.frombuffer(b"".join((decimals.PAD, chunk, b"" if chunk[-1:] == b"\n" else b"\n",
                                  decimals.PAD)), np.uint8)
    head = np.flatnonzero(buf[pad:pad + (1 << 14)] == _NL)
    if (probe and len(head) > _PROBE_LINES
            and not decode_replies(chunk[:head[_PROBE_LINES - 1] + 1])[2].any()):
        end = np.flatnonzero(buf == _NL) - pad
        n = len(end)
        return (np.concatenate(([0], end[:-1] + 1)), end, np.zeros(n, dtype=bool),
                np.full(n, math.nan), np.zeros(n), np.zeros(n))
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
    probe = True                    # only after a piece without a strict reply
    for piece in pieces:
        start, end, ok, epoch, seq, rtt = decode_replies(piece, probe)
        probe = not ok.any()
        odd = np.flatnonzero(~ok).tolist()
        if probe:                   # no strict reply: all lines, at once
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


def _read_halves(log: RawLog, cut: int) -> tuple:
    """_read_replies of the whole log, which is read in two halves: the
    lines before byte cut here, and the rest in a forked child
    (canon.split_work), whose line numbers then follow the first's."""
    head_lines = 0                  # once the first half is read here

    def first() -> tuple:
        nonlocal head_lines
        head = _read_replies(log.pieces(0, cut))
        head_lines = head[0]
        return head

    def second(out) -> None:
        # Lines numbered within the half; only a retry here, after the
        # first half, names a byte that is not UTF-8 at its line in the log.
        pickle.dump(_read_replies(log.pieces(cut, line=head_lines + 1)), out,
                    pickle.HIGHEST_PROTOCOL)

    def join(head: tuple, out) -> tuple:
        lines, skipped, malformed, bare, *fields = head
        more, more_skipped, more_malformed, more_bare, *more_fields = pickle.load(out)
        malformed += [(lines + n, line) for n, line in more_malformed]
        return (lines + more, skipped + more_skipped, malformed,
                np.concatenate((bare, lines + more_bare)),
                *map(np.concatenate, zip(fields, more_fields)))

    return canon.split_work(first, second, join)


def parse_ping_log(lines: Iterable[str], meta: RunMetadata) -> PingParseResult:
    """Parse standard ping reply output into time-ordered latency samples.

    Reply lines may carry a leading bracketed epoch timestamp; when they
    do, t_s is the offset from the earliest such epoch, otherwise
    t_s = count * meta.ping_interval_s, where count is icmp_seq with
    its 16-bit wraps undone; a t_s float64 cannot hold raises
    InvalidSpecError. In a log where any reply carries an epoch, a reply
    without one is malformed. The seq column keeps the printed value.

    lines is a RawLog, or str lines, read as one (RawLog.of), in
    pieces. The lines of a piece that have the strict reply shape
    (decode_replies) are decoded together; every other line is read by
    the per-line rules, which define the result for every line. A log of
    at least _SPLIT_BYTES, where canon.may_split holds, is read in two
    halves, cut at the first LF at or after its middle byte: a forked
    child reads the second while this process reads the first
    (_read_halves), with the same result, warnings and errors; if the
    child fails, this process reads the second half itself.
    Warnings, one per malformed line, come in line order. A log without
    a reply raises EmptyTraceError naming its file (`lines.name`).
    """
    log = RawLog.of(lines, getattr(lines, "name", "ping log"))
    size = log.size()
    cut = log.line_start(size // 2) if size >= _SPLIT_BYTES and canon.may_split() else size
    read = _read_halves(log, cut) if cut < size else _read_replies(log.pieces())
    _, skipped, malformed, bare, epoch, seq, rtt = read
    stamped = len(bare) < len(rtt)
    if stamped:
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
    order = np.lexsort((seq, t))
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
    """The rows of a fullstats log: its header row (None if it has no
    line; a leading UTF-8 byte-order mark, as spreadsheet exports write,
    dropped), then a (piece, rows) block per piece of the log. A
    piece of lines ending in LF without a double quote or NUL, whose
    lines csv.reader would therefore split on commas alone, is read by
    numpy: (piece, None), each line a row. Every other line goes to one
    strict csv.reader (whose rules define the rows; it refuses a NUL),
    whose rows up to the end of a piece are a (None, rows) block, so a
    quoted field may run on into the next piece (which it then reads
    too). A record csv.reader cannot split (an unterminated quote, text
    after a closing quote, a field past csv.field_size_limit()) raises
    MalformedRecordError naming the line it starts on: after the lines
    of the numpy blocks, the line after the reader.line_num lines
    csv.reader had read before it."""
    source = log.pieces()
    head = next(source, b"")
    cut = head.find(b"\n") + 1 or len(head)   # the header line goes to csv.reader
    if cut < len(head):
        source = chain([head[cut:]], source)
    pending = deque([head[:cut].decode().removeprefix("\ufeff")] if head else [])
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


def parse_fullstats(lines: Iterable[str], column_map: Mapping[str, str],
                    meta: RunMetadata, *,
                    stats_period_s: float = 1.0) -> FullstatsParseResult:
    """Parse a delimited fullstats table into scheduler snapshots.

    column_map maps canonical field names (FULLSTATS_FIELDS) to header
    names in the incoming file. Without a mapped t_s column, row index
    times stats_period_s is used as the snapshot time; a mapped t_s is
    rebased so the earliest kept snapshot lies at 0. Either time, if
    float64 cannot hold it, raises InvalidSpecError. Rows with values
    outside the documented domains are skipped and counted.

    lines is a RawLog, or str lines, read as one (RawLog.of), in
    blocks of rows (_fullstats_blocks): a piece without a double quote
    or NUL is read by decimals.numeric_lines, and any other rows come
    from csv.reader, which defines them. Either way the row rule
    (_row_values) reads every row numpy does not read whole, and
    defines the result. An error about the whole input names its file
    (`lines.name`).
    """
    for name in _REQUIRED_FIELDS:
        if name not in column_map:
            raise MissingColumnError(f"column_map must map {name!r}")
    unknown = set(column_map) - set(FULLSTATS_FIELDS)
    if unknown:
        raise InvalidSpecError(f"unknown canonical fields in column_map: {sorted(unknown)}")

    log = RawLog.of(lines, getattr(lines, "name", "fullstats input"))
    blocks = _fullstats_blocks(log)
    header = next(blocks)
    if header is None:
        raise EmptyTraceError(f"{log.name}: no header row")
    header = [h.strip() for h in header]
    missing = [col for col in column_map.values() if col not in header]
    if missing:
        raise MissingColumnError(f"{log.name}: mapped columns absent from header: {missing}")
    mapped = [name for name in FULLSTATS_FIELDS if name in column_map]
    cells = [(name, header.index(column_map[name]),
              _int_cell if name in SchedulerTrace.INTEGRAL else _float_cell)
             for name in mapped]

    columns = [(i, parse is _int_cell) for _, i, parse in cells]
    tables = [np.empty((0, len(mapped)))]
    kept_idx = [np.empty(0, dtype=np.int64)]
    faults: dict[int, str] = {}     # row index -> why the row is skipped
    first = 0
    for piece, rows in blocks:
        rule = partial(_row_values, cells, faults, first)
        if rows is None:
            table, row_idx = decimals.numeric_lines(piece, len(header), columns, True,
                                                    lambda k, line: rule(k, line.split(",")))
            count = piece.count(b"\n")
        else:
            values = list(map(rule, range(len(rows)), rows))
            row_idx = np.flatnonzero([v is not None for v in values])
            table = np.reshape([v for v in values if v is not None], (len(row_idx), len(cells)))
            count = len(rows)
        tables.append(table)
        kept_idx.append(first + row_idx)
        first += count
    table = np.concatenate(tables)
    row_idx_of = np.concatenate(kept_idx)   # row index of each row of table

    cols = {name: np.full(len(table), np.nan) for name in FULLSTATS_FIELDS}
    cols.update((name, table[:, j]) for j, name in enumerate(mapped))
    if "t_s" not in column_map:
        last = int(row_idx_of.max(initial=0))
        _check_finite(last * stats_period_s, "scheduler",
                      f"row index {last} times stats_period_s {stats_period_s!r}")
        cols["t_s"] = row_idx_of * stats_period_s
    keep = np.ones(len(table), dtype=bool)
    for pos, reason in SchedulerTrace.faults(cols).items():
        keep[pos] = False
        faults[int(row_idx_of[pos])] = reason
    for row_idx in sorted(faults):
        warn(f"fullstats row {row_idx + 1} skipped: {faults[row_idx]}")
    if not keep.any():
        raise EmptyTraceError(f"{log.name}: no usable fullstats rows parsed")

    snaps = SchedulerTrace(**{name: col[keep] for name, col in cols.items()})
    if "t_s" in column_map:
        low, high = float(snaps.t_s.min()), float(snaps.t_s.max())
        _check_finite(high - low, "scheduler", f"t_s {high!r} less the earliest t_s {low!r}")
        snaps = snaps.replace(t_s=snaps.t_s - low)
    return FullstatsParseResult(
        snapshots=snaps[np.lexsort((snaps.rnti, snaps.t_s))],
        skipped_rows=len(faults))
