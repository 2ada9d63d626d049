"""Raw logs and CSV text read as bytes.

A RawLog is a raw log read a chunk of whole lines at a time: a file,
so that it is never held whole, or str lines given from code, held as
the UTF-8 text they join to. The raw parsers read it in pieces
(`pieces`), one per chunk, each bytes of UTF-8 lines ending in LF: a
chunk that is `_plain`, ASCII without CR, as it is, and any other
decoded with universal newlines and encoded again.

Two numpy decoders read the bytes, each through the exact decimal
reader (`decimals.decode`) and each leaving every line it cannot prove
whole to its caller's rules: `decode_replies` the ping replies of a
piece, and `numeric_lines` the numeric cells of CSV lines (the
fullstats pieces without a double quote or NUL, and the canonical CSV
bodies).
"""

from __future__ import annotations

import io
import math
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import decimals
from .errors import MalformedRecordError, count_line_ends, decode_text

# Bytes of a raw log read at a time, so a log is never held whole.
_CHUNK_BYTES = 1 << 20
# Bytes of padding around a block, so every word the decoders read lies
# inside the buffer, and decimals.decode need not copy it to pad it.
PAD = b"\0" * 64
_EQ, _NL, _COMMA = ord("="), ord("\n"), ord(",")
# Lines at the head of a chunk that must hold a strict reply for the
# chunk to be decoded together, so a log without that shape goes to the
# per-line rules without paying for the numpy pass too.
_PROBE_LINES = 64


class RawLog:
    """A raw log read as bytes, a chunk of whole lines of about
    _CHUNK_BYTES at a time (a longer line is one chunk): the file at
    `path`, or `blocks`, chunks already held (`RawLog.of`). The raw
    parsers decode a plain chunk without making a str of any line;
    iterating the log yields its lines as UTF-8 text with universal
    newlines, a byte that is not UTF-8 raising MalformedRecordError at
    its line."""

    def __init__(self, path: str | Path, blocks: list[bytes] | None = None) -> None:
        self.name = str(path)
        self._blocks = blocks

    @classmethod
    def of(cls, lines: RawLog | Iterable[str], name: str) -> RawLog:
        """lines as it is if a RawLog; else a RawLog named `name` of the
        UTF-8 text the str lines join to, an LF added where a line has
        none, built a block of about _CHUNK_BYTES at a time. A lone
        surrogate is encoded as it is (`surrogatepass`): bytes that are
        not UTF-8, which the parsers refuse at its line."""
        if isinstance(lines, RawLog):
            return lines
        blocks, block, size = [], [], 0
        for line in lines:
            block.append(line if line.endswith("\n") else line + "\n")
            size += len(line)
            if size >= _CHUNK_BYTES:
                blocks.append("".join(block).encode("utf-8", "surrogatepass"))
                block, size = [], 0
        if block:
            blocks.append("".join(block).encode("utf-8", "surrogatepass"))
        return cls(name, blocks)

    def chunks(self) -> Iterator[bytes]:
        if self._blocks is not None:        # each of whole lines already
            yield from self._blocks
            return
        with open(self.name, "rb") as fh:
            rest = b""
            while block := fh.read(_CHUNK_BYTES):
                data = rest + block
                # After the last LF, or in a log without one after the
                # last CR but a final one, which may begin a CRLF.
                cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, len(data) - 1) + 1
                rest = data[cut:]
                if cut:
                    yield data[:cut]
            if rest:
                yield rest

    def text(self, chunk: bytes, index: int) -> str:
        """chunk, chunk `index` of the log, as UTF-8 text with universal
        newlines."""
        try:
            return decode_text(self.name, chunk)
        except MalformedRecordError:    # name the line in the log, not in chunk
            line = 1 + sum(map(count_line_ends, islice(self.chunks(), index)))
            decode_text(self.name, chunk, line)
            raise

    def __iter__(self) -> Iterator[str]:
        for index, chunk in enumerate(self.chunks()):
            yield from io.StringIO(self.text(chunk, index)).readlines()


def _plain(data: bytes) -> bool:
    """Whether data is ASCII without CR: UTF-8 text with one line per
    LF, as it is."""
    return data.isascii() and b"\r" not in data


def pieces(log: RawLog) -> Iterator[bytes]:
    """The lines of log in pieces of whole lines, one per chunk, each
    line UTF-8 text ending in LF (one added to a last line without):
    the chunk itself if _plain, else its text (RawLog.text) encoded
    again, so a chunk of CRLF lines reads as LF lines."""
    for index, chunk in enumerate(log.chunks()):
        if not _plain(chunk):
            chunk = log.text(chunk, index).encode()
        yield chunk if chunk.endswith(b"\n") else chunk + b"\n"


def text_lines(piece: bytes) -> list[str]:
    """The lines of a piece as str, each with its LF."""
    return io.StringIO(piece.decode()).readlines()


def line_at(piece: bytes, bounds: tuple[np.ndarray, np.ndarray], i: int) -> str:
    """Line i of a piece, without its LF: the text from bounds[0][i] to
    bounds[1][i]."""
    return piece[bounds[0][i]:bounds[1][i]].decode()


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
    (UTF-8 text whose every line ends in LF), the line's bytes
    chunk[start:end] without its LF, whether it has the strict reply
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
    buf = np.frombuffer(PAD + chunk + PAD, np.uint8)
    head = np.flatnonzero(buf[len(PAD):len(PAD) + (1 << 14)] == _NL)
    if (probe and len(head) > _PROBE_LINES
            and not decode_replies(chunk[:head[_PROBE_LINES - 1] + 1])[2].any()):
        end = np.flatnonzero(buf == _NL) - len(PAD)
        n = len(end)
        return (np.concatenate(([0], end[:-1] + 1)), end, np.zeros(n, dtype=bool),
                np.full(n, math.nan), np.zeros(n), np.zeros(n))
    at = decimals.words_at(buf)
    # The three '=' of a reply (icmp_seq=, ttl=, time=), found between
    # the newlines, which end the lines.
    marks = np.flatnonzero((buf == _EQ) | (buf == _NL))
    newlines = np.flatnonzero(buf[marks] == _NL)
    end = marks[newlines]
    start = np.concatenate(([len(PAD)], end[:-1] + 1))
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
    bounds = start - len(PAD), end - len(PAD)
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


def numeric_lines(piece: bytes | memoryview, width: int, columns: list[tuple[int, bool]],
                  optional: bool, rule: Callable[[int, str], list[float] | None]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(table, line_index): the values of the selected cells of the lines
    of piece, each a table row, and the index of each row's line in
    piece. piece is bytes, or a view of them, whose lines each end in
    LF (the last may not) and hold UTF-8 text; columns holds (cell,
    integral) per selected cell. A line is read wholly with numpy, split
    on `,` and its selected cells read by decimals.decode, when it has
    `width` cells and every selected cell is proven, not all of them
    empty and, unless `optional`, none empty. Every other line k goes
    wholly to rule(k, line), the line as text without its LF, in line
    order; the rule returns the line's values, or None to leave it out.
    The rule defines the result: decode gives float() of every cell it
    proves."""
    padded = b"".join((PAD, b"\n", piece, b"" if piece[-1:] == b"\n" else b"\n", PAD))
    buf = np.frombuffer(padded, np.uint8)
    # Cell c of the piece starts after bounds[c] (bounds[0] is the LF
    # put before the piece) and ends at bounds[c + 1].
    bounds = np.flatnonzero((buf == _COMMA) | (buf == _NL))
    last = np.flatnonzero(buf[bounds[1:]] == _NL)   # the last cell c of each line
    count = len(last)                           # lines
    lines = np.flatnonzero(np.diff(last, prepend=-1) == width)   # only these are read here
    first = last[lines] - (width - 1)
    table = np.empty((len(lines), len(columns)))
    keep = np.ones(len(lines), dtype=bool)
    empty = np.ones(len(lines), dtype=bool)     # every selected cell empty
    for j, (i, integral) in enumerate(columns):
        ok, table[:, j] = decimals.decode(buf, bounds[first + i] + 1, bounds[first + i + 1],
                                          integral)
        blank = np.isnan(table[:, j])           # where ok, an empty cell
        keep &= ok if optional else ok & ~blank
        empty &= blank
    keep &= ~empty
    if len(lines) == count and keep.all():
        return table, lines
    lines = lines[keep]
    left = np.ones(count, dtype=bool)
    left[lines] = False
    breaks = bounds[np.concatenate(([0], last + 1))].tolist()   # line k: after k, to k + 1
    at, values = [], []
    for k in np.flatnonzero(left).tolist():
        row = rule(k, padded[breaks[k] + 1:breaks[k + 1]].decode())
        if row is not None:
            at.append(k)
            values.append(row)
    index = np.concatenate((lines, np.array(at, dtype=lines.dtype)))
    order = np.argsort(index, kind="stable")
    table = np.concatenate((table[keep], np.reshape(values, (len(at), len(columns)))))
    return table[order], index[order]
