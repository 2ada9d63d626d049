"""Raw logs read as bytes.

A RawLog is a raw log file read a chunk of whole lines at a time, so a
log is never held whole. The raw parsers take its chunks, or blocks of
any iterable of str lines, as pieces (`pieces`): a plain piece, ASCII
without CR, NUL or a double quote, is bytes that numpy decoders read as
they are; any other is a list of str lines. `decode_replies` decodes
the ping replies of a plain piece.
"""

from __future__ import annotations

import io
import math
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import decimals
from .errors import MalformedRecordError

# Bytes of a raw log read at a time, so a log is never held whole.
_CHUNK_BYTES = 1 << 20
# Lines (ping) or rows (fullstats) an iterable of str lines is read in
# at a time.
_BLOCK_LINES = 16384
# Bytes of padding around a block, so every word the decoders read lies
# inside the buffer, and decimals.decode need not copy it to pad it.
PAD = b"\0" * 64
_EQ, _NL = ord("="), ord("\n")
# Lines at the head of a chunk that must hold a strict reply for the
# chunk to be decoded together, so a log without that shape goes to the
# per-line rules without paying for the numpy pass too.
_PROBE_LINES = 64


def decode_text(path: str | Path, data: bytes, line: int = 1) -> str:
    """data, bytes of the file at path whose first line is line `line`,
    as UTF-8 text with universal newlines (CRLF and CR read as LF). A
    byte that is not UTF-8 raises MalformedRecordError naming its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line += head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise MalformedRecordError(
            path, line, f"not UTF-8 text: byte {data[exc.start]:#04x}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


class RawLog:
    """A raw log file read as bytes, a chunk of whole lines of about
    _CHUNK_BYTES at a time (a longer line is one chunk). The raw parsers
    decode a plain chunk without making a str of any line; iterating
    the log yields its lines as UTF-8 text with universal newlines, a
    byte that is not UTF-8 raising MalformedRecordError at its line."""

    def __init__(self, path: str | Path) -> None:
        self.name = str(path)

    def chunks(self) -> Iterator[bytes]:
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

    def lines(self, chunk: bytes, index: int) -> list[str]:
        """The lines of chunk, chunk `index` of the log, as text."""
        try:
            return io.StringIO(decode_text(self.name, chunk)).readlines()
        except MalformedRecordError:    # name the line in the file, not in chunk
            line = 1
            for before in islice(self.chunks(), index):
                line += before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
            decode_text(self.name, chunk, line)
            raise

    def __iter__(self) -> Iterator[str]:
        for index, chunk in enumerate(self.chunks()):
            yield from self.lines(chunk, index)


def _plain(data: bytes) -> bool:
    """Whether data is ASCII without CR, NUL or a double quote: text the
    block decoders read as it is, one line per LF."""
    return (data.isascii() and b"\r" not in data and b"\0" not in data
            and b'"' not in data)


def _piece(block: list[str]) -> bytes | list[str]:
    """block, lines each one str, as bytes where they are _plain text
    with one LF at the end of each (one added where a line has none);
    else block itself."""
    text = "".join(line if line.endswith("\n") else line + "\n" for line in block)
    if text.isascii() and text.count("\n") == len(block) and _plain(data := text.encode()):
        return data
    return block


def pieces(lines: Iterable[str]) -> Iterator[bytes | list[str]]:
    """The lines of a raw log in pieces of whole lines: bytes of _plain
    text, each line ending in LF, or else a list of the lines as str. A
    RawLog gives one piece per chunk: the chunk itself if plain, else
    the _piece of its lines as text (so a chunk of CRLF lines is plain
    once decoded). Any other iterable of str lines gives the _piece of
    each _BLOCK_LINES of its lines."""
    if isinstance(lines, RawLog):
        for index, chunk in enumerate(lines.chunks()):
            if _plain(chunk):
                yield chunk if chunk.endswith(b"\n") else chunk + b"\n"
            else:
                yield _piece(lines.lines(chunk, index))
        return
    line_iter = iter(lines)
    while block := list(islice(line_iter, _BLOCK_LINES)):
        yield _piece(block)


def text_lines(piece: bytes | list[str]) -> list[str]:
    """The lines of a piece as str."""
    return piece if isinstance(piece, list) else io.StringIO(piece.decode("ascii")).readlines()


def line_at(piece: bytes | list[str], bounds: tuple[np.ndarray, np.ndarray] | None,
            i: int) -> str:
    """Line (or cell) i of a piece, without its line end: piece[i] of a
    list, and of bytes the ASCII text from bounds[0][i] to bounds[1][i]."""
    if bounds is None:
        return piece[i].rstrip("\n")
    return piece[bounds[0][i]:bounds[1][i]].decode("ascii")


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
    """(start, end, ok, epoch, seq, rtt_ms): per line of chunk, _plain
    text whose every line ends in LF, the line's bytes chunk[start:end]
    without its LF, whether it has the strict reply shape

        [EPOCH] N bytes from HOST: icmp_seq=S ttl=T time=R ms

    (epoch optional, icmp_req= also accepted, EPOCH below 24 bytes and
    N below 8 without spaces, HOST and T free of '=', each number one
    the kernel reads) and values the per-line rules of the ping parser
    accept, and if so its fields, epoch NaN when absent. Those rules
    give the same fields for every such line, and every other line is
    left to them, as is, with `probe`, every line of a chunk whose first
    _PROBE_LINES lines hold none."""
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
