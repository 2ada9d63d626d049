"""Canonical on-disk formats: latency/scheduler CSVs, run manifests,
ground-truth sidecars, and the column file beside each latency and
scheduler CSV.

Floats are written as their repr (shortest round-trip form) so that
write -> read -> write is byte-identical and no precision is lost.
All files are UTF-8 with LF line endings and are written atomically
(temp file in the target directory, then rename).

Data tables are rendered by one kernel (`_csv_blocks`), which yields
the header and then each block of `_BLOCK_ROWS` rows as CSV bytes;
`csv_bytes` joins them. It finds the digits repr picks with numpy: an
exact scaled product (Dekker's two-product) gives the 17-digit decimal
of each float and its residual, and the shortest of the 15-, 16- and
17-digit roundings that lies within half an ulp is the one repr
prints. A cell it cannot prove that way (a power of two, a near tie or
round-trip boundary, an exponent outside fixed notation) is rendered
by repr itself, so the output is repr's byte for byte. Each character
position of a cell is one byte vector over the block's rows, NUL where
a cell has no character; the block is transposed to rows and the NULs
dropped.

The trace writers stream. They render each column once (`rendered`:
the column itself where it already holds what its cells show), which
raises for a value no cell can show before any file is touched, then
send each block to the CSV's temp file and into the column file's
SHA-256 as it is rendered. So a writer holds the rendered columns and
one block, never the whole text. A trace of at least _SPLIT_ROWS rows,
where `may_split` holds, is rendered in two halves, cut at its middle
row (`split_work`): a forked child renders the tail's blocks into an
anonymous temp file while this process renders the head into the
CSV's temp file and the SHA-256, then
streams the child's bytes into both through one _PIECE buffer. If the
split fails at any step (no temp file or child to be had, a child that
fails, an error streaming its bytes), this process empties the CSV's
temp file, starts the SHA-256 afresh and renders every block itself.
The bytes written are the same either way. Every file is written
through one helper (`_atomic_write`): a temp file in the target
directory, created with mode 0o666 less the umask, then a rename; an
exception, from a render as from the disk, leaves the old file and no
temp file.

The text reader reads a CSV's body with `decimals.numeric_lines`: a
line of the header's width whose every cell the exact decimal reader
(`decimals.decode`) proves is read by numpy, and every other line goes
whole to the careful rule (`_careful`), which strips cells, skips blank
lines, reads each cell in the canonical grammar by float() and names
the first malformed line. A body that is not ASCII or holds a CR is
decoded once (universal newlines) and re-encoded first, so a CRLF copy
is read like its LF original. `decimals` loads only when a CSV is read
from its text.

A column file `<name>.csv.cols` holds the SHA-256 of a format tag and
the CSV's bytes, then the float64 table the text reader parses from
them, in .npy form. It is written after the CSV, once that digest is
known: the digest, the .npy 1.0 header `np.lib.format.write_array`
gives the rows × fields table in Fortran order, then each rendered
column's bytes in turn. A trace whose CSV the reader refuses (no rows,
or a row outside its value rules) gets no column file and loses any
older one.
The reader takes the table from it only while the digest matches the
CSV it has just read, the file is well-formed and every row keeps to
the value rules; otherwise it parses the text, which alone names the
line of a fault. The CSV is the record: the column file is derived
from it, and deleting it changes nothing but the time a read takes.

Neither file is copied whole on that read. The CSV's header is
checked on its first line, then the rest is hashed as a stream through
one 1 MiB buffer; the whole text is read only for the text reader.
The column file is mapped read-only, and the trace's columns are
read-only views of the mapping, so each live trace read from a column
file holds one file descriptor. A mapping that fails (no descriptor
left, say) reads the text. The value rules are checked a block of
rows at a time, up to the first block with a fault. Truncating a
mapped column file in place can end the process with SIGBUS; the
writers here never do that, since every file is replaced by a rename,
and a trace mapped before the rename keeps its values.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import re
import tempfile
import threading
from contextlib import suppress
from functools import partial
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import (
    EmptyTraceError,
    InvalidSpecError,
    MalformedRecordError,
    MissingColumnError,
    decode_text,
)
from .model import LatencyTrace, Run, SchedulerTrace

TRUTH_HEADER = "kind,t_s"

# The grammar of a canonical numeric cell, stripped of blanks. The
# careful rule names the line of a cell outside it (say "nan", "inf" or
# a hex prefix) as malformed.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DIGEST_SIZE = hashlib.sha256().digest_size
# Hashed ahead of the CSV bytes into a column file's digest. Any change
# to the table the text reader yields for the same bytes (empty cells,
# integral columns, -0.0, ...) must change this tag, so that column
# files written before it stop matching and the text is read instead.
_COLUMNS_TAG = b"taildiag columns 1\n"
_FLOAT64 = np.dtype("<f8")
# A CSV is read and hashed through one buffer of this size.
_PIECE = 1 << 20
# Rows of a column file's table checked against the value rules at a
# time: a fault refuses the file at its block, and each block's
# temporaries stay small.
_CHECK_ROWS = 1 << 16

# A trace of at least this many rows is written in two halves, the
# second rendered by a forked child (split_work) where may_split holds.
_SPLIT_ROWS = 1 << 16

# Manifest keys serialized for every run, in emission order.
_MANIFEST_META_KEYS = ("run_id", "ue_type", "distance_m", "packet_size_b",
                       "scenario", "ping_interval_s", "nominal_duration_s")


def _atomic_write(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Call write with a temp file in path's directory, then rename it to
    path, so readers never observe a partially written file, and an
    exception leaves the old file and no temp file. The temp file is
    created with mode 0o666 less the umask, the mode open() gives a new
    file."""
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                         | getattr(os, "O_BINARY", 0), 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def may_split() -> bool:
    """Whether a forked child can work beside this process: it may run
    on at least two CPUs, and runs no thread but its main one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this system
        return False
    return cpus >= 2 and threading.active_count() == 1


def split_work(first: Callable[[], object], second: Callable[[BinaryIO], object],
               join: Callable[[object, BinaryIO], object]):
    """join(first(), a file holding what second wrote to it, read from
    its start): second writes to an anonymous temp file in a forked
    child while first runs here, then the child is reaped. Nothing is
    recovered here: a temp file or child that cannot be made, or a
    child that exits non-zero or is killed, raises, and the caller does
    the work whole. The child prints nothing and ends with os._exit, so
    no atexit handler or stdio buffer of this process runs twice; an
    exception here, a KeyboardInterrupt too, kills and reaps it."""
    with tempfile.TemporaryFile(buffering=0) as out:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with open(out.fileno(), "wb", closefd=False) as fh:
                    second(fh)
                code = 0
            finally:
                os._exit(code)
        try:
            head = first()
            status = os.waitpid(pid, 0)[1]
        except BaseException:
            from signal import SIGKILL
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            raise
        if status:
            raise ChildProcessError(f"split child {pid} ended with wait status {status}")
        out.seek(0)
        return join(head, out)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path in UTF-8, atomically (_atomic_write)."""
    data = text.encode("utf-8")
    _atomic_write(path, lambda fh: fh.write(data))


POW10 = 10.0 ** np.arange(23)      # exact up to 10**22
# Dekker's split of a double into two halves of at most 26 bits.
_SPLIT = 2.0 ** 27 + 1
_POW10_HI = _SPLIT * POW10 - (_SPLIT * POW10 - POW10)
_POW10_LO = POW10 - _POW10_HI
# Relative margin within which a rounding tie counts as met: the cell is
# then rendered by repr (here) or refused (decimals).
TIE_MARGIN = 1e-9


def two_product(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, err): p = fl(x * 10**k) and its error, x * 10**k == p + err
    exactly, for k in 0..22 (Dekker's two-product, without FMA)."""
    p = x * POW10[k]
    split = _SPLIT * x
    hi = split - (split - x)
    lo = x - hi
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((hi * s_hi - p) + hi * s_lo + lo * s_hi) + lo * s_lo


# Rows rendered at a time. A block's byte and digit matrices stay a few
# MB; blocks of 2**14 rows already raised the quick start's peak RSS
# above what one repr per cell took (45.5 against 44.0 MiB).
_BLOCK_ROWS = 1 << 13
_RECIPROCAL = 1 / 10.0 ** np.arange(8, -1, -1)
_MANTISSA = (1 << 52) - 1
_POWERS = 10 ** np.arange(18, -1, -1, dtype=np.int64)
_SLOT = np.arange(17, dtype=np.uint8)
_DIGIT_NO = np.arange(1, 18, dtype=np.uint8)[:, None]
# Exponent of a cell the digit layout does not show (empty or verbatim).
_UNSHOWN = 100
_MINUS, _DOT, _ZERO = (np.uint8(ord(c)) for c in "-.0")


def _shortest(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For floats ax in [1e-4, 1e15) that are not powers of two: the
    digits of each one's repr as a 17-digit integer (trailing zeros
    padded), its decimal exponent, and whether both are proven. The
    17-digit rounding M17 of ax * 10**(16 - E) and its residual are
    exact, from Dekker's two-product; its 15- and 16-digit roundings
    are the candidates repr prefers when they lie strictly within half
    an ulp of ax. Not proven: an exponent floor(log10) misjudged (M17
    outside [10**16, 10**17)), or a tie or round-trip boundary within
    TIE_MARGIN. No candidate rounds up to 10**17 within half an ulp:
    the power of ten it stands for is a double, a whole ulp from ax."""
    exp10 = np.floor(np.log10(ax))
    k = (16 - exp10).astype(np.intp)
    scale = POW10[k]
    p, err = two_product(ax, k)
    carry = np.rint(err)
    rho = err - carry                   # ax * 10**k == M17 + rho, exactly
    m17 = p.astype(np.int64) + carry.astype(np.int64)
    q16 = m17 // 10
    q15 = q16 // 10
    r16, r15 = m17 - q16 * 10, m17 - q15 * 100
    above = rho > 0
    c16 = q16 + ((r16 > 5) | ((r16 == 5) & above))
    c15 = q15 + ((r15 > 50) | ((r15 == 50) & above))
    d16 = np.abs((c16 * 10 - m17) - rho)
    d15 = np.abs((c15 * 100 - m17) - rho)
    ulp = (ax.view(np.int64) + 1).view(np.float64) - ax   # the gap above = below
    half_ulp = ulp * scale * 0.5        # exact: 2**m * 10**k
    inside, outside = half_ulp * (1 - TIE_MARGIN), half_ulp * (1 + TIE_MARGIN)
    digits = np.where(d15 < inside, c15 * 100, np.where(d16 < inside, c16 * 10, m17))
    off_tie = np.abs(rho)
    proven = ((m17 >= 10 ** 16) & (m17 < 10 ** 17)
              & ((d15 < inside) | (d15 > outside)) & ((d16 < inside) | (d16 > outside))
              & (off_tie < 0.5 - TIE_MARGIN)
              & ((off_tie > TIE_MARGIN) | ((r16 != 5) & (r15 != 50))))
    return digits, 16 - k, proven


def _digit_rows(values: np.ndarray, width: int) -> np.ndarray:
    """(width, len(values)) uint8: the decimal digits of non-negative
    int64 values below 10**width, most significant first."""
    rows = np.empty((width, values.size))
    while width > 9:
        high = values // 10 ** 8
        _chunk_digits(values - high * 10 ** 8, rows[width - 8:width])
        values, width = high, width - 8
    _chunk_digits(values, rows[:width])
    return rows.astype(np.uint8)


def _chunk_digits(values: np.ndarray, rows: np.ndarray) -> None:
    """Write the len(rows) digits of int64 values below 10**9 into rows.
    floor((v + 0.5) * fl(10**-a)) is v // 10**a exactly: the added 0.5
    keeps the quotient 0.5 / 10**a from every integer, and the product's
    relative error (at most 2**-52) moves a quotient below 10**(9 - a)
    by far less."""
    np.multiply(values.astype(float) + 0.5, _RECIPROCAL[-len(rows):, None], out=rows)
    np.floor(rows, out=rows)
    rows[1:] -= 10 * rows[:-1]


def _float_slots(x: np.ndarray) -> list[np.ndarray]:
    """The cells of float64 values x, each its repr and NaN an empty
    cell, as byte rows over x (one per character position, NUL where a
    cell has none). The sign, then "0." and leading zeros (only if some
    cell is below 1), then the digits, with a dot row after each digit
    position some cell's point follows, then, verbatim, the repr of
    each cell whose digits _shortest does not prove (a power of two, a
    near tie, a cell outside fixed notation)."""
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e15) & ((ax.view(np.int64) & _MANTISSA) != 0)
    digits, exp10, proven = _shortest(np.where(fast, ax, 3.0))
    fast &= proven
    digits *= fast                      # zero renders as 0.0: digits 0, exponent 0
    exp10 *= fast
    shown = fast | (ax == 0)
    exp10 += ~shown * _UNSHOWN
    rows = _digit_rows(digits, 17)
    count = ((rows != 0) * _DIGIT_NO).max(axis=0)    # up to the last nonzero digit
    # Digits shown: the significant ones, and for a whole number the
    # zeros up to the point and the one after it.
    length = (np.maximum(count, exp10 + 2) * shown).astype(np.uint8)
    used = np.bincount((exp10 + 5) * shown, minlength=22)[1:]
    slots = []
    negative = np.signbit(x) & ~np.isnan(x)
    if negative.any():
        slots.append(negative[None] * _MINUS)
    if used[:4].any():                  # some exponent in -4..-1
        below = exp10 < 0
        slots.append(np.array([below * _ZERO, below * _DOT]
                              + [(exp10 < -z) * _ZERO
                                 for z in range(1, 4 - int(np.argmax(used[:4] > 0)))]))
    width = int(length.max())
    body = (_SLOT[:width, None] < length) * (rows[:width] + _ZERO)
    start = 0
    for point in np.flatnonzero(used[4:4 + width]).tolist():
        slots += [body[start:point + 1], (exp10 == point)[None] * _DOT]
        start = point + 1
    slots.append(body[start:])
    slow = np.flatnonzero(~shown & ~np.isnan(x))
    if slow.size:
        cells = np.array([repr(v).encode("ascii") for v in ax[slow].tolist()])
        block = np.zeros((cells.itemsize, x.size), np.uint8)
        block[:, slow] = cells.view(np.uint8).reshape(slow.size, -1).T
        slots.append(block)
    return slots


def _int_slots(x: np.ndarray) -> list[np.ndarray]:
    """The cells of whole float64 values x that int64 holds, each as an
    integer and NaN an empty cell, as byte rows like _float_slots'."""
    absent = np.isnan(x)
    values = np.where(absent, 0.0, x).astype(np.int64)
    magnitude = np.abs(values)
    width = len(str(int(magnitude.max())))
    rows = _digit_rows(magnitude, width)
    shown = magnitude >= _POWERS[-width:, None]     # from the first significant digit
    shown[-1] = True
    shown &= ~absent
    slots = [shown * (rows + _ZERO)]
    negative = values < 0
    if negative.any():
        slots.insert(0, negative[None] * _MINUS)
    return slots


def _csv_blocks(names: Iterable[str], columns: Iterable[np.ndarray],
               integral: Iterable[str] = ()) -> Iterator[bytes]:
    """Equal-length float64 columns as UTF-8 CSV, in pieces: `names` as
    the header, then one piece per _BLOCK_ROWS rows, one line per row,
    each cell the repr of its float and NaN an empty cell. The columns
    named in `integral` hold whole numbers that int64 holds, written as
    integers."""
    names, columns, integral = list(names), list(columns), set(integral)
    yield (",".join(names) + "\n").encode("utf-8")
    rows = len(columns[0]) if columns else 0
    for start in range(0, rows, _BLOCK_ROWS):
        slots = []
        for i, (name, column) in enumerate(zip(names, columns)):
            block = column[start:start + _BLOCK_ROWS]
            slots += (_int_slots if name in integral else _float_slots)(block)
            slots.append(np.full((1, block.size), 10 if i == len(names) - 1 else 44,
                                 np.uint8))
        yield np.concatenate(slots).T.tobytes().translate(None, b"\0")


def csv_bytes(names: Iterable[str], columns: Iterable[np.ndarray],
              integral: Iterable[str] = ()) -> bytes:
    """The CSV of _csv_blocks, whole."""
    return b"".join(_csv_blocks(names, columns, integral))


def table_text(table) -> str:
    """A columnar table (a trace or the window table) as CSV text: its
    field names as the header, then one line per row, floats in repr
    form and an absent value as an empty cell."""
    names = table.names()
    return csv_bytes(names, map(table.rendered, names), table.INTEGRAL).decode("utf-8")


def _careful(path: str | Path, names: tuple[str, ...], optional: bool, k: int,
             line: str) -> list[float] | None:
    """The values of line k of a canonical CSV body, line k + 2 of the
    file, each cell stripped and read by float() (an empty one as NaN);
    None for a blank line. A wrong field count, or a cell outside
    _NUMBER (an empty one unless optional), raises MalformedRecordError
    naming the line."""
    if not line.strip():
        return None
    cells = [c.strip() for c in line.split(",")]
    if len(cells) != len(names):
        raise MalformedRecordError(path, k + 2, f"expected {len(names)} fields, got {len(cells)}")
    for name, cell in zip(names, cells):
        if not (_NUMBER.fullmatch(cell) or (optional and not cell)):
            raise MalformedRecordError(path, k + 2, f"{name} is not a number: {cell!r}")
    return [float(cell) if cell else math.nan for cell in cells]


def _parse_text(path: str | Path, data: bytes, start: int, names: tuple[str, ...],
                optional: bool) -> tuple[np.ndarray, np.ndarray]:
    """The rows × fields table of the CSV text data[start:], below the
    header, and each row's line k in it (line k + 2 of the file), read
    by decimals.numeric_lines with _careful as its rule: a body that is
    not ASCII or holds a CR is decoded once (universal newlines) and
    re-encoded first. Blank lines are skipped and '#' is not a comment.
    With `optional`, an empty cell reads as NaN; otherwise it is
    malformed, as is a wrong field count or a cell that is not a
    decimal number, the first such line in the file raising."""
    from .decimals import numeric_lines   # only a CSV without a bound column file is parsed
    body = memoryview(data)[start:]
    if not data.isascii() or b"\r" in data:
        body = decode_text(path, data[start:], line=2).encode("utf-8")
    table, index = numeric_lines(body, len(names), [(j, False) for j in range(len(names))],
                                 optional, partial(_careful, path, names, optional))
    if not len(table):
        raise EmptyTraceError(f"{path}: no data rows")
    return table, index


def _columns_path(path: str | Path) -> Path:
    return Path(f"{path}.cols")


def _csv_digest(csv, first: bytes) -> bytes:
    """The digest that binds a column file to the CSV open as csv, the
    SHA-256 of _COLUMNS_TAG and its bytes. Its first line, first, is
    read and the rest not yet: the rest is hashed through one buffer a
    piece at a time, so the text is never held whole."""
    digest = hashlib.sha256(_COLUMNS_TAG)
    digest.update(first)
    for piece in _pieces(csv):
        digest.update(piece)
    return digest.digest()


def _pieces(fh: BinaryIO) -> Iterator[memoryview]:
    """The rest of fh, read through one buffer of _PIECE bytes: each
    piece is a view of it, valid until the next is read."""
    buf = bytearray(_PIECE)
    view = memoryview(buf)
    while size := fh.readinto(buf):
        yield view[:size]


def _mapped_table(fh, width: int) -> np.ndarray | None:
    """The float64 table of at least one row and `width` columns in the
    .npy data that follows in fh, as a read-only view of a mapping of
    the file; None unless the data is well-formed and exactly that
    table. Its header is checked before the file is mapped, so no file
    can make the read allocate more than the file holds, or unpickle
    anything."""
    if np.lib.format.read_magic(fh) != (1, 0):
        return None
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    offset = fh.tell()
    size = os.fstat(fh.fileno()).st_size - offset
    if (dtype != _FLOAT64 or len(shape) != 2 or shape[1] != width
            or shape[0] < 1 or size != shape[0] * width * _FLOAT64.itemsize):
        return None
    mapping = mmap.mmap(fh.fileno(), offset + size, access=mmap.ACCESS_READ)
    return np.ndarray(shape, _FLOAT64, mapping, offset,
                      order="F" if fortran_order else "C")


def _stored_table(path: str | Path, csv, first: bytes, kind: type) -> dict | None:
    """The columns by name of the table in the column file beside CSV
    path, open as csv with its first line, first, read; None unless
    that file exists, is bound to the CSV's bytes, holds a float64 table
    of at least one row and one column per field of `kind` (_mapped_table),
    and every row keeps to kind.faults. The CSV is hashed only when the
    column file opens; the rules are checked a block of rows at a time,
    up to the first block with a fault."""
    try:
        with open(_columns_path(path), "rb") as fh:
            if fh.read(_DIGEST_SIZE) != _csv_digest(csv, first):
                return None
            table = _mapped_table(fh, len(kind.names()))
    except (OSError, ValueError):
        return None
    if table is None:
        return None
    columns = dict(zip(kind.names(), np.ascontiguousarray(table.T)))
    for start in range(0, len(table), _CHECK_ROWS):
        if kind.faults({name: col[start:start + _CHECK_ROWS] for name, col in columns.items()}):
            return None
    return columns


def _header_end(path: str | Path, first: bytes, header: str) -> int:
    """The length of first, the first line of CSV path as read up to an
    LF, before its line end (an LF, a CR or CRLF); MissingColumnError
    unless that line, stripped of blanks, is header."""
    line = first.removesuffix(b"\n").partition(b"\r")[0]
    text = decode_text(path, line).strip()
    if text != header:
        raise MissingColumnError(f"{path}: expected header {header!r}, got {text!r}")
    return len(line)


def _read_trace(path: str | Path, kind: type):
    """The `kind` trace of a canonical CSV, rows in file order: from its
    column file when _stored_table takes it, else from its text, where a
    row outside the value domains of `kind` raises MalformedRecordError
    naming the CSV's path and the line _parse_text read the row from.
    The header is checked on the CSV's first line, before anything else
    is read; the whole text is read only when the column file is not
    taken."""
    names = kind.names()
    with open(path, "rb") as csv:
        first = csv.readline()
        end = _header_end(path, first, ",".join(names))
        columns = _stored_table(path, csv, first, kind)
        if columns is None:
            csv.seek(0)
            data = csv.read()
    if columns is None:
        start = end + (2 if data.startswith(b"\r\n", end) else 1)
        table, index = _parse_text(path, data, start, names, kind.EMPTY_IS_NAN)
        columns = dict(zip(names, np.ascontiguousarray(table.T)))
        faults = kind.faults(columns)
        if faults:
            row = min(faults)
            raise MalformedRecordError(path, int(index[row]) + 2, faults[row])
    return kind(**columns)


def _write_trace(path: str | Path, trace) -> None:
    """Write trace as a canonical CSV, then its column file, a block of
    the CSV at a time; a trace whose CSV the reader refuses gets no
    column file, and loses any older one. The columns are rendered
    first, so a value no cell can show raises before any file is
    touched. A split write (split_work) that fails is done again
    whole."""
    names = trace.names()
    columns = [trace.rendered(name) for name in names]
    digest = hashlib.sha256(_COLUMNS_TAG)

    def blocks(rows: slice) -> Iterator[bytes]:
        return _csv_blocks(names, [column[rows] for column in columns], trace.INTEGRAL)

    def write_csv(fh):
        nonlocal digest
        def send(pieces):
            for piece in pieces:
                digest.update(piece)
                fh.write(piece)

        # Split at the middle row, as a row's bytes do not depend on the
        # block it falls in: the head here, the tail's blocks after its
        # header in a child, whose bytes then follow through one buffer.
        half = len(trace) // 2
        if len(trace) >= _SPLIT_ROWS and may_split():
            try:
                split_work(lambda: send(blocks(slice(half))),
                           lambda out: out.writelines(islice(blocks(slice(half, None)), 1, None)),
                           lambda _, tail: send(_pieces(tail)))
                return
            except Exception:           # written again, whole: an empty file, a fresh digest
                fh.seek(0)
                fh.truncate()
                digest = hashlib.sha256(_COLUMNS_TAG)
        send(blocks(slice(None)))

    def write_columns(fh):
        # The .npy header np.lib.format.write_array gives the rows ×
        # fields table in Fortran order, fields × rows contiguous (in C
        # order for one row, where the two are the same bytes).
        fh.write(digest.digest())
        np.lib.format.write_array_header_1_0(fh, {
            "descr": _FLOAT64.str, "fortran_order": len(trace) > 1,
            "shape": (len(trace), len(names))})
        for column in columns:
            fh.write(np.ascontiguousarray(column, _FLOAT64))

    _atomic_write(path, write_csv)
    # The rows × fields table the text reader parses from that CSV is the
    # rendered columns', unless the reader refuses it. No value domain
    # admits an infinity, nor a latency column NaN, so the faults also
    # cover the text only the careful rule reads ("inf", an empty latency
    # cell), where it names the line with other words.
    if not len(trace) or trace.faults(dict(zip(names, columns))):
        _columns_path(path).unlink(missing_ok=True)
    else:
        _atomic_write(_columns_path(path), write_columns)


def write_latency_csv(path: str | Path, samples: LatencyTrace) -> None:
    _write_trace(path, samples)


def read_latency_csv(path: str | Path) -> LatencyTrace:
    """Latency rows in file order. A row outside the value domains of
    LatencyTrace.faults raises MalformedRecordError with its line."""
    return _read_trace(path, LatencyTrace)


def write_scheduler_csv(path: str | Path, snapshots: SchedulerTrace) -> None:
    _write_trace(path, snapshots)


def read_scheduler_csv(path: str | Path) -> SchedulerTrace:
    """Scheduler rows in file order, empty optional cells NaN. A row
    outside the value domains the raw fullstats parser enforces
    (SchedulerTrace.faults) raises MalformedRecordError with its line."""
    return _read_trace(path, SchedulerTrace)


def write_truth_csv(path: str | Path, stall_times_s: Iterable[float],
                    excursion_times_s: Iterable[float]) -> None:
    """Write the ground-truth sidecar: one `kind,t_s` line per stall,
    then per excursion, each kind in time order. A time that is not
    finite raises InvalidSpecError naming it."""
    lines = [TRUTH_HEADER]
    for kind, times in (("stall", stall_times_s), ("excursion", excursion_times_s)):
        times = np.sort(np.array(list(times), dtype=float), kind="stable")
        bad = times[~np.isfinite(times)]
        if bad.size:
            raise InvalidSpecError(
                f"cannot write {kind} time {float(bad[0])!r} to {path}: not finite")
        cells = csv_bytes(("t_s",), [times]).decode("utf-8").split("\n")[1:-1]
        lines.extend(f"{kind},{cell}" for cell in cells)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_run(out_dir: str | Path, run: Run,
              files: dict[str, str] | None = None) -> tuple[Path, dict]:
    """Write run into out_dir: `{run_id}_latency.csv`, then
    `{run_id}_sched.csv` when it has snapshots, then the manifest
    `{run_id}.manifest`. The manifest holds one key=value line per
    field: the metadata, then the files by key, these two and `files`
    (more files of the run, already in out_dir), with paths relative to
    out_dir. Returns the manifest's path and its fields, in that order."""
    out_dir, rid = Path(out_dir), run.meta.run_id
    files = {"latency_file": f"{rid}_latency.csv", **(files or {})}
    write_latency_csv(out_dir / files["latency_file"], run.latency)
    if len(run.scheduler):
        files["scheduler_file"] = f"{rid}_sched.csv"
        write_scheduler_csv(out_dir / files["scheduler_file"], run.scheduler)
    fields = {key: getattr(run.meta, key) for key in _MANIFEST_META_KEYS}
    fields.update(sorted(files.items()))
    manifest = out_dir / f"{rid}.manifest"
    atomic_write_text(manifest, "".join(
        f"{key}={float(value)!r}\n" if isinstance(value, float) else f"{key}={value}\n"
        for key, value in fields.items()))
    return manifest, fields
