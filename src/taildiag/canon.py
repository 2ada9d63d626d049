"""Canonical on-disk formats: latency/scheduler CSVs, run manifests,
ground-truth sidecars, and the column file beside each latency and
scheduler CSV.

Floats are written as their repr (shortest round-trip form) so that
write -> read -> write is byte-identical and no precision is lost.
All files are UTF-8 with LF line endings and are written atomically
(temp file in the target directory, then rename).

Data tables are rendered by one kernel (`csv_bytes`), a block of rows
at a time. It finds the digits repr picks with numpy: an exact scaled
product (Dekker's two-product) gives the 17-digit decimal of each float
and its residual, and the shortest of the 15-, 16- and 17-digit
roundings that lies within half an ulp is the one repr prints. A cell
it cannot prove that way (a power of two, a near tie or round-trip
boundary, an exponent outside fixed notation) is rendered by repr
itself, so the output is repr's byte for byte. Each character position
of a cell is one byte vector over the block's rows, NUL where a cell
has no character; the block is transposed to rows and the NULs
dropped.

The text reader splits a CSV's bytes into cells with numpy and reads
them with the exact decimal reader (`decimals.decode`); a cell that
reader leaves is float() of it where the canonical grammar allows it,
and any other text goes to a careful path that names the malformed line.

A column file `<name>.csv.cols` holds the SHA-256 of a format tag and
the CSV's bytes, then the float64 table the text reader parses from
them, in .npy form.
The reader takes the table from it only while the digest matches the
CSV it has just read; otherwise it parses the text. The CSV is the
record: the column file is derived from it, and deleting it changes
nothing but the time a read takes.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import tempfile
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from . import decimals
from .decimals import POW10 as _POW10
from .decimals import POW10_HI as _POW10_HI
from .decimals import POW10_LO as _POW10_LO
from .decimals import SPLIT as _SPLIT
from .decimals import TIE_MARGIN as _TIE_MARGIN
from .errors import (
    EmptyTraceError,
    InvalidSpecError,
    MalformedRecordError,
    MissingColumnError,
)
from .chunks import decode_text
from .ingest import LatencyTrace, Run, SchedulerTrace

TRUTH_HEADER = "kind,t_s"

# The grammar of a canonical numeric cell. A cell outside it (say
# "nan", "inf", a hex prefix or a space) sends the read down the
# careful path, which names the malformed line.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DIGEST_SIZE = hashlib.sha256().digest_size
# Hashed ahead of the CSV bytes into a column file's digest. Any change
# to the table the text reader yields for the same bytes (empty cells,
# integral columns, -0.0, ...) must change this tag, so that column
# files written before it stop matching and the text is read instead.
_COLUMNS_TAG = b"taildiag columns 1\n"
_FLOAT64 = np.dtype("<f8")

# Manifest keys serialized for every run, in emission order.
_MANIFEST_META_KEYS = ("run_id", "ue_type", "distance_m", "packet_size_b",
                       "scenario", "ping_interval_s", "nominal_duration_s")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write data to path via a temp file and rename, so readers never
    observe a partially written file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """atomic_write_bytes of text in UTF-8."""
    atomic_write_bytes(path, text.encode("utf-8"))


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
    _TIE_MARGIN. No candidate rounds up to 10**17 within half an ulp:
    the power of ten it stands for is a double, a whole ulp from ax."""
    exp10 = np.floor(np.log10(ax))
    k = (16 - exp10).astype(np.intp)
    scale = _POW10[k]
    p = ax * scale
    split = _SPLIT * ax
    hi = split - (split - ax)
    lo = ax - hi
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((hi * s_hi - p) + hi * s_lo + lo * s_hi) + lo * s_lo
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
    inside, outside = half_ulp * (1 - _TIE_MARGIN), half_ulp * (1 + _TIE_MARGIN)
    digits = np.where(d15 < inside, c15 * 100, np.where(d16 < inside, c16 * 10, m17))
    off_tie = np.abs(rho)
    proven = ((m17 >= 10 ** 16) & (m17 < 10 ** 17)
              & ((d15 < inside) | (d15 > outside)) & ((d16 < inside) | (d16 > outside))
              & (off_tie < 0.5 - _TIE_MARGIN)
              & ((off_tie > _TIE_MARGIN) | ((r16 != 5) & (r15 != 50))))
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


def csv_bytes(names: Iterable[str], columns: Iterable[np.ndarray],
              integral: Iterable[str] = ()) -> bytes:
    """Equal-length float64 columns as UTF-8 CSV: `names` as the header,
    then one line per row, each cell the repr of its float and NaN an
    empty cell. The columns named in `integral` hold whole numbers that
    int64 holds, written as integers."""
    names, columns, integral = list(names), list(columns), set(integral)
    parts = [(",".join(names) + "\n").encode("utf-8")]
    rows = len(columns[0]) if columns else 0
    for start in range(0, rows, _BLOCK_ROWS):
        slots = []
        for i, (name, column) in enumerate(zip(names, columns)):
            block = column[start:start + _BLOCK_ROWS]
            slots += (_int_slots if name in integral else _float_slots)(block)
            slots.append(np.full((1, block.size), 10 if i == len(names) - 1 else 44,
                                 np.uint8))
        parts.append(np.concatenate(slots).T.tobytes().translate(None, b"\0"))
    return b"".join(parts)


def table_text(table) -> str:
    """A columnar table (a trace or the window table) as CSV text: its
    field names as the header, then one line per row, floats in repr
    form and an absent value as an empty cell."""
    names = table.names()
    return csv_bytes(names, map(table.rendered, names), table.INTEGRAL).decode("utf-8")


def _read_cells(data: bytes, start: int, width: int, optional: bool) -> np.ndarray | None:
    """The rows × width table of the ASCII CSV text data[start:], lines
    of width cells split on commas, each cell read by decimals.decode,
    or where it leaves one that _NUMBER matches, by float(); with
    `optional` an empty cell reads as NaN. None for any other text: no
    line, a line of another width (a blank one), a cell with blanks or
    outside _NUMBER, or an empty cell without `optional`."""
    body = data[start:]
    pad = bytes(decimals.MAX_CELL)      # so decode need not copy buf to pad it
    buf = np.frombuffer(pad + body + (b"" if body.endswith(b"\n") else b"\n") + pad,
                        np.uint8)
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    is_nl = buf[seps] == ord("\n")
    rows, extra = divmod(len(seps), width)
    if not rows or extra or not is_nl[width - 1::width].all() or is_nl.sum() != rows:
        return None
    ends = seps.reshape(rows, width)
    starts = np.concatenate(([len(pad) - 1], seps[:-1])).reshape(rows, width) + 1
    table = np.empty((rows, width))
    for j in range(width):
        ok, table[:, j] = decimals.decode(buf, starts[:, j], ends[:, j])
        if not optional and np.isnan(table[ok, j]).any():
            return None
        for k in np.flatnonzero(~ok).tolist():
            cell = bytes(buf[starts[k, j]:ends[k, j]]).decode("ascii")
            if not _NUMBER.fullmatch(cell):
                return None
            table[k, j] = float(cell)
    return table


def _read_slowly(path: str | Path, body: str, names: tuple[str, ...],
                 optional: bool) -> np.ndarray:
    """The table of a body the fast read refused: raises at its first
    malformed line, else reads its non-blank lines (the fast read also
    refuses whitespace-only lines and blanks around cells)."""
    kept = []
    for line_no, line in enumerate(body.split("\n"), start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(names):
            raise MalformedRecordError(
                path, line_no, f"expected {len(names)} fields, got {len(cells)}")
        for name, cell in zip(names, cells):
            if not (_NUMBER.fullmatch(cell) or (optional and not cell)):
                raise MalformedRecordError(path, line_no,
                                           f"{name} is not a number: {cell!r}")
        kept.append(",".join(cells))
    return _read_cells("\n".join(kept).encode("ascii"), 0, len(names), optional)


def _parse_text(path: str | Path, data: bytes, start: int,
                names: tuple[str, ...], optional: bool) -> np.ndarray:
    """The rows × fields table of the CSV text data[start:], below the
    header. Blank lines are skipped and '#' is not a comment. With
    `optional`, an empty cell reads as NaN; otherwise it is malformed,
    as is a wrong field count or a cell that is not a decimal number."""
    table = _read_cells(data, start, len(names), optional) if data.isascii() else None
    if table is None:
        body = decode_text(path, data[start:], line=2)
        if not body.strip():
            raise EmptyTraceError(f"{path}: no data rows")
        table = _read_slowly(path, body, names, optional)
    return table


def _columns_path(path: str | Path) -> Path:
    return Path(f"{path}.cols")


def _columns_digest(data: bytes) -> bytes:
    """The digest that binds a column file to the CSV bytes data."""
    digest = hashlib.sha256(_COLUMNS_TAG)
    digest.update(data)
    return digest.digest()


def _stored_table(path: str | Path, data: bytes, width: int) -> np.ndarray | None:
    """The rows × width table of the column file beside CSV path, whose
    bytes are data; None unless that file exists, is bound to data and
    holds a float64 table of at least one row. Its header is checked
    before any array is made, so no file can make the read allocate more
    than the file holds, or unpickle anything."""
    try:
        with open(_columns_path(path), "rb") as fh:
            if fh.read(_DIGEST_SIZE) != _columns_digest(data):
                return None
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if (dtype != _FLOAT64 or len(shape) != 2 or shape[1] != width
                    or shape[0] < 1 or size != shape[0] * width * _FLOAT64.itemsize):
                return None
            fh.seek(_DIGEST_SIZE)
            return np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None


def _raise_first(path: str | Path, data: bytes, faults: dict[int, str]) -> None:
    """Raise MalformedRecordError at the first faulty data row of the
    CSV whose bytes are data, if any."""
    if not faults:
        return
    row = min(faults)
    lines = decode_text(path, data).split("\n")
    rows = (n for n, line in enumerate(lines[1:], start=2) if line.strip())
    raise MalformedRecordError(path, next(islice(rows, row, None)), faults[row])


def _read_trace(path: str | Path, kind: type):
    """The `kind` trace of a canonical CSV, rows in file order: from its
    column file when one is bound to the CSV's bytes, else from its
    text. Either way the header is checked and each row is held to the
    value domains of `kind`, a fault naming the CSV's path and line."""
    names = kind.names()
    header = ",".join(names)
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    cr = data.find(b"\r", 0, end)
    end = end if cr < 0 else cr
    first = decode_text(path, data[:end]).strip()
    if first != header:
        raise MissingColumnError(f"{path}: expected header {header!r}, got {first!r}")
    table = _stored_table(path, data, len(names))
    if table is None:
        start = end + (2 if data.startswith(b"\r\n", end) else 1)
        table = _parse_text(path, data, start, names, kind.EMPTY_IS_NAN)
    columns = dict(zip(names, np.ascontiguousarray(table.T)))
    _raise_first(path, data, kind.faults(columns))
    return kind(**columns)


def _table_as_read(trace, columns: np.ndarray) -> np.ndarray | None:
    """The rows × fields table the text reader parses from the canonical
    CSV of trace, whose fields × rows `columns` are trace.rendered of
    each field, or None when the reader refuses that CSV. No value
    domain admits an infinity, nor a latency column NaN, so the faults
    also cover the text only the careful path reads ("inf", an empty
    latency cell), where it names the line with other words."""
    if not len(trace) or trace.faults(dict(zip(trace.names(), columns))):
        return None
    return columns.T    # column by column on disk: fields × rows contiguous


def _write_trace(path: str | Path, trace) -> None:
    """Write trace as a canonical CSV, then its column file; a trace
    whose CSV the reader refuses gets none, and loses any older one."""
    names = trace.names()
    columns = np.array([trace.rendered(name) for name in names])
    data = csv_bytes(names, columns, trace.INTEGRAL)
    atomic_write_bytes(path, data)
    table = _table_as_read(trace, columns)
    if table is None:
        _columns_path(path).unlink(missing_ok=True)
        return
    buf = io.BytesIO()
    buf.write(_columns_digest(data))
    np.lib.format.write_array(buf, table, allow_pickle=False)
    atomic_write_bytes(_columns_path(path), buf.getvalue())


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
