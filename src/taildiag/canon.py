"""Canonical on-disk formats: latency/scheduler CSVs, run manifests,
ground-truth sidecars, and the column file beside each latency and
scheduler CSV.

Floats are written with repr (shortest round-trip form) so that
write -> read -> write is byte-identical and no precision is lost.
All files are UTF-8 with LF line endings and are written atomically
(temp file in the target directory, then rename).

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
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    EmptyTraceError,
    MalformedRecordError,
    MissingColumnError,
    ToolkitError,
)
from .ingest import LatencyTrace, Run, SchedulerTrace

TRUTH_HEADER = "kind,t_s"

# Bytes of a canonical numeric table; any other (say the letters of
# "nan" or "inf", a hex prefix, or a byte outside ASCII) sends the read
# down the careful path, which names the malformed line.
_NUMERIC_BYTES = b"0123456789eE.+-, \t\r\n"
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
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


def _decode(path: str | Path, data: bytes, start: int = 0) -> str:
    """data[start:], where data are the bytes of the file at path, as
    UTF-8 text with universal newlines (CRLF and CR read as LF). A byte
    that is not UTF-8 raises MalformedRecordError naming its line."""
    try:
        text = data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = start + exc.start
        head = data[:bad]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise MalformedRecordError(
            path, line, f"not UTF-8 text: byte {data[bad]:#04x}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


@contextmanager
def open_text(path: str | Path):
    """The file at path opened as UTF-8 text with universal newlines. A
    byte that is not UTF-8 raises MalformedRecordError naming its line,
    found by decoding the file's bytes again."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            _decode(path, Path(path).read_bytes())
            raise


def _num(x: float | int | None) -> str:
    return "" if x is None else repr(x)


def table_text(table) -> str:
    """A columnar table (a trace or the window table) as CSV text: its
    field names as the header, then one line per row, floats in repr
    form and an absent value as an empty cell."""
    columns = [map(_num if None in values else repr, values)
               for values in map(table.values, table.names())]
    return "\n".join([",".join(table.names()), *map(",".join, zip(*columns))]) + "\n"


def _fill_empty(text: str) -> str:
    # Empty cells become "nan", which loadtxt reads as NaN. Only for
    # text already checked to hold no letter but e/E, so every NaN in
    # the table comes from an empty cell.
    text = text.replace(",,", ",nan,").replace(",,", ",nan,")
    text = text.replace(",\n", ",nan\n").replace("\n,", "\nnan,")
    if text.startswith(","):
        text = "nan" + text
    return text + "nan" if text.endswith(",") else text


def _loadtxt(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", dtype=float,
                      comments=None, ndmin=2)


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
    text = "\n".join(kept)
    try:
        return _loadtxt(_fill_empty(text) if optional else text)
    except ValueError as exc:
        raise ToolkitError(f"{path}: {exc}") from None


def _parse_text(path: str | Path, data: bytes, start: int,
                names: tuple[str, ...], optional: bool) -> np.ndarray:
    """The rows × fields table of the CSV text data[start:], below the
    header. Blank lines are skipped and '#' is not a comment. With
    `optional`, an empty cell reads as NaN; otherwise it is malformed,
    as is a wrong field count or a cell that is not a decimal number."""
    body = _decode(path, data, start)
    if not body.strip():
        raise EmptyTraceError(f"{path}: no data rows")
    table = None
    if not data[start:].translate(None, _NUMERIC_BYTES):
        try:
            table = _loadtxt(_fill_empty(body) if optional else body)
        except ValueError:
            pass
    if table is None or table.shape[1] != len(names):
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
    lines = _decode(path, data).split("\n")
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
    first = _decode(path, data[:end]).strip()
    if first != header:
        raise MissingColumnError(f"{path}: expected header {header!r}, got {first!r}")
    table = _stored_table(path, data, len(names))
    if table is None:
        start = end + (2 if data.startswith(b"\r\n", end) else 1)
        table = _parse_text(path, data, start, names, kind.EMPTY_IS_NAN)
    columns = dict(zip(names, np.ascontiguousarray(table.T)))
    _raise_first(path, data, kind.faults(columns))
    return kind(**columns)


def _table_as_read(trace) -> np.ndarray | None:
    """The rows × fields table the text reader parses from the canonical
    CSV of trace, or None when the reader refuses that CSV. No value
    domain admits an infinity, nor a latency column NaN, so the faults
    also cover the text only the careful path reads ("inf", an empty
    latency cell), where it names the line with other words."""
    names = trace.names()
    columns = np.array([trace.rendered(name) for name in names])
    if not len(trace) or trace.faults(dict(zip(names, columns))):
        return None
    return columns.T    # column by column on disk: fields × rows contiguous


def _write_trace(path: str | Path, trace) -> None:
    """Write trace as a canonical CSV, then its column file; a trace
    whose CSV the reader refuses gets none, and loses any older one."""
    data = table_text(trace).encode("utf-8")
    atomic_write_bytes(path, data)
    table = _table_as_read(trace)
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
    lines = [TRUTH_HEADER]
    lines.extend(f"stall,{t!r}" for t in sorted(stall_times_s))
    lines.extend(f"excursion,{t!r}" for t in sorted(excursion_times_s))
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
        f"{key}={value!r}\n" if isinstance(value, float) else f"{key}={value}\n"
        for key, value in fields.items()))
    return manifest, fields
