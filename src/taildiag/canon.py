"""Canonical on-disk formats: latency/scheduler CSVs, run manifests,
ground-truth sidecars.

Floats are written with repr (shortest round-trip form) so that
write -> read -> write is byte-identical and no precision is lost.
All files are UTF-8 with LF line endings and are written atomically
(temp file in the target directory, then rename).
"""

from __future__ import annotations

import io
import math
import os
import re
import tempfile
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
from .ingest import (
    LatencyTrace,
    RunMetadata,
    SchedulerTrace,
    first_faults,
    not_integer,
    scheduler_faults,
)

LATENCY_HEADER = ",".join(LatencyTrace.names())
SCHED_HEADER = ",".join(SchedulerTrace.names())
TRUTH_HEADER = "kind,t_s"

# Characters of a canonical numeric table; any other (say the letters
# of "nan" or "inf", or a hex prefix) sends the read down the careful
# path, which names the malformed line.
_NUMERIC_TEXT = {ord(c): None for c in "0123456789eE.+-, \t\r\n"}
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

# Manifest keys serialized for every run, in emission order.
_MANIFEST_META_KEYS = ("run_id", "ue_type", "distance_m", "packet_size_b",
                       "scenario", "ping_interval_s", "nominal_duration_s")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never
    observe a partially written file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
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
    text = text.replace(",\n", ",nan\n").replace(",\r", ",nan\r").replace("\n,", "\nnan,")
    if text.startswith(","):
        text = "nan" + text
    return text + "nan" if text.endswith(",") else text


def _loadtxt(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", dtype=float,
                      comments=None, ndmin=2)


def _read_slowly(path: str | Path, body: str, names: list[str],
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


def _read_table(path: str | Path, header: str,
                optional: bool) -> tuple[np.ndarray, str]:
    """Data rows of a canonical numeric CSV as a float64 table, and the
    text below the header. Blank lines are skipped and '#' is not a
    comment. With `optional`, an empty cell reads as NaN; otherwise it
    is malformed, as is a wrong field count or a cell that is not a
    decimal number."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise MissingColumnError(
                f"{path}: expected header {header!r}, got {first!r}")
        body = fh.read()
    if not body.strip():
        raise EmptyTraceError(f"{path}: no data rows")
    names = header.split(",")
    table = None
    if not body.translate(_NUMERIC_TEXT):
        try:
            table = _loadtxt(_fill_empty(body) if optional else body)
        except ValueError:
            pass
    if table is None or table.shape[1] != len(names):
        table = _read_slowly(path, body, names, optional)
    return table, body


def _raise_first(path: str | Path, body: str, faults: dict[int, str]) -> None:
    """Raise MalformedRecordError at the first faulty data row, if any."""
    if not faults:
        return
    row = min(faults)
    lines = (n for n, line in enumerate(body.split("\n"), start=2) if line.strip())
    raise MalformedRecordError(path, next(islice(lines, row, None)), faults[row])


def write_latency_csv(path: str | Path, samples: LatencyTrace) -> None:
    atomic_write_text(path, table_text(samples))


def read_latency_csv(path: str | Path) -> LatencyTrace:
    """Latency rows in file order. A row with a non-finite t_s, a seq
    that is not an integer or an rtt_ms that is not finite and > 0
    raises MalformedRecordError with its line."""
    table, body = _read_table(path, LATENCY_HEADER, optional=False)
    t, seq, rtt = table.T.copy()
    _raise_first(path, body, first_faults([
        ("t_s not finite", ~np.isfinite(t)),
        ("seq not an integer", not_integer(seq)),
        ("rtt_ms not finite and > 0", ~(np.isfinite(rtt) & (rtt > 0.0))),
    ]))
    return LatencyTrace(t, seq, rtt)


def write_scheduler_csv(path: str | Path, snapshots: SchedulerTrace) -> None:
    atomic_write_text(path, table_text(snapshots))


def read_scheduler_csv(path: str | Path) -> SchedulerTrace:
    """Scheduler rows in file order, empty optional cells NaN. A row
    outside the value domains the raw fullstats parser enforces
    (ingest.scheduler_faults) raises MalformedRecordError with its line."""
    table, body = _read_table(path, SCHED_HEADER, optional=True)
    columns = dict(zip(SchedulerTrace.names(), table.T.copy()))
    _raise_first(path, body, scheduler_faults(columns))
    return SchedulerTrace(**columns)


def write_truth_csv(path: str | Path, stall_times_s: Iterable[float],
                    excursion_times_s: Iterable[float]) -> None:
    lines = [TRUTH_HEADER]
    lines.extend(f"stall,{t!r}" for t in sorted(stall_times_s))
    lines.extend(f"excursion,{t!r}" for t in sorted(excursion_times_s))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_truth_csv(path: str | Path) -> tuple[list[float], list[float]]:
    """Returns (stall times, excursion times), each sorted ascending."""
    times: dict[str, list[float]] = {"stall": [], "excursion": []}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRUTH_HEADER:
            raise MissingColumnError(
                f"{path}: expected header {TRUTH_HEADER!r}, got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            kind, _, t = line.partition(",")
            if kind not in times:
                raise MalformedRecordError(path, line_no, f"unknown truth kind {kind!r}")
            if not _NUMBER.fullmatch(t) or not math.isfinite(float(t)):
                raise MalformedRecordError(path, line_no, f"t_s is not a finite number: {t!r}")
            times[kind].append(float(t))
    return sorted(times["stall"]), sorted(times["excursion"])


def write_manifest(path: str | Path, meta: RunMetadata,
                   files: dict[str, str]) -> None:
    """One key=value line per field; file paths are stored as given
    (pass paths relative to the manifest's directory for portability)."""
    lines = []
    for key in _MANIFEST_META_KEYS:
        value = getattr(meta, key)
        lines.append(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    for key in sorted(files):
        lines.append(f"{key}={files[key]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> tuple[RunMetadata, dict[str, str]]:
    """Returns the run metadata and a dict of the remaining entries
    (file paths, resolved against the manifest's directory)."""
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    missing = [k for k in _MANIFEST_META_KEYS if k not in entries]
    if missing:
        raise MissingColumnError(f"{path}: manifest missing keys {missing}")
    meta = RunMetadata(
        run_id=entries.pop("run_id"),
        ue_type=entries.pop("ue_type"),
        distance_m=float(entries.pop("distance_m")),
        packet_size_b=int(entries.pop("packet_size_b")),
        scenario=entries.pop("scenario"),
        nominal_duration_s=float(entries.pop("nominal_duration_s")),
        ping_interval_s=float(entries.pop("ping_interval_s")),
    )
    base = Path(path).parent
    for key, value in entries.items():
        if key.endswith("_file"):
            entries[key] = str(base / value) if not os.path.isabs(value) else value
    return meta, entries
