"""Readers of the run manifest and the ground-truth CSV.

The library writes both files (canon.write_run,
canon.write_truth_csv) but never reads them back: the CLI takes its
runs from the campaign config. Tests read them to check what the
writers and the generator produced.
"""

import math
import os
from pathlib import Path

from taildiag.canon import _MANIFEST_META_KEYS, _NUMBER, TRUTH_HEADER
from taildiag.errors import MalformedRecordError, MissingColumnError
from taildiag.model import RunMetadata


def read_truth_csv(path) -> tuple[list[float], list[float]]:
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


def read_manifest(path) -> tuple[RunMetadata, dict[str, str]]:
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
