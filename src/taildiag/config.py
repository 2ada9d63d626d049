"""Declarative campaign configuration, one JSON file per campaign.

Layout:

    {
      "output_dir": "out",
      "window":  {"width_s": 10.0, "stride_s": 5.0},
      "policy":  {"lat_p95_threshold_ms": 100.0, "bler_mean_threshold": 0.10},
      "thresholds": {"exceed_ms": [100, 1000], "outlier_ms": 1000},
      "column_map": {"rnti": "rnti", "dl_bler": "dl_bler"},
      "runs": [
        {"run_id": "baseline", "ue_type": "smartphone", ...,
         "latency_file": "baseline/latency.csv",
         "scheduler_file": "baseline/sched.csv"}
      ]
    }

Every section is optional except runs (and even that may be an empty
list). Relative paths are resolved against the directory containing
the config file, so a generated campaign directory is self-contained.
Unknown keys are rejected rather than ignored; a typo in a threshold
name must not silently fall back to a default. So is a value of the
wrong type: every number must be finite and of its declared type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InvalidSpecError, check_fields, check_value
from .flags import FlagPolicy
from .chunks import decode_text
from .ingest import RunMetadata
from .stats import DEFAULT_OUTLIER_MS, EXCEED_FAST_MS, EXCEED_STALL_MS
from .windows import WindowSpec

DEFAULT_COLUMN_MAP = {"rnti": "rnti", "dl_bler": "dl_bler"}
DEFAULT_EXCEED_MS = (EXCEED_FAST_MS, EXCEED_STALL_MS)

_PATH_KEYS = ("latency_file", "scheduler_file", "truth_file", "ping_log", "fullstats")


@dataclass(frozen=True)
class RunConfig:
    """One run: its metadata plus where its data lives. Canonical files
    take precedence over raw logs when both are given."""

    run_id: str
    ue_type: str = "other"
    distance_m: float = 0.0
    packet_size_b: int = 30
    scenario: str = "other"
    nominal_duration_s: float | None = None
    ping_interval_s: float = 0.2
    stats_period_s: float = 1.0
    sched_offset_s: float = 0.0
    latency_file: str | None = None
    scheduler_file: str | None = None
    truth_file: str | None = None
    ping_log: str | None = None
    fullstats: str | None = None
    column_map: dict | None = None

    def __post_init__(self):
        check_fields(self)
        if self.stats_period_s <= 0:
            raise InvalidSpecError(
                f"stats_period_s must be > 0, got {self.stats_period_s}")
        self.metadata()     # the metadata fields obey RunMetadata's rules

    def metadata(self) -> RunMetadata:
        """The run's metadata as the parsers see it; without a configured
        nominal duration it reads 1 s until load_run takes one from the
        data."""
        return RunMetadata(
            run_id=self.run_id, ue_type=self.ue_type, distance_m=self.distance_m,
            packet_size_b=self.packet_size_b, scenario=self.scenario,
            nominal_duration_s=(1.0 if self.nominal_duration_s is None
                                else self.nominal_duration_s),
            ping_interval_s=self.ping_interval_s)


@dataclass(frozen=True)
class CampaignConfig:
    runs: tuple[RunConfig, ...] = ()
    window: WindowSpec = WindowSpec()
    policy: FlagPolicy = FlagPolicy()
    exceed_thresholds_ms: tuple[float, ...] = DEFAULT_EXCEED_MS
    outlier_ms: float = DEFAULT_OUTLIER_MS
    column_map: dict | None = None
    output_dir: str = "."

    def __post_init__(self):
        check_fields(self)
        ids = [r.run_id for r in self.runs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InvalidSpecError(f"duplicate run_ids in config: {dupes}")
        if not self.exceed_thresholds_ms:
            raise InvalidSpecError("exceed_ms must list at least one threshold")
        for t in self.exceed_thresholds_ms:
            check_value("exceed_ms", t, "float")
        if any(t <= 0 for t in self.exceed_thresholds_ms) or self.outlier_ms <= 0:
            raise InvalidSpecError("thresholds must be positive")

    def run(self, run_id: str) -> RunConfig:
        for r in self.runs:
            if r.run_id == run_id:
                return r
        known = [r.run_id for r in self.runs]
        raise InvalidSpecError(f"unknown run_id {run_id!r}; config has {known}")


def _build(cls, raw, where: str):
    if not isinstance(raw, dict):
        raise InvalidSpecError(f"{where} must be an object, got {raw!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise InvalidSpecError(f"unknown keys in {where}: {sorted(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, InvalidSpecError) as exc:
        raise InvalidSpecError(f"bad {where}: {exc}") from None


def load_config(path: str | Path) -> CampaignConfig:
    path = Path(path)
    try:
        raw = json.loads(decode_text(path, path.read_bytes()))
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidSpecError(f"{path}: top level must be an object")
    known_top = {"runs", "window", "policy", "thresholds", "column_map", "output_dir"}
    unknown = set(raw) - known_top
    if unknown:
        raise InvalidSpecError(f"{path}: unknown top-level keys {sorted(unknown)}")

    base = path.parent
    entries = raw.get("runs", [])
    if not isinstance(entries, list):
        raise InvalidSpecError(f"{path}: runs must be a list of run objects")
    runs = []
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            entry = dict(entry)
            for key in _PATH_KEYS:
                value = entry.get(key)
                if value and isinstance(value, str) and not Path(value).is_absolute():
                    entry[key] = str(base / value)
        runs.append(_build(RunConfig, entry, f"runs[{i}]"))

    thresholds = raw.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise InvalidSpecError(f"{path}: thresholds must be an object")
    unknown = set(thresholds) - {"exceed_ms", "outlier_ms"}
    if unknown:
        raise InvalidSpecError(f"{path}: unknown threshold keys {sorted(unknown)}")
    exceed = thresholds.get("exceed_ms", DEFAULT_EXCEED_MS)
    if not isinstance(exceed, (list, tuple)):
        raise InvalidSpecError(
            f"{path}: exceed_ms must be a list of numbers, got {exceed!r}")

    out_dir = raw.get("output_dir", ".")
    if isinstance(out_dir, str) and not Path(out_dir).is_absolute():
        out_dir = str(base / out_dir)

    return CampaignConfig(
        runs=tuple(runs),
        window=_build(WindowSpec, raw.get("window", {}), "window section"),
        policy=_build(FlagPolicy, raw.get("policy", {}), "policy section"),
        exceed_thresholds_ms=tuple(exceed),
        outlier_ms=thresholds.get("outlier_ms", DEFAULT_OUTLIER_MS),
        column_map=raw.get("column_map"),
        output_dir=out_dir,
    )
