"""Raw log ingestion: ping reply lines and gNB fullstats CSV rows.

Both parsers are tolerant: lines or rows that cannot be used are counted
and reported, never silently dropped, and never abort the parse. An
input that yields zero usable records raises EmptyTraceError.
"""

from __future__ import annotations

import csv
import logging
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .errors import EmptyTraceError, InvalidSpecError, MissingColumnError

log = logging.getLogger(__name__)

UE_SMARTPHONE = "smartphone"
UE_MODEM = "modem"

SCENARIO_BASELINE = "baseline"
SCENARIO_DYNAMIC_PEOPLE = "dynamic_people"
SCENARIO_STATIC_LONG = "static_long"


@dataclass(frozen=True)
class RunMetadata:
    """Experimental context of one measurement run."""

    run_id: str
    ue_type: str
    distance_m: float
    packet_size_b: int
    scenario: str
    nominal_duration_s: float
    ping_interval_s: float = 0.2
    phase: str | None = None

    def __post_init__(self):
        if not self.run_id:
            raise InvalidSpecError("run_id must be non-empty")
        if not self.ue_type or not self.scenario:
            raise InvalidSpecError("ue_type and scenario must be non-empty")
        if self.distance_m < 0:
            raise InvalidSpecError(f"distance_m must be >= 0, got {self.distance_m}")
        if self.packet_size_b < 1:
            raise InvalidSpecError(f"packet_size_b must be >= 1, got {self.packet_size_b}")
        if self.ping_interval_s <= 0:
            raise InvalidSpecError(f"ping_interval_s must be > 0, got {self.ping_interval_s}")
        if self.nominal_duration_s <= 0:
            raise InvalidSpecError(
                f"nominal_duration_s must be > 0, got {self.nominal_duration_s}")


@dataclass(frozen=True)
class LatencySample:
    t_s: float
    seq: int
    rtt_ms: float


@dataclass(frozen=True)
class SchedulerSnapshot:
    t_s: float
    rnti: int
    dl_bler: float
    ul_bler: float | None = None
    dl_mcs: int | None = None
    ul_mcs: int | None = None
    snr_db: float | None = None
    rsrp_dbm: float | None = None
    dl_retx: int | None = None
    dl_total: int | None = None


@dataclass(frozen=True)
class Run:
    meta: RunMetadata
    latency: tuple[LatencySample, ...]
    scheduler: tuple[SchedulerSnapshot, ...]


@dataclass
class PingParseResult:
    """Samples plus an accounting of every input line.

    len(samples) + skipped_lines + len(malformed) equals the number of
    lines consumed. skipped_lines counts non-reply lines (headers,
    summaries, timeouts); malformed holds reply-looking lines whose
    fields could not be extracted, as (line_number, line) pairs.
    """

    samples: list[LatencySample] = field(default_factory=list)
    skipped_lines: int = 0
    malformed: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class FullstatsParseResult:
    snapshots: list[SchedulerSnapshot] = field(default_factory=list)
    skipped_rows: int = 0


_EPOCH_RE = re.compile(r"^\[(\d+(?:\.\d+)?)\]")
_REPLY_RE = re.compile(r"icmp_[sr]eq=(\d+)\b.*?\btime=(\d+(?:\.\d+)?)\s*ms")


def _is_reply_candidate(line: str) -> bool:
    return "bytes from" in line and ("icmp_seq=" in line or "icmp_req=" in line)


def parse_ping_log(lines: Iterable[str], meta: RunMetadata) -> PingParseResult:
    """Parse standard ping reply output into time-ordered latency samples.

    Reply lines may carry a leading bracketed epoch timestamp; when they
    do, t_s is the offset from the earliest such epoch, otherwise
    t_s = seq * meta.ping_interval_s.
    """
    result = PingParseResult()
    raw: list[tuple[float | None, int, float]] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not _is_reply_candidate(line):
            result.skipped_lines += 1
            continue
        m = _REPLY_RE.search(line)
        rtt = float(m.group(2)) if m else 0.0
        if m is None or rtt <= 0.0:
            result.malformed.append((line_no, line))
            log.warning("ping line %d unparseable: %s", line_no, line)
            continue
        em = _EPOCH_RE.match(line)
        epoch = float(em.group(1)) if em else None
        raw.append((epoch, int(m.group(1)), rtt))
    if not raw:
        raise EmptyTraceError("no ping reply lines parsed")
    epochs = [e for e, _, _ in raw if e is not None]
    # Earliest epoch as base, not the first line's, so t_s stays >= 0
    # even when replies arrive out of order.
    base = min(epochs) if epochs else 0.0
    for epoch, seq, rtt in raw:
        t = epoch - base if epoch is not None else seq * meta.ping_interval_s
        result.samples.append(LatencySample(t_s=t, seq=seq, rtt_ms=rtt))
    result.samples.sort(key=lambda s: (s.t_s, s.seq))
    return result


# Canonical fullstats fields and their value domains. column_map maps
# these names to the header names of the incoming CSV; only rnti and
# dl_bler are mandatory, t_s is the optional timestamp column.
FULLSTATS_FIELDS = ("t_s", "rnti", "dl_bler", "ul_bler", "dl_mcs", "ul_mcs",
                    "snr_db", "rsrp_dbm", "dl_retx", "dl_total")
_REQUIRED_FIELDS = ("rnti", "dl_bler")


def _parse_int(cell: str) -> int:
    cell = cell.strip()
    if cell.lower().startswith("0x"):
        return int(cell, 16)
    v = float(cell)
    if v != int(v):
        raise ValueError(f"not an integer: {cell!r}")
    return int(v)


def _row_snapshot(cells: Mapping[str, str], t_s: float) -> SchedulerSnapshot:
    """Build one snapshot from mapped cells; raises ValueError on any
    out-of-domain value (caller skips and counts the row)."""
    rnti = _parse_int(cells["rnti"])
    if rnti < 0:
        raise ValueError("rnti < 0")
    dl_bler = float(cells["dl_bler"])
    if not 0.0 <= dl_bler <= 1.0:
        raise ValueError("dl_bler outside [0,1]")

    def opt_float(name: str, lo: float | None = None, hi: float | None = None):
        cell = cells.get(name, "").strip()
        if not cell:
            return None
        v = float(cell)
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            raise ValueError(f"{name} outside range")
        return v

    def opt_int(name: str, lo: int, hi: int | None = None):
        cell = cells.get(name, "").strip()
        if not cell:
            return None
        v = _parse_int(cell)
        if v < lo or (hi is not None and v > hi):
            raise ValueError(f"{name} outside range")
        return v

    retx = opt_int("dl_retx", 0)
    total = opt_int("dl_total", 0)
    if retx is not None and total is not None and total > 0 and retx > total:
        raise ValueError("dl_retx > dl_total")
    return SchedulerSnapshot(
        t_s=t_s,
        rnti=rnti,
        dl_bler=dl_bler,
        ul_bler=opt_float("ul_bler", 0.0, 1.0),
        dl_mcs=opt_int("dl_mcs", 0, 28),
        ul_mcs=opt_int("ul_mcs", 0, 28),
        snr_db=opt_float("snr_db"),
        rsrp_dbm=opt_float("rsrp_dbm"),
        dl_retx=retx,
        dl_total=total,
    )


def parse_fullstats(lines: Iterable[str], column_map: Mapping[str, str],
                    meta: RunMetadata, *, stats_period_s: float = 1.0,
                    rebase_time: bool = True) -> FullstatsParseResult:
    """Parse a delimited fullstats table into scheduler snapshots.

    column_map maps canonical field names (FULLSTATS_FIELDS) to header
    names in the incoming file. Without a mapped t_s column, row index
    times stats_period_s is used as the snapshot time. Rows with values
    outside the documented domains are skipped and counted.
    """
    for name in _REQUIRED_FIELDS:
        if name not in column_map:
            raise MissingColumnError(f"column_map must map {name!r}")
    unknown = set(column_map) - set(FULLSTATS_FIELDS)
    if unknown:
        raise InvalidSpecError(f"unknown canonical fields in column_map: {sorted(unknown)}")

    reader = csv.reader(lines)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise EmptyTraceError("fullstats input has no header row") from None
    missing = [col for col in column_map.values() if col not in header]
    if missing:
        raise MissingColumnError(f"mapped columns absent from header: {missing}")
    col_idx = {name: header.index(col) for name, col in column_map.items()}

    result = FullstatsParseResult()
    rows: list[tuple[float, SchedulerSnapshot]] = []
    for row_idx, row in enumerate(reader):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            cells = {name: row[i] for name, i in col_idx.items()}
            if "t_s" in cells:
                t_raw = float(cells["t_s"])
            else:
                t_raw = row_idx * stats_period_s
            rows.append((t_raw, _row_snapshot(cells, t_s=t_raw)))
        except (ValueError, IndexError) as exc:
            result.skipped_rows += 1
            log.warning("fullstats row %d skipped: %s", row_idx + 1, exc)
    if not rows:
        raise EmptyTraceError("no usable fullstats rows parsed")

    base = min(t for t, _ in rows) if ("t_s" in column_map and rebase_time) else 0.0
    result.snapshots = sorted(
        (replace(snap, t_s=t - base) for t, snap in rows),
        key=lambda s: (s.t_s, s.rnti))
    return result


def select_dominant_rnti(
        snapshots: Sequence[SchedulerSnapshot]) -> tuple[int, list[SchedulerSnapshot]]:
    """RNTI with the most records and its subsequence; ties break low."""
    if not snapshots:
        raise EmptyTraceError("no snapshots to select an RNTI from")
    counts = Counter(s.rnti for s in snapshots)
    rnti = min(counts, key=lambda r: (-counts[r], r))
    return rnti, [s for s in snapshots if s.rnti == rnti]


def consolidate_run(latency: Sequence[LatencySample],
                    scheduler: Sequence[SchedulerSnapshot],
                    meta: RunMetadata, *,
                    sched_offset_s: float = 0.0) -> Run:
    """Assemble a Run: both layers time-sorted, scheduler restricted to
    the dominant RNTI, optional constant offset applied to scheduler
    times (snapshots shifted below t=0 are dropped)."""
    lat = tuple(sorted(latency, key=lambda s: (s.t_s, s.seq)))
    sched: tuple[SchedulerSnapshot, ...] = ()
    if scheduler:
        _, dominant = select_dominant_rnti(scheduler)
        if sched_offset_s:
            dominant = [replace(s, t_s=s.t_s + sched_offset_s) for s in dominant]
            dropped = sum(1 for s in dominant if s.t_s < 0)
            if dropped:
                log.warning("sched offset %.3fs drops %d snapshots below t=0",
                            sched_offset_s, dropped)
            dominant = [s for s in dominant if s.t_s >= 0]
        sched = tuple(sorted(dominant, key=lambda s: s.t_s))
    return Run(meta=meta, latency=lat, scheduler=sched)

