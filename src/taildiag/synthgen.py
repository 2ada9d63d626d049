"""Seed-driven generator of coupled latency and scheduler traces.

The model, in brief:

- Base RTT is right-skewed unimodal: median * exp(jitter * z) with z a
  standard normal clipped to [-4, 4], so its support is bounded and a
  profile without stalls can never cross the 1 s line.
- Stalls are multi-second events. Each ping slot triggers an event with
  probability stall_prob; an event lasts uniform(6, 10) seconds and adds
  a Pareto(alpha=1.5, scale=stall_scale_ms) excess to every sample it
  covers, so a stall is always at least stall_scale_ms above base.
  Events that would run past the end of the trace are suppressed.
  Ground-truth stall times are event centers.
- Scheduler BLER sits exactly at bler_baseline except during excursions
  (independent per-second draws, plus excursions forced on every second
  covered by a coupled stall event), which lift it by 0.6 to 0.9.
- MCS follows a deterministic adaptation rule and SNR dips 6 dB during
  excursions.

Randomness comes from numpy Philox streams jumped per purpose and per
event, so identical (spec, seed) pairs are bit-identical and raising
stall_prob only adds events without disturbing existing ones (common
random numbers; this is what makes the monotone-tail property hold).

None of this is a claim about any real testbed; the knobs exist to give
the analysis pipeline traces with known ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import canon
from .errors import InvalidSpecError, check_fields
from .model import (
    LatencyTrace,
    Run,
    RunMetadata,
    SchedulerTrace,
    SCENARIO_BASELINE,
    SCENARIO_DYNAMIC_PEOPLE,
    SCENARIO_STATIC_LONG,
    consolidate_run,
)

DEFAULT_SEED = 20260825

_SCENARIOS = (SCENARIO_BASELINE, SCENARIO_DYNAMIC_PEOPLE, SCENARIO_STATIC_LONG)

# Latency model constants.
_Z_CLIP = 4.0
_STALL_DUR_MIN_S = 6.0
_STALL_DUR_MAX_S = 10.0
_PARETO_ALPHA = 1.5

# Scheduler model constants.
_EXC_BLER_MIN = 0.6
_EXC_BLER_SPAN = 0.3
_SNR_NOISE_DB = 0.5
_SNR_DIP_DB = 6.0
_DL_TOTAL = 50
MCS_MIN = 0
MCS_MAX = 28
MCS_INIT = 9
K_RECOVER = 3   # snapshots below 0.05 BLER before MCS steps up

# Stream indices for the per-purpose Philox substreams; per-event
# streams start at _EVENT_STREAM_BASE + triggering sample index.
_STREAM_LAT_BASE = 0
_STREAM_STALL_TRIGGER = 1
_STREAM_SCHED_EXC = 2
_STREAM_SNR_NOISE = 3
_EVENT_STREAM_BASE = 16


@dataclass(frozen=True)
class UeProfile:
    label: str
    base_median_ms: float
    jitter_scale: float
    stall_prob: float
    stall_scale_ms: float

    def __post_init__(self):
        check_fields(self)
        if not self.label:
            raise InvalidSpecError("UE label must be non-empty")
        if self.base_median_ms <= 0 or self.jitter_scale <= 0 or self.stall_scale_ms <= 0:
            raise InvalidSpecError("UE profile scales must be positive")
        if not 0.0 <= self.stall_prob < 0.2:
            raise InvalidSpecError(
                f"stall_prob must lie in [0, 0.2), got {self.stall_prob}")


SMARTPHONE = UeProfile(label="smartphone", base_median_ms=9.0,
                       jitter_scale=0.28, stall_prob=0.0, stall_scale_ms=500.0)
MODEM = UeProfile(label="modem", base_median_ms=35.0,
                  jitter_scale=0.6, stall_prob=0.001, stall_scale_ms=500.0)


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: str
    duration_s: float
    seed: int
    ue: UeProfile
    bler_baseline: float = 0.0
    bler_excursion_prob: float = 0.0
    stall_bler_coupling: float = 0.0
    obstruction_start_s: float | None = None
    ping_interval_s: float = 0.2
    stats_period_s: float = 1.0
    rnti: int = 17
    snr_base_db: float = 30.0

    def __post_init__(self):
        check_fields(self)
        if self.scenario not in _SCENARIOS:
            raise InvalidSpecError(
                f"scenario must be one of {_SCENARIOS}, got {self.scenario!r}")
        if self.duration_s <= 0:
            raise InvalidSpecError("duration_s must be positive")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpecError("seed must be an unsigned 64-bit integer")
        for name in ("bler_baseline", "bler_excursion_prob", "stall_bler_coupling"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidSpecError(f"{name} must lie in [0, 1], got {v}")
        if self.obstruction_start_s is not None:
            if self.scenario != SCENARIO_DYNAMIC_PEOPLE:
                raise InvalidSpecError(
                    "obstruction_start_s is only meaningful for dynamic_people")
            if not 0.0 <= self.obstruction_start_s < self.duration_s:
                raise InvalidSpecError("obstruction_start_s outside the run")
        elif self.scenario == SCENARIO_DYNAMIC_PEOPLE:
            raise InvalidSpecError("dynamic_people requires obstruction_start_s")
        if self.ping_interval_s <= 0 or self.stats_period_s <= 0:
            raise InvalidSpecError("cadences must be positive")
        if self.rnti < 0:
            raise InvalidSpecError("rnti must be nonnegative")


@dataclass
class GroundTruth:
    """Oracle labels: stall event centers and excursion snapshot times."""
    stall_times_s: set[float] = field(default_factory=set)
    excursion_times_s: set[float] = field(default_factory=set)


@dataclass(frozen=True)
class _StallEvent:
    index: int          # triggering ping slot
    start_s: float
    duration_s: float
    bler_value: float   # BLER lift applied if the event is coupled
    coupled: bool
    rng: np.random.Generator  # positioned past the header draws


def _stream(seed: int, idx: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(idx))


def _grid_count(duration_s: float, step_s: float) -> int:
    # number of grid points k*step in [0, duration); tolerant of float
    # dust when duration is an exact multiple of the step
    return int(math.floor(duration_s / step_s * (1.0 + 1e-12) + 1e-6))


def _stall_events(spec: ScenarioSpec) -> list[_StallEvent]:
    """Deterministic stall events for a spec. Every triggered slot draws
    the same event header (duration, BLER lift, coupling coin) from its
    own substream, so changing stall_prob only adds or removes events."""
    n = _grid_count(spec.duration_s, spec.ping_interval_s)
    u = _stream(spec.seed, _STREAM_STALL_TRIGGER).random(n)
    events = []
    for i in np.flatnonzero(u < spec.ue.stall_prob):
        start = float(i) * spec.ping_interval_s
        if spec.obstruction_start_s is not None and start < spec.obstruction_start_s:
            continue
        rng = _stream(spec.seed, _EVENT_STREAM_BASE + int(i))
        dur = float(rng.uniform(_STALL_DUR_MIN_S, _STALL_DUR_MAX_S))
        bler_value = _EXC_BLER_MIN + _EXC_BLER_SPAN * float(rng.random())
        coupled = bool(rng.random() < spec.stall_bler_coupling)
        if start + dur > spec.duration_s:
            continue  # suppress events that would spill past the end
        events.append(_StallEvent(index=int(i), start_s=start, duration_s=dur,
                                  bler_value=bler_value, coupled=coupled, rng=rng))
    return events


def gen_latency_trace(spec: ScenarioSpec) -> tuple[LatencyTrace, GroundTruth]:
    """Ping samples at the configured cadence plus stall ground truth."""
    n = _grid_count(spec.duration_s, spec.ping_interval_s)
    if n == 0:
        raise InvalidSpecError("duration shorter than one ping interval")
    ue = spec.ue
    z = _stream(spec.seed, _STREAM_LAT_BASE).standard_normal(n)
    base = ue.base_median_ms * np.exp(ue.jitter_scale * np.clip(z, -_Z_CLIP, _Z_CLIP))

    elevation = np.zeros(n)
    truth = GroundTruth()
    for ev in _stall_events(spec):
        count = int(math.ceil(ev.duration_s / spec.ping_interval_s - 1e-12))
        hi = min(n, ev.index + count)
        mags = ue.stall_scale_ms * (1.0 - ev.rng.random(hi - ev.index)) ** (-1.0 / _PARETO_ALPHA)
        np.maximum(elevation[ev.index:hi], mags, out=elevation[ev.index:hi])
        truth.stall_times_s.add(ev.start_s + ev.duration_s / 2.0)

    seq = np.arange(n)
    return LatencyTrace(seq * spec.ping_interval_s, seq, base + elevation), truth


def _mcs_walk(bler: np.ndarray) -> np.ndarray:
    """The MCS of each of one or more snapshots with these BLERs, by the
    rule gen_sched_trace states. The streak of snapshots below 0.05 does
    not depend on the MCS, so every step is one array expression; only
    the walk that saturates at MCS_MIN and MCS_MAX is sequential, and it
    goes once per stretch of equal nonzero steps."""
    prev = bler[:-1]
    low = prev < 0.05
    lows = np.cumsum(low)
    streak = lows - np.maximum.accumulate(np.where(low, 0, lows))
    step = np.where(prev > 0.10, -1, low & (streak % K_RECOVER == 0))
    at = np.flatnonzero(step)
    moves = step[at]
    first = np.flatnonzero(np.diff(moves, prepend=0))
    length = np.diff(first, append=moves.size)
    taken, mcs = [], MCS_INIT
    for move, count in zip(moves[first].tolist(), length.tolist()):
        new = min(MCS_MAX, max(MCS_MIN, mcs + move * count))
        taken.append(abs(new - mcs))
        mcs = new
    # The first `taken` steps of a stretch move the MCS; the rest press
    # against a bound.
    rank = np.arange(moves.size) - np.repeat(first, length)
    delta = np.zeros(bler.size, dtype=int)
    delta[0] = MCS_INIT
    delta[at + 1] = moves * (rank < np.repeat(taken, length))
    return np.cumsum(delta)


def gen_sched_trace(spec: ScenarioSpec, truth: GroundTruth) -> SchedulerTrace:
    """Scheduler snapshots coupled to the latency trace through `truth`.

    Must be called with the GroundTruth from gen_latency_trace on the
    same spec; fills truth.excursion_times_s as a side effect. MCS
    starts at MCS_INIT, drops one step after any snapshot with BLER
    above 0.10 and rises one step after K_RECOVER consecutive snapshots
    below 0.05.
    """
    events = _stall_events(spec)
    expect_stalls = {ev.start_s + ev.duration_s / 2.0 for ev in events}
    if truth.stall_times_s != expect_stalls:
        raise InvalidSpecError("ground truth does not match this spec's stalls")

    n = _grid_count(spec.duration_s, spec.stats_period_s)
    if n == 0:
        raise InvalidSpecError("duration shorter than one stats period")
    times = np.arange(n) * spec.stats_period_s

    draws = _stream(spec.seed, _STREAM_SCHED_EXC).random((2, n))
    lift = np.zeros(n)
    indep = draws[0] < spec.bler_excursion_prob
    if spec.obstruction_start_s is not None:
        indep &= times >= spec.obstruction_start_s
    lift[indep] = _EXC_BLER_MIN + _EXC_BLER_SPAN * draws[1][indep]
    for ev in events:
        if not ev.coupled:
            continue
        lo = int(math.ceil(ev.start_s / spec.stats_period_s - 1e-9))
        hi = int(math.ceil((ev.start_s + ev.duration_s) / spec.stats_period_s - 1e-9))
        lo, hi = max(0, lo), min(n, hi)
        np.maximum(lift[lo:hi], ev.bler_value, out=lift[lo:hi])

    active = lift > 0.0
    bler = np.full(n, float(spec.bler_baseline))
    bler[active] = np.clip(spec.bler_baseline + lift[active], 0.0, 1.0)
    truth.excursion_times_s = {float(t) for t in times[active]}

    mcs = _mcs_walk(bler)
    snr = (spec.snr_base_db
           + _SNR_NOISE_DB * _stream(spec.seed, _STREAM_SNR_NOISE).standard_normal(n)
           - _SNR_DIP_DB * active)
    retx = np.rint(bler * _DL_TOTAL).astype(int)

    return SchedulerTrace(
        t_s=times, rnti=np.full(n, spec.rnti), dl_bler=bler, ul_bler=bler,
        dl_mcs=mcs, ul_mcs=mcs, snr_db=snr, rsrp_dbm=snr - 110.0,
        dl_retx=retx, dl_total=np.full(n, _DL_TOTAL))


# --------------------------------------------------------------- campaigns

@dataclass(frozen=True)
class RunPreset:
    run_id: str
    spec: ScenarioSpec
    distance_m: float = 6.0
    packet_size_b: int = 30


@dataclass(frozen=True)
class GeneratedRun:
    run: Run
    truth: GroundTruth
    manifest_path: Path


def gen_run(preset: RunPreset) -> tuple[Run, GroundTruth]:
    spec = preset.spec
    latency, truth = gen_latency_trace(spec)
    scheduler = gen_sched_trace(spec, truth)
    meta = RunMetadata(
        run_id=preset.run_id, ue_type=spec.ue.label,
        distance_m=preset.distance_m, packet_size_b=preset.packet_size_b,
        scenario=spec.scenario, nominal_duration_s=spec.duration_s,
        ping_interval_s=spec.ping_interval_s)
    return consolidate_run(latency, scheduler, meta), truth


def paperlike_presets(seed: int = DEFAULT_SEED) -> tuple[RunPreset, ...]:
    """Four-run campaign shaped like the measurement study this toolkit
    targets: smartphone and modem baselines at 30 B, a two-phase run
    with obstruction starting at the midpoint, and a one-hour clean
    static reference."""
    def s(k: int) -> int:
        return (seed + k) % 2**64

    return (
        RunPreset("baseline", ScenarioSpec(
            SCENARIO_BASELINE, 1800.0, s(0), SMARTPHONE,
            bler_baseline=0.05, bler_excursion_prob=0.08)),
        RunPreset("baseline_modem", ScenarioSpec(
            SCENARIO_BASELINE, 1800.0, s(1), MODEM,
            bler_baseline=0.05, bler_excursion_prob=0.08,
            stall_bler_coupling=0.8)),
        RunPreset("dynamic_people", ScenarioSpec(
            SCENARIO_DYNAMIC_PEOPLE, 1800.0, s(2),
            replace(SMARTPHONE, stall_prob=0.003),
            bler_baseline=0.03, bler_excursion_prob=0.05,
            stall_bler_coupling=0.6, obstruction_start_s=900.0)),
        RunPreset("static_1h", ScenarioSpec(
            SCENARIO_STATIC_LONG, 3600.0, s(3), SMARTPHONE)),
    )


def coupled_presets(seed: int = DEFAULT_SEED) -> tuple[RunPreset, ...]:
    """Single run with fully coupled stalls and no independent BLER
    excursions; every stall drags BLER up, nothing else does."""
    ue = replace(MODEM, stall_prob=0.004)
    return (RunPreset("coupled", ScenarioSpec(
        SCENARIO_BASELINE, 600.0, (seed + 16) % 2**64, ue,
        bler_baseline=0.05, bler_excursion_prob=0.0,
        stall_bler_coupling=1.0)),)


PRESET_BUILDERS = {
    "paperlike": paperlike_presets,
    "coupled": coupled_presets,
}


def presets_by_name(name: str, seed: int = DEFAULT_SEED) -> tuple[RunPreset, ...]:
    if name not in PRESET_BUILDERS:
        raise InvalidSpecError(
            f"unknown preset {name!r}; valid presets: {sorted(PRESET_BUILDERS)}")
    if not 0 <= seed < 2**64:
        raise InvalidSpecError(f"seed {seed} is not an unsigned 64-bit integer")
    return PRESET_BUILDERS[name](seed)


def gen_campaign(presets: Sequence[RunPreset],
                 output_dir: str | Path) -> list[GeneratedRun]:
    """Generate every preset and write canonical files, truth sidecars,
    per-run manifests, a campaign manifest and a ready-to-run config."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    generated = []
    config_runs = []
    for preset in presets:
        run, truth = gen_run(preset)
        truth_file = f"{preset.run_id}_truth.csv"
        canon.write_truth_csv(out / truth_file,
                              truth.stall_times_s, truth.excursion_times_s)
        manifest_path, fields = canon.write_run(out, run, {"truth_file": truth_file})
        config_runs.append(fields)
        generated.append(GeneratedRun(run=run, truth=truth,
                                      manifest_path=manifest_path))
    canon.atomic_write_text(
        out / "campaign.manifest",
        "".join(f"{g.manifest_path.name}\n" for g in generated))
    config = {"output_dir": ".", "runs": config_runs}
    canon.atomic_write_text(
        out / "campaign_config.json",
        json.dumps(config, indent=2, sort_keys=True) + "\n")
    return generated
