"""Generator determinism, separation, coupling and adaptation tests."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taildiag import canon, stats, synthgen
from taildiag.errors import InvalidSpecError
from taildiag.flags import FlagPolicy, evaluate_flags, flag_rate
from taildiag.synthgen import (
    MODEM,
    SMARTPHONE,
    GroundTruth,
    RunPreset,
    ScenarioSpec,
    UeProfile,
    gen_campaign,
    gen_latency_trace,
    gen_run,
    gen_sched_trace,
    paperlike_presets,
    presets_by_name,
)
from taildiag.windows import WindowSpec, build_joined_windows

from oracles import mcs_walk_ref
from readers import read_manifest, read_truth_csv


def modem_spec(**kw):
    base = dict(scenario="baseline", duration_s=600.0, seed=7,
                ue=dataclasses.replace(MODEM, stall_prob=0.004),
                bler_baseline=0.05)
    base.update(kw)
    return ScenarioSpec(**base)


def modem_ue(**kw):
    return dataclasses.replace(MODEM, **kw)


# ------------------------------------------------------------- validation

def test_ue_profile_validation():
    with pytest.raises(InvalidSpecError):
        UeProfile("x", base_median_ms=0.0, jitter_scale=0.3,
                  stall_prob=0.0, stall_scale_ms=500.0)
    with pytest.raises(InvalidSpecError):
        UeProfile("x", base_median_ms=9.0, jitter_scale=0.3,
                  stall_prob=0.2, stall_scale_ms=500.0)
    with pytest.raises(InvalidSpecError):
        UeProfile("", base_median_ms=9.0, jitter_scale=0.3,
                  stall_prob=0.0, stall_scale_ms=500.0)


def test_scenario_spec_validation():
    with pytest.raises(InvalidSpecError):
        modem_spec(scenario="road_trip")
    with pytest.raises(InvalidSpecError):
        modem_spec(duration_s=0.0)
    with pytest.raises(InvalidSpecError):
        modem_spec(seed=-1)
    with pytest.raises(InvalidSpecError):
        modem_spec(seed=2**64)
    with pytest.raises(InvalidSpecError):
        modem_spec(bler_baseline=1.5)
    with pytest.raises(InvalidSpecError):
        modem_spec(obstruction_start_s=300.0)  # only for dynamic_people
    with pytest.raises(InvalidSpecError):
        ScenarioSpec("dynamic_people", 600.0, 7, SMARTPHONE)  # needs obstruction
    with pytest.raises(InvalidSpecError):
        ScenarioSpec("dynamic_people", 600.0, 7, SMARTPHONE,
                     obstruction_start_s=600.0)


@pytest.mark.parametrize("make, name, value, words", [
    (modem_spec, "scenario", 3, "a string"),
    (modem_spec, "duration_s", math.nan, "a finite number"),
    (modem_spec, "duration_s", math.inf, "a finite number"),
    (modem_spec, "seed", 1.5, "an integer"),
    (modem_spec, "seed", True, "an integer"),
    (modem_spec, "ping_interval_s", "0.2", "a finite number"),
    (modem_spec, "rnti", 17.0, "an integer"),
    (modem_spec, "snr_base_db", -math.inf, "a finite number"),
    (modem_ue, "label", None, "a string"),
    (modem_ue, "base_median_ms", math.nan, "a finite number"),
    (modem_ue, "stall_prob", True, "a finite number"),
])
def test_specs_check_their_declared_types(make, name, value, words):
    with pytest.raises(InvalidSpecError) as exc:
        make(**{name: value})
    assert str(exc.value) == f"{name} must be {words}, got {value!r}"


# ------------------------------------------------------------ determinism

def test_latency_trace_deterministic():
    spec = modem_spec()
    a, truth_a = gen_latency_trace(spec)
    b, truth_b = gen_latency_trace(spec)
    assert a == b
    assert truth_a.stall_times_s == truth_b.stall_times_s


def test_sched_trace_deterministic():
    spec = modem_spec(stall_bler_coupling=1.0, bler_excursion_prob=0.02)
    _, truth = gen_latency_trace(spec)
    a = gen_sched_trace(spec, truth)
    b = gen_sched_trace(spec, truth)
    assert a == b


def test_different_seeds_differ():
    a, _ = gen_latency_trace(modem_spec(seed=1))
    b, _ = gen_latency_trace(modem_spec(seed=2))
    assert [s.rtt_ms for s in a] != [s.rtt_ms for s in b]


# ---------------------------------------------------------- latency model

def test_no_stalls_bounded_support():
    spec = ScenarioSpec("baseline", 600.0, 3, SMARTPHONE)
    samples, truth = gen_latency_trace(spec)
    bound = SMARTPHONE.base_median_ms * math.exp(SMARTPHONE.jitter_scale * 4.0)
    assert max(s.rtt_ms for s in samples) <= bound
    assert stats.summary_stats([s.rtt_ms for s in samples]).exceed_1s == 0.0
    assert truth.stall_times_s == set()


def test_sample_grid_and_fields():
    spec = ScenarioSpec("baseline", 12.0, 3, SMARTPHONE, ping_interval_s=0.5)
    samples, _ = gen_latency_trace(spec)
    assert len(samples) == 24
    assert [s.seq for s in samples] == list(range(24))
    assert [s.t_s for s in samples] == [i * 0.5 for i in range(24)]
    assert all(s.rtt_ms > 0 for s in samples)


def test_stall_samples_exceed_scale():
    spec = modem_spec(seed=11)
    samples, truth = gen_latency_trace(spec)
    assert truth.stall_times_s, "seed 11 must trigger at least one stall"
    assert all(0.0 <= t < spec.duration_s for t in truth.stall_times_s)
    # every truth center sits inside a visible elevation: the sample at
    # the center is at least stall_scale above the base-model ceiling
    ceiling = MODEM.base_median_ms * math.exp(MODEM.jitter_scale * 4.0)
    by_t = {round(s.t_s, 6): s.rtt_ms for s in samples}
    for c in truth.stall_times_s:
        i = int(c / spec.ping_interval_s)
        rtt = by_t[round(i * spec.ping_interval_s, 6)]
        assert rtt >= MODEM.stall_scale_ms
        assert rtt > ceiling


def test_monotone_tail_in_stall_prob():
    prev = -1.0
    for p in [0.0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.05]:
        ue = dataclasses.replace(MODEM, stall_prob=p)
        spec = ScenarioSpec("baseline", 600.0, 7, ue)
        samples, _ = gen_latency_trace(spec)
        e = stats.exceedance_prob([s.rtt_ms for s in samples], 1000.0)
        assert e >= prev
        prev = e


def test_separation_smartphone_vs_modem():
    a, _ = gen_latency_trace(ScenarioSpec("baseline", 600.0, 5, SMARTPHONE))
    b, _ = gen_latency_trace(ScenarioSpec("baseline", 600.0, 6, MODEM))
    ks = stats.ks_two_sample([s.rtt_ms for s in a], [s.rtt_ms for s in b])
    assert ks.d_stat > 0.8
    assert stats.summary_stats([s.rtt_ms for s in b]).p95_ms > \
        stats.summary_stats([s.rtt_ms for s in a]).p95_ms


# -------------------------------------------------------- scheduler model

def test_clean_sched_rises_to_cap_and_stays():
    spec = ScenarioSpec("static_long", 120.0, 3, SMARTPHONE)
    _, truth = gen_latency_trace(spec)
    snaps = gen_sched_trace(spec, truth)
    assert len(snaps) == 120
    assert all(s.dl_bler == 0.0 for s in snaps)
    assert snaps[0].dl_mcs == 9
    assert max(s.dl_mcs for s in snaps) == 28
    tail = [s.dl_mcs for s in snaps if s.t_s >= 60.0]
    assert all(m == 28 for m in tail)
    assert truth.excursion_times_s == set()


def test_constant_baseline_means_constant_bler():
    spec = ScenarioSpec("baseline", 120.0, 3, SMARTPHONE, bler_baseline=0.05)
    _, truth = gen_latency_trace(spec)
    snaps = gen_sched_trace(spec, truth)
    assert {s.dl_bler for s in snaps} == {0.05}


def test_excursion_drops_mcs_next_snapshot():
    spec = modem_spec(seed=11, stall_bler_coupling=1.0)
    _, truth = gen_latency_trace(spec)
    snaps = gen_sched_trace(spec, truth)
    ks = sorted(truth.excursion_times_s)
    assert ks, "coupled stalls must force excursions"
    k = int(ks[0])
    assert snaps[k].dl_bler > 0.10
    assert snaps[k + 1].dl_mcs == max(0, snaps[k].dl_mcs - 1)


def test_adaptation_sanity_bounds_and_steps():
    spec = modem_spec(seed=13, stall_bler_coupling=1.0, bler_excursion_prob=0.1)
    _, truth = gen_latency_trace(spec)
    snaps = gen_sched_trace(spec, truth)
    mcs = [s.dl_mcs for s in snaps]
    assert all(0 <= m <= 28 for m in mcs)
    assert all(abs(a - b) <= 1 for a, b in zip(mcs, mcs[1:]))


def test_snapshot_fields_consistent():
    spec = modem_spec(seed=13, bler_excursion_prob=0.1)
    _, truth = gen_latency_trace(spec)
    snaps = gen_sched_trace(spec, truth)
    for s in snaps:
        assert s.rnti == 17
        assert s.ul_bler == s.dl_bler and s.ul_mcs == s.dl_mcs
        assert s.dl_retx <= s.dl_total == 50
        assert s.rsrp_dbm == pytest.approx(s.snr_db - 110.0)
    assert [s.t_s for s in snaps] == [float(k) for k in range(600)]
    # SNR dips during excursions
    exc = truth.excursion_times_s
    if exc:
        quiet = [s.snr_db for s in snaps if s.t_s not in exc]
        dipped = [s.snr_db for s in snaps if s.t_s in exc]
        assert max(dipped) < min(quiet)


def test_excursion_values_lift_bler_above_half():
    spec = modem_spec(seed=13, bler_excursion_prob=0.2)
    _, truth = gen_latency_trace(spec)
    snaps = gen_sched_trace(spec, truth)
    for s in snaps:
        if s.t_s in truth.excursion_times_s:
            assert s.dl_bler >= 0.6
        else:
            assert s.dl_bler == 0.05


# BLERs on both sides of, and exactly at, the 0.05 and 0.10 lines, in
# stretches long enough for runs of K_RECOVER lows.
BLER = st.sampled_from([0.0, 0.01, 0.05 - 2 ** -50, 0.05, 0.07, 0.10,
                        0.10 + 2 ** -50, 0.5, 1.0, math.nan])
STRETCHES = st.lists(st.tuples(BLER, st.integers(1, 3 * synthgen.K_RECOVER + 1)),
                     min_size=1, max_size=40)
# Lows and highs enough to take the MCS from either bound to the other.
_UP = synthgen.K_RECOVER * (synthgen.MCS_MAX - synthgen.MCS_MIN) + 2
_DOWN = synthgen.MCS_MAX - synthgen.MCS_MIN + 2
LONG_STRETCHES = st.lists(st.tuples(st.sampled_from([0.0, 0.5]), st.integers(1, _UP)),
                          min_size=1, max_size=6)
SATURATING = [
    [(0.0, _UP), (0.05, 1), (0.0, 5), (0.5, _DOWN), (0.10, 2), (0.0, 7)],
    [(0.5, _DOWN), (0.0, _UP), (0.5, 3), (0.04, 3), (0.06, 1), (0.0, 3)],
]


def _bler(stretches):
    return [value for value, count in stretches for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(STRETCHES | LONG_STRETCHES)
@example([(0.0, 1)])
@example(SATURATING[0])
@example(SATURATING[1])
def test_mcs_walk_equals_the_step_by_step_rule(stretches):
    want = mcs_walk_ref(_bler(stretches), synthgen.MCS_INIT, synthgen.MCS_MIN,
                        synthgen.MCS_MAX, synthgen.K_RECOVER)
    got = synthgen._mcs_walk(np.array(_bler(stretches)))
    assert got.dtype == np.int64
    assert got.tolist() == want


@pytest.mark.parametrize("stretches", SATURATING)
def test_mcs_walk_examples_saturate_at_both_bounds(stretches):
    mcs = mcs_walk_ref(_bler(stretches), synthgen.MCS_INIT, synthgen.MCS_MIN,
                       synthgen.MCS_MAX, synthgen.K_RECOVER)
    # Each bound is reached and held.
    assert mcs.count(synthgen.MCS_MIN) > 1 and mcs.count(synthgen.MCS_MAX) > 1


def test_sched_rejects_foreign_truth():
    spec = modem_spec(seed=11)
    with pytest.raises(InvalidSpecError):
        gen_sched_trace(spec, GroundTruth(stall_times_s={1.0}))


def test_obstruction_gates_stalls_and_excursions():
    ue = dataclasses.replace(SMARTPHONE, stall_prob=0.01)
    spec = ScenarioSpec("dynamic_people", 600.0, 21, ue,
                        bler_baseline=0.03, bler_excursion_prob=0.1,
                        obstruction_start_s=300.0, stall_bler_coupling=1.0)
    samples, truth = gen_latency_trace(spec)
    gen_sched_trace(spec, truth)
    assert truth.stall_times_s and truth.excursion_times_s
    assert all(t >= 300.0 for t in truth.stall_times_s)
    assert all(t >= 300.0 for t in truth.excursion_times_s)
    first_half = [s.rtt_ms for s in samples if s.t_s < 300.0]
    assert max(first_half) < 100.0


# ------------------------------------------------------ coupling soundness

def test_fully_coupled_stall_windows_all_flagged():
    run, truth = gen_run(presets_by_name("coupled")[0])
    joined = build_joined_windows(run, WindowSpec())
    flags = evaluate_flags(joined, FlagPolicy())
    stall_windows = [
        f for f in flags
        if any(f.start_s <= c < f.start_s + 10.0 for c in truth.stall_times_s)]
    assert stall_windows, "the coupled preset must produce stall windows"
    assert all(f.raised for f in stall_windows)


def test_uncoupled_and_quiet_never_flagged():
    spec = modem_spec(stall_bler_coupling=0.0, bler_excursion_prob=0.0)
    run, truth = gen_run(RunPreset("quiet", spec))
    assert truth.stall_times_s and not truth.excursion_times_s
    joined = build_joined_windows(run, WindowSpec())
    assert flag_rate(evaluate_flags(joined, FlagPolicy())) == 0.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_coupling_soundness_over_seeds(seed):
    spec = modem_spec(seed=seed, duration_s=300.0, stall_bler_coupling=1.0)
    run, truth = gen_run(RunPreset("s", spec))
    joined = build_joined_windows(run, WindowSpec())
    for f in evaluate_flags(joined, FlagPolicy()):
        if any(f.start_s <= c < f.start_s + 10.0 for c in truth.stall_times_s):
            assert f.raised


# ---------------------------------------------------------------- presets

def test_paperlike_preset_runs():
    presets = paperlike_presets()
    assert [p.run_id for p in presets] == [
        "baseline", "baseline_modem", "dynamic_people", "static_1h"]
    assert presets[0].spec.ue.label == "smartphone"
    assert presets[1].spec.ue.label == "modem"
    assert presets[2].spec.obstruction_start_s == 900.0
    assert presets[3].spec.duration_s == 3600.0


def test_unknown_preset_lists_valid_names():
    with pytest.raises(InvalidSpecError) as exc:
        presets_by_name("bogus")
    assert "paperlike" in str(exc.value) and "coupled" in str(exc.value)


# --------------------------------------------------------------- campaign

def test_empty_campaign_writes_manifest(tmp_path):
    assert gen_campaign([], tmp_path) == []
    assert (tmp_path / "campaign.manifest").read_text() == ""
    cfg = json.loads((tmp_path / "campaign_config.json").read_text())
    assert cfg["runs"] == []


def test_campaign_files_and_round_trip(tmp_path):
    spec = modem_spec(duration_s=60.0, bler_excursion_prob=0.05,
                      stall_bler_coupling=1.0)
    [g] = gen_campaign([RunPreset("demo", spec)], tmp_path)
    meta, files = read_manifest(g.manifest_path)
    assert meta == g.run.meta
    assert canon.read_latency_csv(files["latency_file"]) == g.run.latency
    assert canon.read_scheduler_csv(files["scheduler_file"]) == g.run.scheduler
    stalls, excursions = read_truth_csv(files["truth_file"])
    assert stalls == sorted(g.truth.stall_times_s)
    assert excursions == sorted(g.truth.excursion_times_s)
    assert (tmp_path / "campaign.manifest").read_text() == "demo.manifest\n"
    cfg = json.loads((tmp_path / "campaign_config.json").read_text())
    assert cfg["runs"][0]["run_id"] == "demo"
    assert cfg["runs"][0]["latency_file"] == "demo_latency.csv"


def test_campaign_regeneration_byte_identical(tmp_path):
    spec = modem_spec(duration_s=60.0)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    gen_campaign([RunPreset("demo", spec)], out_a)
    gen_campaign([RunPreset("demo", spec)], out_b)
    for f in sorted(out_a.iterdir()):
        assert f.read_bytes() == (out_b / f.name).read_bytes()
