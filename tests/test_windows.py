"""Window grid, per-window aggregation, join and phase-split tests.

Per-window aggregates are checked through build_joined_windows: a
latency-side test pairs its samples with a dense scheduler trace, and a
scheduler-side test pairs its snapshots with a dense latency trace, so
the join keeps every window the side under test fills.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    exceedance_ref,
    percentile_ref,
    window_members_ref,
    window_starts_ref,
)
from taildiag import report, synthgen
from taildiag.errors import (
    InvalidSpecError,
    RunTooShortError,
    SplitOutOfRangeError,
)
from taildiag.flags import FlagPolicy, evaluate_flags
from taildiag.ingest import LatencySample, Run, RunMetadata, SchedulerSnapshot
from taildiag.windows import (
    WindowSpec,
    build_joined_windows,
    make_windows,
    run_duration,
    split_phases,
)


def lat(t, rtt=9.0, seq=None):
    return LatencySample(t_s=t, seq=int(t * 5) if seq is None else seq, rtt_ms=rtt)


def snap(t, bler=0.0, mcs=None, snr=None):
    return SchedulerSnapshot(t_s=t, rnti=17, dl_bler=bler, dl_mcs=mcs, snr_db=snr)


def run_of(samples, snapshots, duration=60.0):
    m = RunMetadata(run_id="w", ue_type="smartphone", distance_m=6.0,
                    packet_size_b=30, scenario="baseline",
                    nominal_duration_s=duration)
    return Run(meta=m, latency=tuple(samples), scheduler=tuple(snapshots))


def dense_sched(duration=60.0):
    """One snapshot every 0.5 s: every grid window has scheduler data."""
    return [snap(k * 0.5) for k in range(int(duration * 2))]


def dense_lat(duration=60.0):
    """One sample every 0.2 s: every grid window has >= 5 latency samples."""
    return [lat(k * 0.2, seq=k) for k in range(int(duration * 5))]


def latency_windows(samples, spec, duration=60.0):
    """Latency aggregates by window start, scheduler side held dense."""
    joined = build_joined_windows(run_of(samples, dense_sched(duration), duration), spec)
    return {j.start_s: j.latency for j in joined}


def sched_windows(snapshots, spec, duration=60.0):
    """Scheduler aggregates by window start, latency side held dense."""
    joined = build_joined_windows(run_of(dense_lat(duration), snapshots, duration), spec)
    return {j.start_s: j.sched for j in joined}


# ------------------------------------------------------------------- spec

def test_window_spec_validation():
    WindowSpec()  # defaults are valid
    with pytest.raises(InvalidSpecError):
        WindowSpec(width_s=5.0, stride_s=6.0)
    with pytest.raises(InvalidSpecError):
        WindowSpec(width_s=0.0)
    with pytest.raises(InvalidSpecError):
        WindowSpec(stride_s=-1.0)
    with pytest.raises(InvalidSpecError):
        WindowSpec(min_latency_samples=0)


# ------------------------------------------------------------------- grid

def test_grid_60_10_5():
    grid = make_windows(60.0, WindowSpec())
    assert [s for s, _ in grid] == [5.0 * k for k in range(11)]
    assert all(e - s == 10.0 for s, e in grid)


def test_grid_duration_equals_width():
    assert make_windows(10.0, WindowSpec()) == [(0.0, 10.0)]


def test_grid_no_partial_windows():
    assert make_windows(10.0, WindowSpec(width_s=10.0, stride_s=3.0)) == [(0.0, 10.0)]


def test_grid_too_short():
    with pytest.raises(RunTooShortError):
        make_windows(9.9, WindowSpec())


@given(st.integers(1, 500), st.integers(1, 50), st.integers(1, 50))
def test_grid_closed_form_matches_enumeration(duration, width, stride):
    if stride > width or duration < width:
        return
    spec = WindowSpec(width_s=float(width), stride_s=float(stride),
                      min_latency_samples=1)
    grid = make_windows(float(duration), spec)
    assert len(grid) == math.floor((duration - width) / stride) + 1
    assert [s for s, _ in grid] == window_starts_ref(
        float(duration), float(width), float(stride))
    assert all(e <= duration for _, e in grid)


# ------------------------------------------------------------- aggregates

def test_latency_window_uniform():
    samples = [lat(t * 0.2, 8.0, seq=t) for t in range(50)]
    w = latency_windows(samples, WindowSpec())[0.0]
    assert (w.n, w.p95_ms, w.exceed_100ms) == (50, 8.0, 0.0)
    assert w.median_ms == 8.0


def test_latency_window_insufficient():
    samples = [lat(float(t), seq=t) for t in range(4)]
    assert 0.0 not in latency_windows(samples, WindowSpec())


def test_latency_window_single_outlier_p95():
    rtts = [10.0] * 49 + [500.0]
    samples = [lat(t * 0.2, rtts[t], seq=t) for t in range(50)]
    w = latency_windows(samples, WindowSpec())[0.0]
    assert w.p95_ms == pytest.approx(percentile_ref(rtts, 0.95), abs=1e-12)
    assert w.exceed_100ms == pytest.approx(1 / 50)


def test_latency_window_membership_half_open():
    samples = [lat(0.0, 1.0, seq=0), lat(9.999, 2.0, seq=1), lat(10.0, 3.0, seq=2)]
    by_start = latency_windows(samples, WindowSpec(min_latency_samples=1))
    assert by_start[0.0].n == 2  # the sample at exactly t=10 belongs to the next window
    assert by_start[10.0].n == 1


def test_latency_window_exceedance_is_strict():
    rtts = [100.0] * 40 + [100.5] * 10
    samples = [lat(t * 0.2, rtts[t], seq=t) for t in range(50)]
    w = latency_windows(samples, WindowSpec())[0.0]
    assert w.exceed_100ms == pytest.approx(exceedance_ref(rtts, 100.0), abs=1e-12)


def test_sched_window_all_zero():
    snaps = [snap(float(t)) for t in range(10)]
    w = sched_windows(snaps, WindowSpec())[0.0]
    assert (w.bler_mean, w.bler_p95) == (0.0, 0.0)


def test_sched_window_mean_brute_force():
    snaps = [snap(0.0, 0.0), snap(1.0, 0.1), snap(2.0, 0.5)]
    w = sched_windows(snaps, WindowSpec())[0.0]
    assert w.bler_mean == pytest.approx(0.2, abs=1e-12)
    assert w.n == 3


def test_sched_window_absent_fields():
    snaps = [snap(0.0), snap(1.0)]
    w = sched_windows(snaps, WindowSpec())[0.0]
    assert w.mcs_median is None and w.snr_median_db is None
    snaps = [snap(0.0, mcs=9, snr=30.0), snap(1.0), snap(2.0, mcs=11, snr=32.0)]
    w = sched_windows(snaps, WindowSpec())[0.0]
    assert w.mcs_median == 10.0  # median over the two present values
    assert w.snr_median_db == 31.0


def test_sched_window_insufficient():
    spec = WindowSpec(min_sched_samples=2)
    assert 0.0 not in sched_windows([snap(0.0)], spec)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.floats(0.0, 59.999), st.floats(0.1, 2000.0)),
                min_size=1, max_size=80))
def test_window_aggregates_match_stats_on_members(points):
    spec = WindowSpec(min_latency_samples=1)
    samples = sorted((lat(t, r, seq=i) for i, (t, r) in enumerate(points)),
                     key=lambda s: s.t_s)
    by_start = latency_windows(samples, spec)
    for start, end in make_windows(60.0, spec):
        members = window_members_ref([s.t_s for s in samples], start, end)
        w = by_start.get(start)
        if not members:
            assert w is None
            continue
        rtts = [samples[i].rtt_ms for i in members]
        assert w.n == len(members)
        assert w.p95_ms == pytest.approx(percentile_ref(rtts, 0.95), abs=1e-12)
        assert w.median_ms == pytest.approx(percentile_ref(rtts, 0.5), abs=1e-12)
        assert w.exceed_100ms == pytest.approx(exceedance_ref(rtts, 100.0), abs=1e-12)


@settings(max_examples=30)
@given(st.integers(10, 120), st.integers(1, 10), st.integers(1, 10),
       st.lists(st.floats(0.0, 119.999), min_size=1, max_size=1000))
def test_membership_conservation(duration, width, stride, times):
    if stride > width or duration < width:
        return
    times = [t for t in times if t < duration]
    if not times:
        return
    spec = WindowSpec(width_s=float(width), stride_s=float(stride),
                      min_latency_samples=1)
    samples = sorted((lat(t, 5.0, seq=i) for i, t in enumerate(times)),
                     key=lambda s: s.t_s)
    grid = make_windows(float(duration), spec)
    by_start = latency_windows(samples, spec, float(duration))
    total_members = sum(by_start[start].n for start, _ in grid if start in by_start)
    multiplicity = sum(
        len(window_members_ref([t], start, end))
        for t in times for start, end in grid)
    assert total_members == multiplicity
    # interior samples fall in 1..ceil(width/stride) windows
    cap = math.ceil(width / stride)
    for t in times:
        k = sum(1 for start, end in grid if start <= t < end)
        assert k <= cap
        if width - 1e-9 <= t < grid[-1][0]:
            assert k >= 1


# ------------------------------------------------------------------- join

def test_join_disjoint_coverage_empty():
    samples = [lat(t * 0.2, seq=t) for t in range(50)]
    scheds = [snap(40.0 + t) for t in range(10)]
    lat_starts = latency_windows(samples, WindowSpec())
    assert lat_starts and all(start < 10.0 for start in lat_starts)
    assert build_joined_windows(run_of(samples, scheds), WindowSpec()) == []


def test_join_identical_grids_full_length():
    samples = [lat(t * 0.2, seq=t) for t in range(300)]
    snaps = [snap(float(t)) for t in range(60)]
    joined = build_joined_windows(run_of(samples, snaps), WindowSpec())
    assert len(joined) == len(make_windows(60.0, WindowSpec())) == 11
    for j in joined:
        assert j.start_s == j.latency.start_s == j.sched.start_s


def test_join_starts_subset_of_inputs():
    samples = [lat(t * 0.2, seq=t) for t in range(150)]  # covers 0..30 s
    snaps = [snap(float(t)) for t in range(20, 60)]      # covers 20..60 s
    joined = build_joined_windows(run_of(samples, snaps), WindowSpec())
    lat_starts = set(latency_windows(samples, WindowSpec()))
    sched_starts = set(sched_windows(snaps, WindowSpec()))
    assert joined and all(
        j.start_s in lat_starts and j.start_s in sched_starts for j in joined)
    assert [j.start_s for j in joined] == sorted(j.start_s for j in joined)


def test_build_joined_windows_on_run():
    samples = [lat(t * 0.2, seq=t) for t in range(300)]
    snaps = [snap(float(t)) for t in range(60)]
    joined = build_joined_windows(run_of(samples, snaps), WindowSpec())
    assert len(joined) == 11


def test_build_joined_windows_sorts_each_layer_by_time():
    samples = [lat(t * 0.2, float(t % 37), seq=t) for t in range(300)]
    snaps = [snap(t * 0.5, bler=(t % 7) / 10, mcs=t % 29) for t in range(120)]
    ordered = build_joined_windows(run_of(samples, snaps), WindowSpec())
    shuffled = build_joined_windows(
        run_of(samples[1::2] + samples[::2], snaps[::-1]), WindowSpec())
    assert shuffled == ordered


# The windows and flags tables of the four default-seed paperlike runs
# under the default WindowSpec and FlagPolicy, as SHA-256 of the text.
PAPERLIKE_TABLE_DIGESTS = {
    "baseline": (
        "45d9bcc372d47cf00437c2b30183515137dac318b49d720449877669710ea815",
        "d4b94ec27c047ba4964a0ce0397ce52d7bd460a1437cab76adadea33d43d377e"),
    "baseline_modem": (
        "d590caae128d433ee602a4397c7125103dd280a5a425312bad27ffb5529bb831",
        "18fb0f0c0cbd1a2064bd9daf5c8022c73dce57817578f6be6f0a844dd3ad2d15"),
    "dynamic_people": (
        "fa298ce6031fe2806e48d94ba35d0d86030c1d2f1edfce028b32f0d2814d6be4",
        "eca7dfb43fc9e43aa2064deeca30a25033c71e855aabbea83fba037c1c3686ff"),
    "static_1h": (
        "12e752f0cb481fec035c8f630fad00337b64c30a990c9ae5cb7862e0dcbcfeef",
        "c961e7a24e6bb150f33a4352908c8a6d3cbdb5ead0daee2287625c3f42ca95fa"),
}


def test_paperlike_tables_match_golden_digests():
    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    for preset in synthgen.paperlike_presets():
        run, _ = synthgen.gen_run(preset)
        joined = build_joined_windows(run, WindowSpec())
        flags = evaluate_flags(joined, FlagPolicy())
        assert (sha(report.windows_table(joined)), sha(report.flags_table(flags))) \
            == PAPERLIKE_TABLE_DIGESTS[preset.run_id], preset.run_id


# ------------------------------------------------------------------ split

def test_split_conserves_counts_and_labels():
    samples = [lat(t * 0.2, seq=t) for t in range(9000)]
    snaps = [snap(float(t)) for t in range(1800)]
    run = run_of(samples, snaps, duration=1800.0)
    first, second = split_phases(run, 900.0)
    assert len(first.latency) + len(second.latency) == 9000
    assert len(first.scheduler) + len(second.scheduler) == 1800
    assert (first.meta.phase, second.meta.phase) == ("LOS", "People")
    assert all(s.t_s < 900.0 for s in first.latency)
    assert all(s.t_s >= 900.0 for s in second.latency)
    # the boundary snapshot at exactly t=900 lands in the second phase
    assert second.scheduler[0].t_s == 900.0


def test_split_default_midpoint():
    run = run_of([lat(t * 1.0, seq=t) for t in range(60)], [], duration=60.0)
    first, second = split_phases(run)
    assert len(first.latency) == len(second.latency) == 30


def test_split_custom_labels():
    run = run_of([lat(1.0, seq=0), lat(31.0, seq=1)], [], duration=60.0)
    a, b = split_phases(run, 30.0, labels=("before", "after"))
    assert (a.meta.phase, b.meta.phase) == ("before", "after")


def test_split_empty_phase_allowed():
    run = run_of([lat(50.0, seq=0), lat(51.0, seq=1)], [], duration=60.0)
    first, second = split_phases(run, 10.0)
    assert len(first.latency) == 0 and len(second.latency) == 2


def test_split_out_of_range():
    run = run_of([lat(1.0, seq=0)], [], duration=60.0)
    with pytest.raises(SplitOutOfRangeError):
        split_phases(run, 0.0)
    with pytest.raises(SplitOutOfRangeError):
        split_phases(run, -5.0)
    with pytest.raises(SplitOutOfRangeError):
        split_phases(run, 60.0)


@given(st.lists(st.floats(0.0, 99.99), min_size=1, max_size=100),
       st.floats(0.5, 99.5))
def test_split_partition_property(times, split):
    samples = sorted((lat(t, seq=i) for i, t in enumerate(times)),
                     key=lambda s: s.t_s)
    run = run_of(samples, [], duration=100.0)
    first, second = split_phases(run, split)
    assert len(first.latency) + len(second.latency) == len(times)
    assert all(s.t_s < split for s in first.latency)
    assert all(s.t_s >= split for s in second.latency)


def test_run_duration_max_of_nominal_and_observed():
    run = run_of([lat(75.5, seq=0)], [snap(80.25)], duration=60.0)
    assert run_duration(run) == 80.25
    run = run_of([lat(5.0, seq=0)], [], duration=60.0)
    assert run_duration(run) == 60.0
