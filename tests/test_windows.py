"""Window grid, per-window aggregation, join and phase-split tests.

Per-window aggregates are checked through build_joined_windows: a
latency-side test pairs its samples with a dense scheduler trace, and a
scheduler-side test pairs its snapshots with a dense latency trace, so
the join keeps every window the side under test fills.
"""

import hashlib
import json
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    exceedance_ref,
    percentile_ref,
    window_members_ref,
    window_starts_ref,
)
from taildiag import canon, report, stats, synthgen
from taildiag.errors import (
    InvalidSpecError,
    RunTooShortError,
    SplitOutOfRangeError,
)
from runs import make_run
from taildiag.flags import FlagPolicy, compare_phases, evaluate_flags
from taildiag.model import (
    LatencySample,
    LatencyTrace,
    RunMetadata,
    SchedulerSnapshot,
    SchedulerTrace,
    consolidate_run,
)
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
    return make_run(m, samples, snapshots)


def dense_sched(duration=60.0):
    """One snapshot every 0.5 s: every grid window has scheduler data."""
    return [snap(k * 0.5) for k in range(int(duration * 2))]


def dense_lat(duration=60.0):
    """One sample every 0.2 s: every grid window has >= 5 latency samples."""
    return [lat(k * 0.2, seq=k) for k in range(int(duration * 5))]


def values_by_start(joined):
    """The values of each joined window, {start_s: {column: value}},
    read from the table's columns."""
    columns = {name: getattr(joined, name).tolist() for name in joined.names()}
    return {start: {name: col[k] for name, col in columns.items()}
            for k, start in enumerate(columns["start_s"])}


def latency_windows(samples, spec, duration=60.0):
    """values_by_start of the joined windows, scheduler side held dense."""
    return values_by_start(build_joined_windows(
        run_of(samples, dense_sched(duration), duration), spec))


def sched_windows(snapshots, spec, duration=60.0):
    """values_by_start of the joined windows, latency side held dense."""
    return values_by_start(build_joined_windows(
        run_of(dense_lat(duration), snapshots, duration), spec))


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
    grid = make_windows(60.0, WindowSpec()).tolist()
    assert [s for s, _ in grid] == [5.0 * k for k in range(11)]
    assert all(e - s == 10.0 for s, e in grid)


def test_grid_duration_equals_width():
    assert make_windows(10.0, WindowSpec()).tolist() == [[0.0, 10.0]]


def test_grid_no_partial_windows():
    assert make_windows(10.0, WindowSpec(width_s=10.0, stride_s=3.0)).tolist() == [[0.0, 10.0]]


def test_grid_beyond_max_windows_raises(monkeypatch):
    monkeypatch.setattr("taildiag.windows.MAX_WINDOWS", 10)
    spec = WindowSpec(width_s=1.0, stride_s=1.0)
    assert len(make_windows(10.0, spec)) == 10
    with pytest.raises(InvalidSpecError,
                       match=r"width 1\.0s and stride 1\.0s make 11 windows"):
        make_windows(11.0, spec)


def test_window_members_beyond_max_members_raise(monkeypatch):
    # 11 windows of 50 latency samples and 20 snapshots: 770 members.
    run = run_of(dense_lat(), dense_sched())
    monkeypatch.setattr("taildiag.windows.MAX_MEMBERS", 770)
    assert len(build_joined_windows(run, WindowSpec())) == 11
    monkeypatch.setattr("taildiag.windows.MAX_MEMBERS", 769)
    with pytest.raises(InvalidSpecError, match="put 770 samples into 11 windows"):
        build_joined_windows(run, WindowSpec())


def test_dense_run_at_tiny_stride_raises_before_aggregating():
    # 100 samples/s and a 1 ms stride: 50,001 windows, within the window
    # limit, of about 1,000 samples each, beyond the member limit.
    run = run_of([lat(k * 0.01, seq=k) for k in range(6000)],
                 [snap(float(t)) for t in range(60)])
    with pytest.raises(InvalidSpecError, match=r"stride 0\.001s put \d+ samples"):
        build_joined_windows(run, WindowSpec(width_s=10.0, stride_s=0.001))


def test_grid_too_short():
    with pytest.raises(RunTooShortError):
        make_windows(9.9, WindowSpec())


@given(st.integers(1, 500), st.integers(1, 50), st.integers(1, 50))
def test_grid_closed_form_matches_enumeration(duration, width, stride):
    if stride > width or duration < width:
        return
    spec = WindowSpec(width_s=float(width), stride_s=float(stride),
                      min_latency_samples=1)
    grid = make_windows(float(duration), spec).tolist()
    assert len(grid) == math.floor((duration - width) / stride) + 1
    assert [s for s, _ in grid] == window_starts_ref(
        float(duration), float(width), float(stride))
    assert all(e <= duration for _, e in grid)


# ------------------------------------------------------------- aggregates

def test_latency_window_uniform():
    samples = [lat(t * 0.2, 8.0, seq=t) for t in range(50)]
    w = latency_windows(samples, WindowSpec())[0.0]
    assert (w["lat_n"], w["lat_p95_ms"], w["lat_exceed_100ms"]) == (50, 8.0, 0.0)
    assert w["lat_median_ms"] == 8.0


def test_latency_window_insufficient():
    samples = [lat(float(t), seq=t) for t in range(4)]
    assert 0.0 not in latency_windows(samples, WindowSpec())


def test_latency_window_single_outlier_p95():
    rtts = [10.0] * 49 + [500.0]
    samples = [lat(t * 0.2, rtts[t], seq=t) for t in range(50)]
    w = latency_windows(samples, WindowSpec())[0.0]
    assert w["lat_p95_ms"] == pytest.approx(percentile_ref(rtts, 0.95), abs=1e-12)
    assert w["lat_exceed_100ms"] == pytest.approx(1 / 50)


def test_latency_window_membership_half_open():
    samples = [lat(0.0, 1.0, seq=0), lat(9.999, 2.0, seq=1), lat(10.0, 3.0, seq=2)]
    by_start = latency_windows(samples, WindowSpec(min_latency_samples=1))
    assert by_start[0.0]["lat_n"] == 2  # the sample at exactly t=10 belongs to the next window
    assert by_start[10.0]["lat_n"] == 1


def test_latency_window_exceedance_is_strict():
    rtts = [100.0] * 40 + [100.5] * 10
    samples = [lat(t * 0.2, rtts[t], seq=t) for t in range(50)]
    w = latency_windows(samples, WindowSpec())[0.0]
    assert w["lat_exceed_100ms"] == pytest.approx(exceedance_ref(rtts, 100.0), abs=1e-12)


def test_sched_window_all_zero():
    snaps = [snap(float(t)) for t in range(10)]
    w = sched_windows(snaps, WindowSpec())[0.0]
    assert (w["bler_mean"], w["bler_p95"]) == (0.0, 0.0)


def test_sched_window_mean_brute_force():
    snaps = [snap(0.0, 0.0), snap(1.0, 0.1), snap(2.0, 0.5)]
    w = sched_windows(snaps, WindowSpec())[0.0]
    assert w["bler_mean"] == pytest.approx(0.2, abs=1e-12)
    assert w["sched_n"] == 3


@settings(max_examples=40)
@given(st.lists(st.tuples(st.floats(0.0, 59.999),
                          st.floats(0.0, 1.0) | st.sampled_from([1e-9, 0.3, 1.0])),
                min_size=1, max_size=400))
def test_sched_window_mean_is_np_mean_of_members(points):
    # bit for bit: np.mean pairwise-sums a slice, so summation order matters
    points = sorted(points, key=lambda p: p[0])
    by_start = sched_windows([snap(t, b) for t, b in points], WindowSpec())
    times = [t for t, _ in points]
    for start, end in make_windows(60.0, WindowSpec()):
        members = [points[i][1] for i in window_members_ref(times, start, end)]
        if members:
            assert by_start[start]["bler_mean"] == float(np.mean(members))


def test_sched_window_absent_fields():
    snaps = [snap(0.0), snap(1.0)]
    w = sched_windows(snaps, WindowSpec())[0.0]
    assert math.isnan(w["mcs_median"]) and math.isnan(w["snr_median_db"])
    snaps = [snap(0.0, mcs=9, snr=30.0), snap(1.0), snap(2.0, mcs=11, snr=32.0)]
    w = sched_windows(snaps, WindowSpec())[0.0]
    assert w["mcs_median"] == 10.0  # median over the two present values
    assert w["snr_median_db"] == 31.0


def test_sched_window_insufficient():
    spec = WindowSpec(min_sched_samples=2)
    assert 0.0 not in sched_windows([snap(0.0)], spec)


# Snapshot times in bursts of varied density: (first time, count, span)
# triples, each `count` snapshots evenly over `span` seconds.
BURSTS = st.lists(st.tuples(st.floats(0.0, 59.0), st.integers(1, 30), st.floats(0.0, 8.0)),
                  min_size=1, max_size=12)
SPECS = st.sampled_from([WindowSpec(), WindowSpec(7.0, 3.0), WindowSpec(20.0, 5.0)])


def burst_snapshots(bursts, data, bler, mcs, snr):
    """Snapshots at the burst times, each field drawn from its strategy."""
    times = [min(t + span * i / count, 59.999) for t, count, span in bursts
             for i in range(count)]
    draw = [data.draw(st.lists(s, min_size=len(times), max_size=len(times)))
            for s in (bler, mcs, snr)]
    return [snap(*row) for row in zip(times, *draw)]


def sched_order_statistics(spec, snapshots):
    """(window start, column, q, members in time order) of every grid
    window with a snapshot, for bler_p95 and the present members of the
    mcs and snr medians; and the joined windows, latency side dense."""
    run = run_of(dense_lat(), snapshots)
    sched = run.scheduler
    cases = []
    for start, end in make_windows(60.0, spec):
        members = window_members_ref(sched.t_s.tolist(), start, end)
        if members:
            cases += [(start, name, q, [v for v in column[members].tolist() if not math.isnan(v)])
                      for name, column, q in (("bler_p95", sched.dl_bler, 0.95),
                                              ("mcs_median", sched.dl_mcs, 0.5),
                                              ("snr_median_db", sched.snr_db, 0.5))]
    return cases, values_by_start(build_joined_windows(run, spec))


@settings(max_examples=40)
@given(SPECS, BURSTS, st.data())
def test_sched_order_statistics_match_reference(spec, bursts, data):
    snapshots = burst_snapshots(bursts, data, st.floats(0.0, 1.0),
                                st.none() | st.integers(0, 28),
                                st.none() | st.floats(-20.0, 40.0))
    cases, by_start = sched_order_statistics(spec, snapshots)
    assert len(by_start) == len({start for start, *_ in cases})
    for start, name, q, present in cases:
        got = by_start[start][name]
        if present:
            assert got == pytest.approx(percentile_ref(present, q), abs=1e-12)
        else:
            assert math.isnan(got)


@settings(max_examples=40)
@given(SPECS, BURSTS, st.data())
def test_sched_order_statistics_keep_bits_of_stable_time_order(spec, bursts, data):
    # Ties, +0.0 against -0.0 among them: the columns carry the bits of
    # segment_percentiles over each window's members sorted stably, that
    # is with ties in time order.
    signed = st.sampled_from([-0.0, 0.0, 1.0, 0.5])
    snapshots = burst_snapshots(bursts, data, signed, st.none() | st.integers(0, 2),
                                st.none() | st.sampled_from([-0.0, 0.0, -1.0, 1.0]))
    cases, by_start = sched_order_statistics(spec, snapshots)
    for start, name, q, present in cases:
        got = by_start[start][name]
        if not present:
            assert math.isnan(got)
            continue
        want = float(stats.segment_percentiles(
            np.sort(np.array(present), kind="stable"), np.zeros(1, dtype=np.intp),
            np.array([len(present)]), q)[0])
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


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
        assert w["lat_n"] == len(members)
        assert w["lat_p95_ms"] == pytest.approx(percentile_ref(rtts, 0.95), abs=1e-12)
        assert w["lat_median_ms"] == pytest.approx(percentile_ref(rtts, 0.5), abs=1e-12)
        assert w["lat_exceed_100ms"] == pytest.approx(exceedance_ref(rtts, 100.0), abs=1e-12)


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
    grid = make_windows(float(duration), spec).tolist()
    windows = latency_windows(samples, spec, float(duration))
    total_members = sum(windows[start]["lat_n"] for start, _ in grid if start in windows)
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
    assert len(build_joined_windows(run_of(samples, scheds), WindowSpec())) == 0


def test_join_identical_grids_full_length():
    samples = [lat(t * 0.2, seq=t) for t in range(300)]
    snaps = [snap(float(t)) for t in range(60)]
    joined = build_joined_windows(run_of(samples, snaps), WindowSpec())
    grid = make_windows(60.0, WindowSpec()).tolist()
    assert len(joined) == len(grid) == 11
    assert joined.start_s.tolist() == [start for start, _ in grid]


def test_join_starts_subset_of_inputs():
    samples = [lat(t * 0.2, seq=t) for t in range(150)]  # covers 0..30 s
    snaps = [snap(float(t)) for t in range(20, 60)]      # covers 20..60 s
    joined = build_joined_windows(run_of(samples, snaps), WindowSpec())
    lat_starts = set(latency_windows(samples, WindowSpec()))
    sched_starts = set(sched_windows(snaps, WindowSpec()))
    starts = joined.start_s.tolist()
    assert starts and all(
        start in lat_starts and start in sched_starts for start in starts)
    assert starts == sorted(starts)


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


# SHA-256 of every file scripts/run_paperlike.py writes at the default
# seed, as the benchmark recorded them; read here, never rewritten.
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_paperlike.py"


# SHA-256 of the column file of each of those runs' latency and
# scheduler CSVs, recorded at the same seed; digests.json holds none.
COLUMN_DIGESTS = {
    "baseline_latency.csv.cols":
        "83350a09495a77a40b7f1f8915c2e022dd15400e4829f33c63469a93e1199a7c",
    "baseline_modem_latency.csv.cols":
        "1a3fa3b8fbb8ff6a48b8ad50d1a18d4433b2f248611399c4454c693981c54395",
    "baseline_modem_sched.csv.cols":
        "bbb88e710d1c15d8b52ec4a39d790351e4f038604b0754553e1023c5d3bcd26c",
    "baseline_sched.csv.cols":
        "6414eb3ad19a99dff28b23e0a2aeccffbdbd2a42240a48e420d7a1958f9d1310",
    "dynamic_people_latency.csv.cols":
        "d32299bba07bfab15b8449829944b4a68af4ac07ef4ba2159d2374c42814fa11",
    "dynamic_people_sched.csv.cols":
        "d8a9c34f51469601ab9f2cde6b59886b1089a01783648688b876f98a93be2237",
    "static_1h_latency.csv.cols":
        "6d2fc4e1709c5e62e17f2ed709e6bca00cc61f2fd807c1b4dc6f360c64bbee89",
    "static_1h_sched.csv.cols":
        "24202ab6747d7729fd0e2617e28c285c33985843c875afa97c043942ff1c973f",
}


def test_paperlike_tables_match_golden_digests(tmp_path, monkeypatch, capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[
        "paperlike"][str(synthgen.DEFAULT_SEED)]
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--output-dir", str(tmp_path)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    # Beside the 32 recorded files: the column file of each of the 4
    # runs' latency and scheduler CSVs, and nothing else.
    columns = sorted(name for name in written if name.endswith(".csv.cols"))
    assert columns == sorted(f"{name}.cols" for name in expected
                             if name.endswith(("_latency.csv", "_sched.csv")))
    assert len(columns) == 8
    assert len(expected) == 32
    assert {name: written[name] for name in written if name not in columns} == expected
    assert {name: written[name] for name in columns} == COLUMN_DIGESTS


def test_modem_24h_tables_match_golden_digests():
    # The benchmark's 24 h modem run at campaign seed 20260825, as its
    # modem_24h workload builds it, rendered in-process with the config
    # defaults its `windows` and `flags` subcommands use.
    seed = synthgen.DEFAULT_SEED
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["modem_24h"][str(seed)]
    run, _ = synthgen.gen_run(synthgen.RunPreset("modem_24h", synthgen.ScenarioSpec(
        "baseline", 86400.0, seed, synthgen.MODEM, bler_baseline=0.05,
        bler_excursion_prob=0.08, stall_bler_coupling=0.8)))
    joined = build_joined_windows(run, WindowSpec())
    assert len(joined) == 17279
    tables = {"modem_24h_windows.csv": report.windows_table(joined),
              "modem_24h_flags.csv": report.flags_table(evaluate_flags(joined, FlagPolicy()))}
    for name, text in tables.items():
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected[name], name


def _bursty_times(rng, duration, mean_rate):
    """Sorted arrival times over [0, duration): Poisson within stretches
    of 1-40 s whose rates spread over two orders of magnitude."""
    edges = np.concatenate(([0.0], np.cumsum(rng.uniform(1.0, 40.0, int(duration)))))
    edges = np.minimum(edges[:np.searchsorted(edges, duration) + 1], duration)
    times = [rng.uniform(a, b, rng.poisson(mean_rate * rng.lognormal(-0.7, 1.2) * (b - a)))
             for a, b in zip(edges[:-1], edges[1:])]
    return np.sort(np.concatenate(times))


def _signed_zeros(rng, values):
    """`values` with every zero given a random sign."""
    return np.where(values == 0.0, np.where(rng.random(values.size) < 0.5, -0.0, 0.0),
                    values)


def irregular_run(seed=20261018, duration=3600.0):
    """A seeded 1 h run whose windows reach the kernel's grouped and NaN
    paths: bursty arrivals on both layers (hundreds of distinct window
    lengths), about 10 % absent dl_mcs and snr_db plus stretches where
    all of them are absent, values on coarse grids (repeated values),
    and +0.0 and -0.0 in dl_bler and snr_db."""
    rng = np.random.default_rng(seed)
    lat_t = _bursty_times(rng, duration, 10.0)
    rtt = np.maximum(np.round(rng.lognormal(3.0, 0.9, lat_t.size), 1), 0.1)
    sched_t = _bursty_times(rng, duration, 5.0)
    n = sched_t.size
    bler = np.where(rng.random(n) < 0.3, 0.0, np.round(rng.beta(0.5, 5.0, n), 2))
    mcs = rng.integers(0, 29, n).astype(float)
    snr = np.round(rng.normal(4.0, 6.0, n) * 2.0) / 2.0
    absent = rng.random((2, n)) < 0.1
    # Stretches where every dl_mcs (row 0), every snr_db (row 1) or both are absent.
    for rows, a, b in [((0,), 300.0, 340.0), ((1,), 1200.0, 1380.0), ((0,), 2500.0, 2530.0),
                       ((0, 1), 2300.0, 2330.0), ((0, 1), 3200.0, 3370.0)]:
        absent[np.ix_(rows, (sched_t >= a) & (sched_t < b))] = True
    nan = np.full(n, np.nan)
    meta = RunMetadata(run_id="irregular", ue_type="modem", distance_m=6.0,
                       packet_size_b=30, scenario="baseline", nominal_duration_s=duration)
    return consolidate_run(
        LatencyTrace(lat_t, np.arange(lat_t.size), rtt),
        SchedulerTrace(sched_t, np.full(n, 17.0), _signed_zeros(rng, bler), nan,
                       np.where(absent[0], np.nan, mcs), nan,
                       np.where(absent[1], np.nan, _signed_zeros(rng, snr)),
                       nan, nan, nan),
        meta)


# SHA-256 of canon.table_text of the irregular run's windows, recorded
# with the kernel that sorted every window's members by one global
# argsort: the windows CSV of a run with many window lengths, absent
# medians and signed zeros must not move a bit.
IRREGULAR_DIGESTS = {
    (10.0, 5.0): "6df937f36bd45d0022fc8cfe33f65b18a451688b0db13bff188e11c25e38b51c",
    (100.0, 5.0): "f6a37cbaf3aa81cc6d64135df934eac5cc81c378dbf42931a9b0958860110f6a",
    (7.0, 3.0): "6bdd4d656d2bf22430ce3c69397b7c08ca7a20237fe93baa450641aad7176d5f",
}


@pytest.mark.parametrize("width,stride", list(IRREGULAR_DIGESTS))
def test_irregular_run_windows_match_golden_digests(width, stride):
    joined = build_joined_windows(irregular_run(), WindowSpec(width, stride))
    assert np.unique(joined.lat_n).size >= 100
    assert np.unique(joined.sched_n).size >= 100
    assert np.isnan(joined.mcs_median).any() and np.isnan(joined.snr_median_db).any()
    digest = hashlib.sha256(canon.table_text(joined).encode("utf-8")).hexdigest()
    assert digest == IRREGULAR_DIGESTS[width, stride]


# ------------------------------------------------------------------ split

def test_split_conserves_counts_and_labels():
    samples = [lat(t * 0.2, seq=t) for t in range(9000)]
    snaps = [snap(float(t)) for t in range(1800)]
    run = run_of(samples, snaps, duration=1800.0)
    first, second = split_phases(run, 900.0)
    assert len(first.latency) + len(second.latency) == 9000
    assert len(first.scheduler) + len(second.scheduler) == 1800
    assert first.meta == second.meta == run.meta
    assert [r.phase_label for r in compare_phases(run, 900.0)] == ["LOS", "People"]
    assert all(s.t_s < 900.0 for s in first.latency)
    assert all(s.t_s >= 900.0 for s in second.latency)
    # the boundary snapshot at exactly t=900 lands in the second phase
    assert second.scheduler[0].t_s == 900.0


def test_split_default_midpoint():
    run = run_of([lat(t * 1.0, seq=t) for t in range(60)], [], duration=60.0)
    first, second = split_phases(run)
    assert len(first.latency) == len(second.latency) == 30


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
