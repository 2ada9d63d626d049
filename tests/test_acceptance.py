"""End-to-end acceptance gate.

Ten numbered criteria, each a single test that prints one PASS/FAIL
line (visible with -s; pytest -v shows the per-test verdict either
way). Tolerances are pinned here and must not be loosened:

  1  extreme KS p-values underflow to 0.00e+00, both calls < 1 ms
  2  flag-rate strings for 1/13 and 0/13 match exactly
  3  KS d_stat vs brute-force ECDF enumeration, 200 pairs, 1e-12
  4  percentile vs sort-and-interpolate oracle, 500 vectors, 1e-12,
     monotone in q
  5  Spearman vs average-rank Pearson oracle, 200 tied pairs, 1e-12,
     constant input -> None -> "N/A"
  6  window count closed form + brute-force membership conservation
  7  paperlike campaign: profile separation d > 0.8, modem-only 1 s
     exceedances, clean static BLER, all under 30 s
  8  ground-truth flag soundness, exact both directions
  9  coupling recovery rho_bler > 0.4, oracle match on the emitted
     windows file to 1e-12
  10 generate -> write -> ingest -> re-serialize byte-identical, and
     byte-identical CLI reruns
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from taildiag import canon, flags, report, stats, synthgen, windows
from taildiag.cli import main
from taildiag.flags import DegradationFlag, FlagPolicy
from taildiag.ingest import LatencySample, Run, RunMetadata, SchedulerSnapshot
from taildiag.windows import WindowSpec

from oracles import ks_d_ref, percentile_ref, spearman_ref, window_members_ref


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def coupled():
    """Fully coupled single-run campaign plus its joined windows and flags."""
    preset = synthgen.coupled_presets()[0]
    run, truth = synthgen.gen_run(preset)
    joined = windows.build_joined_windows(run, WindowSpec())
    flagged = flags.evaluate_flags(joined, FlagPolicy())
    return run, truth, joined, flagged


def test_criterion_01_ks_pvalue_underflow_and_speed():
    cases = ((0.888, 8945, 8957), (0.985, 8945, 8630))
    for d, n1, n2 in cases:
        p = stats.ks_pvalue(d, n1, n2)
        assert p < 1e-300, (d, n1, n2, p)
        assert report.fmt_pvalue(p) == "0.00e+00"
    best = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        for d, n1, n2 in cases:
            stats.ks_pvalue(d, n1, n2)
        best = min(best, time.perf_counter() - t0)
    _verdict(1, best < 1e-3,
             f"both p-values print 0.00e+00, pair runtime {best * 1e6:.0f} us")


def test_criterion_02_flag_rate_strings():
    def flag(raised: bool) -> DegradationFlag:
        return DegradationFlag(0.0, raised, raised, raised, 0.0, 0.0)

    one = report.fmt_rate(flags.flag_rate([flag(True)] + [flag(False)] * 12))
    zero = report.fmt_rate(flags.flag_rate([flag(False)] * 13))
    _verdict(2, (one, zero) == ("0.077", "0.000"),
             f"1/13 -> {one!r}, 0/13 -> {zero!r}")


def test_criterion_03_ks_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(200):
        n1, n2 = rng.integers(1, 21, size=2)
        a = rng.normal(50.0, 20.0, n1)
        b = rng.normal(55.0, 25.0, n2)
        if trial % 2:  # force ties and shared values across samples
            a, b = np.round(a, 1), np.round(b, 1)
        got = stats.ks_two_sample(a.tolist(), b.tolist()).d_stat
        worst = max(worst, abs(got - ks_d_ref(a.tolist(), b.tolist())))
    _verdict(3, worst <= 1e-12, f"200 pairs, max |d - oracle| = {worst:.2e}")


def test_criterion_04_percentile_matches_oracle_and_is_monotone():
    rng = np.random.default_rng(4)
    qs = (0.0, 0.25, 0.5, 0.95, 1.0)
    worst = 0.0
    for _ in range(500):
        v = (rng.normal(0.0, 1.0, rng.integers(1, 101)) * 100.0).tolist()
        got = [stats.percentile(v, q) for q in qs]
        for g, q in zip(got, qs):
            worst = max(worst, abs(g - percentile_ref(v, q)))
        assert all(x <= y for x, y in zip(got, got[1:])), (v, got)
    _verdict(4, worst <= 1e-12,
             f"500 vectors x 5 quantiles, max |err| = {worst:.2e}, monotone")


def test_criterion_05_spearman_matches_oracle_and_renders_na():
    rng = np.random.default_rng(5)
    worst, defined = 0.0, 0
    for _ in range(200):
        n = int(rng.integers(2, 61))
        x = np.round(rng.normal(0.0, 1.0, n), 1)
        y = np.round(rng.normal(0.0, 1.0, n), 1)
        x[1] = x[0]  # at least one tie in every pair
        got = stats.spearman_rho(x.tolist(), y.tolist())
        ref = spearman_ref(x.tolist(), y.tolist())
        if ref is None:
            assert got is None
        else:
            defined += 1
            worst = max(worst, abs(got - ref))
    constant = stats.spearman_rho([7.0] * 10, list(range(10)))
    assert constant is None and report.fmt_rho(constant) == "N/A"
    _verdict(5, worst <= 1e-12 and defined >= 150,
             f"{defined}/200 defined, max |rho - oracle| = {worst:.2e}, "
             "constant -> N/A")


def test_criterion_06_window_count_closed_form_and_conservation():
    checked = 0
    for dur in (10.0, 12.25, 55.0, 60.0, 61.5, 600.0, 1800.0, 3600.0):
        for width in (1.0, 5.0, 10.0, 30.0):
            for stride in (0.5, 1.0, 2.5, 5.0, 10.0, 30.0):
                if stride > width or width > dur:
                    continue
                grid = windows.make_windows(dur, WindowSpec(width, stride, 1, 1))
                expected = math.floor((dur - width) / stride) + 1
                assert len(grid) == expected, (dur, width, stride)
                checked += 1

    # Membership is checked on the latency side of the join; a snapshot
    # every 0.5 s keeps every grid window on the scheduler side.
    rng = np.random.default_rng(6)
    meta = RunMetadata(run_id="c6", ue_type="modem", distance_m=1.0,
                       packet_size_b=30, scenario="baseline",
                       nominal_duration_s=100.0)
    dense_sched = tuple(SchedulerSnapshot(t_s=k * 0.5, rnti=1, dl_bler=0.0)
                        for k in range(200))
    for width, stride in ((10.0, 5.0), (7.5, 2.5), (30.0, 30.0)):
        spec = WindowSpec(width, stride, 1, 1)
        n = int(rng.integers(1, 1001))
        times = np.sort(rng.uniform(0.0, 100.0, n))
        samples = [
            LatencySample(t_s=float(t), seq=i, rtt_ms=float(rng.uniform(1, 500)))
            for i, t in enumerate(times)]
        joined = windows.build_joined_windows(
            Run(meta=meta, latency=tuple(samples), scheduler=dense_sched), spec)
        by_start = {j.start_s: j.latency for j in joined}
        total_got = total_ref = 0
        for start, end in windows.make_windows(100.0, spec):
            members = [samples[i] for i in
                       window_members_ref([s.t_s for s in samples], start, end)]
            got = by_start.get(start)
            if not members:
                assert got is None
                continue
            rtts = [s.rtt_ms for s in members]
            assert got.n == len(members)
            assert abs(got.p95_ms - percentile_ref(rtts, 0.95)) <= 1e-12
            assert abs(got.median_ms - percentile_ref(rtts, 0.5)) <= 1e-12
            total_got += got.n
            total_ref += len(members)
        assert total_got == total_ref
    _verdict(6, checked >= 100,
             f"{checked} grid combos match closed form; membership matches "
             "brute-force enumeration")


def test_criterion_07_paperlike_campaign_separation():
    t0 = time.perf_counter()
    runs = {p.run_id: synthgen.gen_run(p)[0]
            for p in synthgen.paperlike_presets()}
    phone = [s.rtt_ms for s in runs["baseline"].latency]
    modem = [s.rtt_ms for s in runs["baseline_modem"].latency]
    ks = stats.ks_two_sample(phone, modem)
    assert ks.n1 == ks.n2 == 9000
    phone_sum = stats.summary_stats(phone)
    modem_sum = stats.summary_stats(modem)
    static_bler = [s.dl_bler for s in runs["static_1h"].scheduler]
    bler_median = stats.percentile(static_bler, 0.5)
    bler_p95 = stats.percentile(static_bler, 0.95)
    elapsed = time.perf_counter() - t0
    ok = (ks.d_stat > 0.8
          and modem_sum.exceed_1s > 0.0 and phone_sum.exceed_1s == 0.0
          and bler_median == 0.0 and bler_p95 == 0.0
          and elapsed < 30.0)
    _verdict(7, ok,
             f"d={ks.d_stat:.3f} (n=9000 both), modem exceed_1s="
             f"{modem_sum.exceed_1s:.4f}, phone exceed_1s="
             f"{phone_sum.exceed_1s}, static bler median/p95="
             f"{bler_median}/{bler_p95}, {elapsed:.1f} s")


def test_criterion_08_flag_soundness_on_ground_truth(coupled):
    run, truth, joined, flagged = coupled
    width = WindowSpec().width_s
    stall_windows = missed = 0
    for w, f in zip(joined, flagged):
        if any(w.start_s <= c < w.start_s + width for c in truth.stall_times_s):
            stall_windows += 1
            missed += 0 if f.raised else 1
    assert stall_windows > 0, "no stall-bearing windows generated"

    quiet_spec = replace(synthgen.coupled_presets()[0].spec,
                         stall_bler_coupling=0.0, bler_excursion_prob=0.0)
    quiet_run, _ = synthgen.gen_run(
        synthgen.RunPreset("uncoupled", quiet_spec))
    quiet_rate = flags.flag_rate(flags.evaluate_flags(
        windows.build_joined_windows(quiet_run, WindowSpec()), FlagPolicy()))
    _verdict(8, missed == 0 and quiet_rate == 0.0,
             f"{stall_windows} stall windows all flagged "
             f"({missed} missed); uncoupled flag rate {quiet_rate}")


def test_criterion_09_coupling_recovery_matches_emitted_table(coupled, tmp_path):
    _, _, joined, _ = coupled
    rho = flags.coupling_report(joined).rho_bler
    assert rho is not None

    camp = tmp_path / "camp"
    assert main(["synth", "coupled", "--output-dir", str(camp)]) == 0
    assert main(["windows", "--config", str(camp / "campaign_config.json"),
                 "--output-dir", str(tmp_path), "coupled"]) == 0
    lines = (tmp_path / "coupled_windows.csv").read_text().splitlines()
    cols = lines[0].split(",")
    i_p95, i_bler = cols.index("lat_p95_ms"), cols.index("bler_mean")
    cells = [line.split(",") for line in lines[1:]]
    ref = spearman_ref([float(c[i_p95]) for c in cells],
                       [float(c[i_bler]) for c in cells])
    _verdict(9, rho > 0.4 and abs(rho - ref) <= 1e-12,
             f"rho_bler={rho:.3f} (> 0.4), |rho - table oracle| = "
             f"{abs(rho - ref):.2e} over {len(cells)} windows")


def test_criterion_10_round_trip_and_cli_determinism(tmp_path):
    first = tmp_path / "first"
    assert main(["synth", "coupled", "--output-dir", str(first)]) == 0
    meta, files = canon.read_manifest(first / "coupled.manifest")
    redo = tmp_path / "redo"
    redo.mkdir()
    canon.write_latency_csv(redo / "lat.csv",
                            canon.read_latency_csv(files["latency_file"]))
    canon.write_scheduler_csv(redo / "sched.csv",
                              canon.read_scheduler_csv(files["scheduler_file"]))
    stalls, excursions = canon.read_truth_csv(files["truth_file"])
    canon.write_truth_csv(redo / "truth.csv", stalls, excursions)
    roundtrip_ok = (
        (redo / "lat.csv").read_bytes()
        == (first / "coupled_latency.csv").read_bytes()
        and (redo / "sched.csv").read_bytes()
        == (first / "coupled_sched.csv").read_bytes()
        and (redo / "truth.csv").read_bytes()
        == (first / "coupled_truth.csv").read_bytes())

    cfg = str(first / "campaign_config.json")
    out = tmp_path / "out"
    commands = [
        ["summarize", "--config", cfg, "--output-dir", str(out), "coupled"],
        ["compare", "--config", cfg, "--output-dir", str(out),
         "coupled", "coupled"],
        ["windows", "--config", cfg, "--output-dir", str(out), "coupled"],
        ["flags", "--config", cfg, "--output-dir", str(out), "coupled"],
        ["phases", "--config", cfg, "--output-dir", str(out), "coupled"],
    ]
    for cmd in commands:
        assert main(cmd) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    for cmd in commands:
        assert main(cmd) == 0
    rerun_ok = {p.name: p.read_bytes() for p in out.iterdir()} == snapshot

    again = tmp_path / "again"
    assert main(["synth", "coupled", "--output-dir", str(again)]) == 0
    regen_ok = all((again / p.name).read_bytes() == p.read_bytes()
                   for p in sorted(first.iterdir()))
    _verdict(10, roundtrip_ok and rerun_ok and regen_ok,
             f"canonical re-serialization byte-identical={roundtrip_ok}, "
             f"{len(commands)} CLI commands rerun byte-identical={rerun_ok}, "
             f"regeneration byte-identical={regen_ok}")
