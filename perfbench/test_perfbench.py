"""Tests of the benchmark's own machinery: span arithmetic, grading and
the raw-log renderer. Run with `PYTHONPATH=src python3 -m pytest perfbench`."""

import json
import sys
from pathlib import Path

import pytest

import rawlog
import tracer
import workloads
from taildiag import canon, cli, ingest, synthgen
from taildiag.synthgen import MODEM, RunPreset, ScenarioSpec


def test_self_time_subtracts_union_of_children():
    # root [0, 100] has children [10, 30] and [20, 50], which overlap on
    # [20, 30]; the first child has a grandchild [12, 18]. A span from
    # another command shares no time with the tree.
    spans = [
        (1, 0, "root", 0, 100, 1),
        (2, 1, "a", 10, 30, 1),
        (3, 1, "b", 20, 50, 1),
        (4, 2, "c", 12, 18, 1),
        (5, 0, "root", 200, 210, 5),
    ]
    assert tracer.self_times(spans) == {"root": 60 + 10, "a": 14, "b": 30, "c": 6}


def test_layer_metrics_sum_processes_and_form_ratios():
    one = {"spans": [(1, 0, "cli.load_run", 0, 2_000_000_000, 1)],
           "counts": {"windows.grid_windows": 4, "windows.joined_windows": 3,
                      "ingest.samples": 9, "ingest.malformed": 1}}
    two = {"spans": [(1, 0, "cli.load_run", 5, 500_000_005, 1),
                     (2, 1, "canon.read_latency_csv", 5, 100_000_005, 1)],
           "counts": {"canon.bytes_read": 70}, "scale": 0.5}
    m = tracer.layer_metrics([one, two])
    assert m["cli.load_run.calls"] == 2
    assert m["cli.load_run.self_s"] == pytest.approx(2.0 + 0.4 * 0.5)
    assert m["canon.read_latency_csv.self_s"] == pytest.approx(0.1 * 0.5)
    assert m["canon.bytes_read"] == 70
    assert m["windows.join_yield"] == 0.75
    assert m["ingest.kept_frac"] == 0.9
    assert set(m) | {"trace.overhead_s"} == set(_benchmark()["per_layer"])


def test_install_wraps_bound_names_and_uninstall_restores():
    orig_load_run, orig_flags = cli.load_run, cli.evaluate_flags
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.evaluate_flags is not orig_flags      # from-imported name
        assert cli.load_run is not orig_load_run
        assert sys.modules["taildiag.flags"].evaluate_flags is cli.evaluate_flags
        assert cli.evaluate_flags([], None) == []
    finally:
        t.uninstall()
    assert cli.load_run is orig_load_run and cli.evaluate_flags is orig_flags
    assert [s[2] for s in t.spans] == ["flags.evaluate_flags"]


def _benchmark():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m for m in doc[key]} for key in ("end_to_end", "per_layer")}


def _fake_pass(tmp_path, wl, exit_code=0):
    out = tmp_path / "out"
    out.mkdir()
    for cmd, suffix in wl.COMMANDS.items():
        (out / f"modem_24h_{suffix}.csv").write_text(f"{cmd},1.5\n")
    procs = [workloads.Proc(cmd, 1.0, 10.0, exit_code, out / "o", out / "e")
             for cmd in wl.COMMANDS]
    return out, procs


def test_one_corrupted_output_byte_fails_an_operation(tmp_path, monkeypatch):
    wl = workloads.Modem24h(tmp_path, tmp_path / "work", seed=3)
    out, procs = _fake_pass(tmp_path, wl)
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"modem_24h": {str(wl.cseed): {
        f.name: workloads.sha256(f) for f in out.iterdir()}}}))
    monkeypatch.setattr(workloads, "DIGESTS", digests)
    assert all(op.ok for op in wl.grade(out, procs))

    target = out / "modem_24h_windows.csv"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    ops = wl.grade(out, procs)
    failed = [op.label for op in ops if not op.ok]
    assert failed == ["windows"]
    assert len(failed) / len(ops) > 0          # fail_frac


def test_nonzero_exit_fails_every_operation_of_the_process(tmp_path, monkeypatch):
    wl = workloads.Modem24h(tmp_path, tmp_path / "work", seed=0)
    out, procs = _fake_pass(tmp_path, wl, exit_code=1)
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"modem_24h": {str(wl.cseed): {
        f.name: workloads.sha256(f) for f in out.iterdir()}}}))
    monkeypatch.setattr(workloads, "DIGESTS", digests)
    assert not any(op.ok for op in wl.grade(out, procs))


def test_digests_cover_every_pool_seed():
    table = json.loads(workloads.DIGESTS.read_text())
    seeds = {str(workloads.campaign_seed(k)) for k in range(-3, 2 * workloads.POOL)}
    for name in ("paperlike", "modem_24h"):
        assert set(table[name]) == seeds
    # scripts/run_paperlike.py at its default seed is pool entry 0.
    assert workloads.campaign_seed(0) == synthgen.DEFAULT_SEED


def test_raw_render_accounting_holds_when_parsed(tmp_path):
    # 3.7 h at 0.2 s is 66,600 pings, so icmp_seq wraps past 65,535.
    preset = RunPreset("raw", ScenarioSpec(
        "baseline", 13320.0, 5, MODEM, bler_baseline=0.05,
        bler_excursion_prob=0.08, stall_bler_coupling=0.8))
    run, _ = synthgen.gen_run(preset)
    raw = rawlog.render(run, seed=5)
    assert " icmp_seq=0 " in raw.ping_text
    assert raw.malformed_lines and raw.bad_rows and "(DUP!)" in raw.ping_text

    lines = raw.ping_text.splitlines(keepends=True)
    parsed = ingest.parse_ping_log(lines, run.meta)
    assert raw.ping_lines == len(lines)
    assert len(lines) == len(parsed.samples) + parsed.skipped_lines + len(parsed.malformed)
    assert parsed.skipped_lines == raw.skipped_lines
    assert [n for n, _ in parsed.malformed] == raw.malformed_lines
    assert [(s.t_s, s.seq, s.rtt_ms) for s in parsed.samples] == raw.latency_rows

    fs = ingest.parse_fullstats(raw.fullstats_text.splitlines(), rawlog.COLUMN_MAP,
                                run.meta)
    assert fs.skipped_rows == len(raw.bad_rows)
    assert len(fs.snapshots) + fs.skipped_rows == raw.fullstats_rows
    _, kept = ingest.select_dominant_rnti(fs.snapshots)
    path = tmp_path / "sched.csv"
    canon.write_scheduler_csv(path, kept)
    assert workloads.read_rows(path, workloads._sched_row) == raw.sched_rows
