"""Formatting, config loading, and end-to-end CLI coverage."""

import csv
import gc
import json
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from taildiag import canon, cli, report
from taildiag.cli import main
from taildiag.config import load_config
from taildiag.errors import InvalidSpecError
from taildiag.flags import CouplingReport
from taildiag.model import LatencySample

from readers import read_manifest
from runs import latency_trace

# ------------------------------------------------------------- package

@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_import_sets_one_blas_thread_before_numpy_loads(preset, want):
    # OpenBLAS reads the count when numpy loads, so the default must be
    # set before any import of numpy; a count the caller set wins.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    child = ("import os, sys, taildiag; "
             "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])")
    done = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == f"False {want}\n"


def _loaded_after(*argvs):
    """Which of the text reader, the raw parsers, synthesis, csv and
    logging a fresh interpreter compiling from source, as a CLI process
    does, has loaded after main(argv) exits 0 for each of argvs."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = ("import sys\n"
             "from taildiag.cli import main\n"
             + "".join(f"assert main({argv!r}) == 0\n" for argv in argvs)
             + "print([m for m in ('taildiag.decimals', 'taildiag.synthgen', 'taildiag.ingest',"
             " 'csv', 'logging') if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, check=True)
    return done.stdout.splitlines()[-1]


def test_analysis_of_bound_canonical_files_loads_no_parser(campaign, tmp_path):
    # With each CSV's column file bound, summarize and flags load no raw
    # parser, no text reader, no synthesis, no csv module and no logging.
    assert sorted(p.name for p in campaign.glob("*.cols")) == [
        "coupled_latency.csv.cols", "coupled_sched.csv.cols"]
    # The same again for a run that also names raw logs, which do not
    # exist: the canonical files win, and no raw log is opened.
    config = json.loads(Path(_cfg(campaign)).read_text())
    run = config["runs"][0]
    for key in ("latency_file", "scheduler_file", "truth_file"):
        run[key] = str(campaign / run[key])
    run.update(ping_log=str(tmp_path / "absent.log"), fullstats=str(tmp_path / "absent.csv"))
    named = tmp_path / "named_raw.json"
    named.write_text(json.dumps(config))
    for cfg in (_cfg(campaign), str(named)):
        out = tmp_path / Path(cfg).stem
        common = ["--config", cfg, "--output-dir", str(out), "coupled"]
        assert _loaded_after(["summarize", *common], ["flags", *common]) == "[]"
        assert (out / "coupled_summary.csv").exists()
        assert (out / "coupled_flags.csv").exists()


def test_analysis_of_canonical_text_loads_the_decimal_reader_alone(campaign, tmp_path):
    # Without column files each CSV is read from its text, by the
    # decimal reader's line reader: still no raw parser, no synthesis,
    # no csv module and no logging.
    bare = tmp_path / "bare"
    shutil.copytree(campaign, bare)
    for path in bare.glob("*.cols"):
        path.unlink()
    argv = ["summarize", "--config", _cfg(bare), "--output-dir", str(tmp_path), "coupled"]
    assert _loaded_after(argv) == "['taildiag.decimals']"
    assert (tmp_path / "coupled_summary.csv").exists()
    assert not list(bare.glob("*.cols"))


# ------------------------------------------------------------- formatting

def test_fmt_ms():
    assert report.fmt_ms(14.23) == "14.2"
    assert report.fmt_ms(249.55) == "249.6"
    assert report.fmt_ms(8.0) == "8.0"


def test_fmt_rate():
    assert report.fmt_rate(1 / 13) == "0.077"
    assert report.fmt_rate(0.0) == "0.000"
    assert report.fmt_rate(1.0) == "1.000"
    assert report.fmt_rate(0.0534) == "0.053"


def test_fmt_pvalue():
    assert report.fmt_pvalue(0.0) == "0.00e+00"
    assert report.fmt_pvalue(1e-310) == "1.00e-310"
    assert report.fmt_pvalue(0.0009) == "9.00e-04"
    assert report.fmt_pvalue(0.001) == "0.001"
    assert report.fmt_pvalue(0.5) == "0.500"
    assert report.fmt_pvalue(1.0) == "1.000"


def test_fmt_rho_and_mcs():
    assert report.fmt_rho(None) == "N/A"
    assert report.fmt_rho(0.531) == "0.53"
    assert report.fmt_rho(-1.0) == "-1.00"
    assert report.fmt_mcs(None) == ""
    assert report.fmt_mcs(9.0) == "9"
    assert report.fmt_mcs(9.5) == "9.5"


def test_coupling_line_renders_na():
    line = report.coupling_line(CouplingReport(0.53, None, 13))
    assert line == "rho_bler=0.53 rho_mcs=N/A n_windows=13"


# ----------------------------------------------------------------- config

def test_load_config_defaults_and_paths(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({
        "runs": [{"run_id": "a", "latency_file": "a_latency.csv"}],
        "output_dir": "out",
    }))
    cfg = load_config(tmp_path / "c.json")
    assert cfg.window.width_s == 10.0 and cfg.window.stride_s == 5.0
    assert cfg.policy.lat_p95_threshold_ms == 100.0
    assert cfg.exceed_thresholds_ms == (100.0, 1000.0)
    assert cfg.outlier_ms == 1000.0
    assert cfg.runs[0].latency_file == str(tmp_path / "a_latency.csv")
    assert cfg.output_dir == str(tmp_path / "out")


def test_load_config_sections(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({
        "window": {"width_s": 20.0, "stride_s": 10.0},
        "policy": {"bler_mean_threshold": 0.2, "combine": "OR"},
        "thresholds": {"exceed_ms": [50, 200], "outlier_ms": 500},
        "column_map": {"rnti": "RNTI", "dl_bler": "dlsch_bler"},
        "runs": [],
    }))
    cfg = load_config(tmp_path / "c.json")
    assert cfg.window.width_s == 20.0
    assert cfg.policy.combine == "OR"
    assert cfg.exceed_thresholds_ms == (50.0, 200.0)
    assert cfg.outlier_ms == 500.0
    assert cfg.column_map == {"rnti": "RNTI", "dl_bler": "dlsch_bler"}


def test_load_config_rejects_unknown_keys(tmp_path):
    for payload in (
        {"bogus": 1},
        {"runs": [{"run_id": "a", "latencyfile": "x"}]},
        {"window": {"width": 10}},
        {"thresholds": {"exceed": [1]}},
        {"runs": [{"run_id": "a"}, {"run_id": "a"}]},
    ):
        (tmp_path / "c.json").write_text(json.dumps(payload))
        with pytest.raises(InvalidSpecError):
            load_config(tmp_path / "c.json")


@pytest.mark.parametrize("key", ["latency_file", "scheduler_file", "truth_file",
                                 "ping_log", "fullstats", "output_dir"])
def test_load_config_refuses_a_nul_in_a_path(tmp_path, key):
    run = {"run_id": "a", "latency_file": "a_latency.csv"}
    config = {"runs": [run]}
    (config if key == "output_dir" else run)[key] = "x\0y"
    (tmp_path / "c.json").write_text(json.dumps(config))
    with pytest.raises(InvalidSpecError, match=f"{key} must not hold a NUL character"):
        load_config(tmp_path / "c.json")


@pytest.mark.parametrize("run_id", ["a\0b", "../esc", "a/b", "a\\b", "x\ny", "a,b", "a\x7fb",
                                    ".", ".."])
def test_load_config_refuses_a_run_id_that_is_no_plain_file_name(tmp_path, run_id):
    (tmp_path / "c.json").write_text(json.dumps({"runs": [{"run_id": run_id}]}))
    with pytest.raises(InvalidSpecError, match=r"bad runs\[0\]: run_id must be a plain file"):
        load_config(tmp_path / "c.json")


CONTROL = ["base\nline_file=x", "a\rb", "a\tb", "a\0b", "a\x7fb", "a\x85b"]


@pytest.mark.parametrize("value", CONTROL)
@pytest.mark.parametrize("key", ["ue_type", "scenario"])
def test_load_config_refuses_a_control_character_in_ue_type_or_scenario(tmp_path, key, value):
    # Each is one `key=value` line of the manifest: a newline would add one.
    (tmp_path / "c.json").write_text(json.dumps({"runs": [{"run_id": "a", key: value}]}))
    with pytest.raises(InvalidSpecError) as exc:
        load_config(tmp_path / "c.json")
    assert str(exc.value) == f"bad runs[0]: {key} must hold no control character, got {value!r}"


def test_load_config_bad_json(tmp_path):
    (tmp_path / "c.json").write_text("{not json")
    with pytest.raises(InvalidSpecError):
        load_config(tmp_path / "c.json")


def test_load_config_refuses_a_top_level_that_is_no_object(tmp_path):
    (tmp_path / "c.json").write_text("[1, 2]")
    with pytest.raises(InvalidSpecError) as exc:
        load_config(tmp_path / "c.json")
    assert str(exc.value) == f"{tmp_path / 'c.json'}: top level must be an object"


# -------------------------------------------------------------- CLI: synth

@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A generated 'coupled' campaign directory with its config path."""
    d = tmp_path_factory.mktemp("campaign")
    assert main(["synth", "coupled", "--output-dir", str(d)]) == 0
    return d


def test_synth_writes_campaign(campaign, capsys):
    assert (campaign / "coupled_latency.csv").exists()
    assert (campaign / "coupled_sched.csv").exists()
    assert (campaign / "coupled_truth.csv").exists()
    assert (campaign / "coupled.manifest").exists()
    assert (campaign / "campaign_config.json").exists()
    assert (campaign / "campaign.manifest").read_text() == "coupled.manifest\n"


def test_synth_rerun_byte_identical(campaign, tmp_path):
    assert main(["synth", "coupled", "--output-dir", str(tmp_path)]) == 0
    for f in sorted(campaign.iterdir()):
        assert (tmp_path / f.name).read_bytes() == f.read_bytes(), f.name


def test_synth_seed_changes_output(tmp_path):
    assert main(["synth", "coupled", "--output-dir", str(tmp_path),
                 "--seed", "12345"]) == 0
    lat = (tmp_path / "coupled_latency.csv").read_bytes()
    assert lat  # generated, but different from the default-seed campaign


def test_synth_unknown_preset(tmp_path, capsys):
    assert main(["synth", "warp", "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "paperlike" in err and "coupled" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
def test_synth_seed_outside_u64_is_an_error(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert main(["synth", "paperlike", "--output-dir", str(out), "--seed", seed]) == 1
    assert capsys.readouterr().err == (
        f"error: seed {seed} is not an unsigned 64-bit integer\n")
    assert not out.exists()


def test_synth_paperlike_run_ids(tmp_path, capsys):
    assert main(["synth", "paperlike", "--output-dir", str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.glob("*.manifest")}
    assert names == {"baseline.manifest", "baseline_modem.manifest",
                     "dynamic_people.manifest", "static_1h.manifest",
                     "campaign.manifest"}


# ---------------------------------------------------------- CLI: analysis

def _cfg(campaign):
    return str(campaign / "campaign_config.json")


def test_outputs_do_not_depend_on_column_files(campaign, tmp_path, capsys):
    bare = tmp_path / "bare"
    shutil.copytree(campaign, bare)
    removed = sorted(p.name for p in bare.glob("*.cols"))
    assert removed == ["coupled_latency.csv.cols", "coupled_sched.csv.cols"]
    for name in removed:
        (bare / name).unlink()
    results = []
    for source in (campaign, bare):
        out = tmp_path / f"out_{source.name}"
        for command in ("summarize", "windows", "flags", "phases"):
            assert main([command, "--config", _cfg(source), "--output-dir", str(out),
                         "coupled"]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        results.append((files, capsys.readouterr().out.replace(str(out), "OUT")))
    assert len(results[0][0]) == 4
    assert results[0] == results[1]


def test_summarize(campaign, tmp_path, capsys):
    assert main(["summarize", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled"]) == 0
    text = (tmp_path / "coupled_summary.csv").read_text()
    header, row = text.splitlines()
    assert header == ("run_id,lat_n,lat_median_ms,lat_p95_ms,lat_mean_ms,"
                      "exceed_100ms,exceed_1000ms,outlier_rate,"
                      "sched_n,bler_median,bler_p95,mcs_median,snr_median_db")
    cells = row.split(",")
    assert cells[0] == "coupled" and cells[1] == "3000"
    assert cells[8] == "600" and cells[9] == "0.050"
    assert text == capsys.readouterr().out


def test_summarize_latency_only(campaign, tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [{"run_id": "lonely",
                  "latency_file": str(campaign / "coupled_latency.csv")}],
        "output_dir": str(tmp_path),
    }))
    assert main(["summarize", "--config", str(cfg_path), "lonely"]) == 0
    row = (tmp_path / "lonely_summary.csv").read_text().splitlines()[1]
    assert row.endswith(",,,,,")  # all five scheduler cells empty


def test_summarize_rerun_byte_identical(campaign, tmp_path):
    args = ["summarize", "--config", _cfg(campaign),
            "--output-dir", str(tmp_path), "coupled"]
    assert main(args) == 0
    first = (tmp_path / "coupled_summary.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "coupled_summary.csv").read_bytes() == first


def test_compare_self_is_null(campaign, tmp_path, capsys):
    assert main(["compare", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled", "coupled"]) == 0
    text = (tmp_path / "compare_coupled_vs_coupled.csv").read_text()
    header, row = text.splitlines()
    assert header == "packet_size_b,n_a,n_b,ks_d,p_value,p95_a_ms,p95_b_ms"
    cells = row.split(",")
    assert cells[0] == "30" and cells[1] == cells[2] == "3000"
    assert cells[3] == "0.000" and cells[4] == "1.000"
    assert cells[5] == cells[6]


def test_compare_packet_mismatch_warns(campaign, tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [
            {"run_id": "small", "packet_size_b": 30,
             "latency_file": str(campaign / "coupled_latency.csv")},
            {"run_id": "big", "packet_size_b": 1000,
             "latency_file": str(campaign / "coupled_latency.csv")},
        ],
        "output_dir": str(tmp_path),
    }))
    assert main(["compare", "--config", str(cfg_path), "small", "big"]) == 0
    assert capsys.readouterr().err == \
        "WARNING: packet sizes differ: small has 30 B, big has 1000 B\n"
    assert (tmp_path / "compare_small_vs_big.csv").exists()


def test_windows(campaign, tmp_path, capsys):
    assert main(["windows", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled"]) == 0
    text = (tmp_path / "coupled_windows.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == ("start_s,lat_n,lat_p95_ms,lat_median_ms,"
                        "lat_exceed_100ms,sched_n,bler_mean,bler_p95,"
                        "mcs_median,snr_median_db")
    assert len(lines) == 120  # 119 joined windows on a 600 s run
    out = capsys.readouterr().out
    assert "coupled: 119 joined windows" in out
    assert "rho_bler=" in out and "n_windows=119" in out


def test_windows_override_grid(campaign, tmp_path, capsys):
    assert main(["windows", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled",
                 "--window-width-s", "60", "--stride-s", "60"]) == 0
    assert "coupled: 10 joined windows" in capsys.readouterr().out


def test_windows_override_width_below_config_stride(campaign, tmp_path, capsys):
    # 4 s windows at a 2 s stride are valid, although the configured
    # 5 s stride exceeds the 4 s width on its own.
    assert main(["windows", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled",
                 "--window-width-s", "4", "--stride-s", "2"]) == 0
    assert "coupled: 299 joined windows" in capsys.readouterr().out


def test_windows_empty_join(campaign, tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [{"run_id": "lonely",
                  "latency_file": str(campaign / "coupled_latency.csv")}],
        "output_dir": str(tmp_path),
    }))
    assert main(["windows", "--config", str(cfg_path), "lonely"]) == 0
    assert "lonely: 0 joined windows" in capsys.readouterr().out
    assert (tmp_path / "lonely_windows.csv").read_text().count("\n") == 1


def test_windows_run_too_short(campaign, tmp_path, capsys):
    lat_path = tmp_path / "tiny.csv"
    canon.write_latency_csv(lat_path, latency_trace([
        LatencySample(t_s=0.0, seq=0, rtt_ms=9.0),
        LatencySample(t_s=0.2, seq=1, rtt_ms=9.1)]))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [{"run_id": "tiny", "latency_file": str(lat_path)}],
        "output_dir": str(tmp_path),
    }))
    assert main(["windows", "--config", str(cfg_path), "tiny"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "tiny_windows.csv").exists()


@pytest.mark.parametrize("stride", ["1e-6", "5e-324"])
def test_windows_grid_too_large_exits_1_without_allocating(
        campaign, tmp_path, capsys, stride):
    tracemalloc.start()
    try:
        code = main(["windows", "--config", _cfg(campaign),
                     "--output-dir", str(tmp_path), "coupled", "--stride-s", stride])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "width 10.0s" in err and f"stride {float(stride)}s" in err
    assert "windows over 600.0s; the limit is 1000000" in err
    assert peak < 32 * 2**20
    assert not (tmp_path / "coupled_windows.csv").exists()


@pytest.mark.parametrize("command", ["windows", "flags"])
def test_grid_count_of_a_huge_run_reads_in_g_form(campaign, tmp_path, capsys, command):
    # floor((1e300 - 10) / 5) + 1 windows: a 300-digit integer.
    config = json.loads((campaign / "campaign_config.json").read_text())
    run = config["runs"][0]
    for name in ("latency_file", "scheduler_file", "truth_file"):
        run[name] = str(campaign / run[name])
    run["nominal_duration_s"] = 1e300
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--output-dir", str(tmp_path),
                 "coupled"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err
    assert "make 2e+299 windows over 1e+300s; the limit is 1000000" in err
    assert not (tmp_path / f"coupled_{command}.csv").exists()


def test_flags(campaign, tmp_path, capsys):
    assert main(["flags", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled"]) == 0
    lines = (tmp_path / "coupled_flags.csv").read_text().splitlines()
    assert lines[0] == "start_s,raised,lat_evidence,sched_evidence,lat_p95_ms,bler_mean"
    assert len(lines) == 120
    raised = sum(int(line.split(",")[1]) for line in lines[1:])
    out = capsys.readouterr().out
    assert f"baseline: windows=119 flag_rate={report.fmt_rate(raised / 119)}" in out
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] in "01" and cells[2] in "01" and cells[3] in "01"


def test_flags_threshold_overrides(campaign, tmp_path, capsys):
    assert main(["flags", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled",
                 "--lat-threshold-ms", "100000", "--bler-threshold", "0.99"]) == 0
    assert "flag_rate=0.000" in capsys.readouterr().out


def test_phases(campaign, tmp_path, capsys):
    assert main(["phases", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled"]) == 0
    lines = (tmp_path / "coupled_phases.csv").read_text().splitlines()
    assert lines[0] == "phase,lat_p95_ms,exceed_100ms,bler_p95"
    assert lines[1].startswith("LOS,") and lines[2].startswith("People,")
    assert main(["phases", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path), "coupled",
                 "--split-s", "900"]) == 1  # beyond the 600 s run
    assert "error:" in capsys.readouterr().err


def test_phases_with_an_empty_phase_prints_one_error_naming_the_run(tmp_path, capsys):
    lat_path = tmp_path / "early.csv"
    canon.write_latency_csv(lat_path, latency_trace([
        LatencySample(t_s=i * 0.2, seq=i, rtt_ms=9.0) for i in range(50)]))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [{"run_id": "early", "latency_file": str(lat_path),
                  "nominal_duration_s": 60.0}],
        "output_dir": str(tmp_path),
    }))
    assert main(["phases", "--config", str(cfg_path), "early"]) == 1
    assert capsys.readouterr().err == \
        "error: run 'early': phase 'People' has no latency samples\n"
    assert not (tmp_path / "early_phases.csv").exists()


def _two_run_config(campaign, tmp_path):
    """The coupled campaign's run twice, as runs `a` and `b`."""
    run = json.loads((campaign / "campaign_config.json").read_text())["runs"][0]
    for name in ("latency_file", "scheduler_file", "truth_file"):
        run[name] = str(campaign / run[name])
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [dict(run, run_id="a"), dict(run, run_id="b")],
        "output_dir": str(tmp_path)}))
    return load_config(cfg_path)


def test_analysis_loads_and_windows_each_run_once(campaign, tmp_path, monkeypatch):
    loads, builds = Counter(), Counter()
    load_run, build_joined_windows = cli.load_run, cli.build_joined_windows

    def counted_load(cfg, rc):
        loads[rc.run_id] += 1
        return load_run(cfg, rc)

    def counted_build(run, spec):
        builds[run.meta.run_id] += 1
        return build_joined_windows(run, spec)

    monkeypatch.setattr(cli, "load_run", counted_load)
    monkeypatch.setattr(cli, "build_joined_windows", counted_build)
    an = cli.Analysis(_two_run_config(campaign, tmp_path))
    parser = cli.build_parser()
    for argv in (["summarize", "a"], ["summarize", "b"], ["compare", "a", "b"],
                 *([cmd, run_id] for run_id in "ab" for cmd in ("windows", "flags", "phases"))):
        assert cli.execute(an, tmp_path, parser.parse_args(argv)) == 0
    assert loads == {"a": 1, "b": 1}
    assert builds == {"a": 1, "b": 1}
    assert len(list(tmp_path.glob("*.csv"))) == 9


# ------------------------------------------------------------- CLI: ingest

@pytest.fixture()
def raw_dir(tmp_path):
    (tmp_path / "ping.log").write_text(
        "PING h (h) 30(58) bytes of data.\n"
        + "".join(f"64 bytes from h: icmp_seq={i} ttl=64 time={9 + i % 3}.1 ms\n"
                  for i in range(100))
        + "--- h ping statistics ---\n")
    (tmp_path / "full.csv").write_text(
        "rnti,dlsch_bler\n" + "".join(f"17,0.0{i % 2}\n" for i in range(20)))
    (tmp_path / "c.json").write_text(json.dumps({
        "column_map": {"rnti": "rnti", "dl_bler": "dlsch_bler"},
        "runs": [{"run_id": "raw1", "ue_type": "smartphone",
                  "packet_size_b": 30, "ping_log": "ping.log",
                  "fullstats": "full.csv"}],
        "output_dir": "out",
    }))
    return tmp_path


def test_ingest_normalizes_raw_logs(raw_dir, capsys):
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 0
    out = raw_dir / "out"
    meta, files = read_manifest(out / "raw1.manifest")
    assert meta.run_id == "raw1"
    assert meta.nominal_duration_s == pytest.approx(20.0)  # from sched span
    assert len(canon.read_latency_csv(files["latency_file"])) == 100
    assert len(canon.read_scheduler_csv(files["scheduler_file"])) == 20
    assert "raw1: 100 latency samples, 20 scheduler snapshots" in \
        capsys.readouterr().out


def test_ingest_rerun_byte_identical(raw_dir):
    assert main(["ingest", "--config", str(raw_dir / "c.json"), "raw1"]) == 0
    first = (raw_dir / "out" / "raw1_latency.csv").read_bytes()
    assert main(["ingest", "--config", str(raw_dir / "c.json"), "raw1"]) == 0
    assert (raw_dir / "out" / "raw1_latency.csv").read_bytes() == first


def test_ingested_run_feeds_analysis(raw_dir, capsys):
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 0
    cfg2 = raw_dir / "c2.json"
    cfg2.write_text(json.dumps({
        "runs": [{"run_id": "raw1", "latency_file": "out/raw1_latency.csv",
                  "scheduler_file": "out/raw1_sched.csv"}],
        "output_dir": "out",
    }))
    assert main(["summarize", "--config", str(cfg2), "raw1"]) == 0
    assert (raw_dir / "out" / "raw1_summary.csv").exists()


def test_ingest_counts_replies_no_canonical_file_can_hold(raw_dir, capsys):
    # An icmp_seq past int64, an rtt and an epoch of over 308 digits.
    with open(raw_dir / "ping.log", "a") as fh:
        fh.write("[1.2] 64 bytes from h: icmp_seq=99999999999999999999999 ttl=64 "
                 "time=5.0 ms\n")
        fh.write("64 bytes from h: icmp_seq=100 ttl=64 time=" + "9" * 400 + ".5 ms\n")
        fh.write("[" + "9" * 400 + "] 64 bytes from h: icmp_seq=101 ttl=64 time=5.0 ms\n")
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 0
    assert [int(n) for n in re.findall(r"ping line (\d+) unparseable",
                                       capsys.readouterr().err)] == \
        [103, 104, 105]
    cfg2 = raw_dir / "c2.json"
    cfg2.write_text(json.dumps({
        "runs": [{"run_id": "raw1", "latency_file": "out/raw1_latency.csv"}],
        "output_dir": "out"}))
    assert main(["summarize", "--config", str(cfg2), "raw1"]) == 0
    assert (raw_dir / "out" / "raw1_latency.csv.cols").exists()


def test_ingest_writes_nothing_when_a_later_run_fails(raw_dir, capsys):
    (raw_dir / "c.json").write_text(json.dumps({
        "column_map": {"rnti": "rnti", "dl_bler": "dlsch_bler"},
        "runs": [{"run_id": "a", "ping_log": "ping.log", "fullstats": "full.csv"},
                 {"run_id": "b", "ping_log": "missing.log"}],
        "output_dir": "out",
    }))
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "missing.log" in captured.err
    assert not (raw_dir / "out" / "a_latency.csv").exists()
    assert not (raw_dir / "out" / "a.manifest").exists()


@pytest.mark.parametrize("value", CONTROL[:2])
@pytest.mark.parametrize("key", ["ue_type", "scenario"])
def test_ingest_of_a_control_character_in_ue_type_or_scenario_writes_nothing(
        raw_dir, capsys, key, value):
    config = json.loads((raw_dir / "c.json").read_text())
    config["runs"][0][key] = value
    (raw_dir / "c.json").write_text(json.dumps(config))
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad runs[0]: {key} must hold no control character, "
                            f"got {value!r}\n")
    assert not (raw_dir / "out").exists()


@pytest.mark.parametrize("line", [1, 22], ids=["header", "row"])
def test_ingest_fullstats_cell_past_the_csv_field_limit_exits_1(raw_dir, capsys, line):
    # One cell longer than csv.field_size_limit(): the CSV reader refuses
    # the line instead of splitting it.
    full = raw_dir / "full.csv"
    rows = full.read_text().splitlines(keepends=True)     # a header and 20 rows
    rows.insert(line - 1, "17,0." + "0" * (csv.field_size_limit() + 8_928) + "\n")
    full.write_text("".join(rows))
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {full}:{line}: not CSV: field larger than "
                            f"field limit ({csv.field_size_limit()})\n")
    assert not (raw_dir / "out").exists()


@pytest.mark.parametrize("row, line, reason", [
    ('17,"0.1"2\n', 5, "',' expected after '\"'"),
    ('17,"0.3', 22, "unexpected end of data"),
], ids=["text_after_quote", "unterminated"])
def test_ingest_fullstats_with_malformed_quoting_exits_1(raw_dir, capsys, row, line, reason):
    full = raw_dir / "full.csv"
    rows = full.read_text().splitlines(keepends=True)     # a header and 20 rows
    rows.insert(line - 1, row)
    full.write_text("".join(rows))
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {full}:{line}: not CSV: {reason}\n"
    assert not (raw_dir / "out").exists()


# A raw log that yields no usable record, or a header without a mapped
# column: the file the error names, and its bytes.
UNUSABLE = {
    "ping_without_reply": ("ping.log", b"PING h (h) 30(58) bytes of data.\n--- h ---\n"),
    "empty_fullstats": ("full.csv", b""),
    "fullstats_header_only": ("full.csv", b"rnti,dlsch_bler\n\n  \n\n"),
}


@pytest.mark.parametrize("name,data", UNUSABLE.values(), ids=UNUSABLE.keys())
def test_ingest_of_an_unusable_raw_log_names_its_file(raw_dir, capsys, name, data):
    (raw_dir / name).write_bytes(data)
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {raw_dir / name}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("header", ["rnti,dlsch_bler", '"rnti",dlsch_bler'],
                         ids=["bare", "quoted"])
def test_ingest_drops_a_byte_order_mark_before_the_fullstats_header(raw_dir, header):
    # Spreadsheet exports often begin a CSV with a UTF-8 byte-order mark.
    full = raw_dir / "full.csv"
    rows = full.read_bytes().split(b"\n", 1)[1]

    def ingested(prefix: bytes) -> dict[str, bytes]:
        full.write_bytes(prefix + header.encode() + b"\n" + rows)
        assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 0
        return {p.name: p.read_bytes() for p in (raw_dir / "out").iterdir()}

    assert ingested(b"\xef\xbb\xbf") == ingested(b"")


# A time the parsers or consolidate_run derive past float64's range: the
# fullstats CSV (None: raw_dir's) and run entry that make it, and the
# layer the error names. Left to numpy, each overflows with a
# RuntimeWarning, to an infinity that a canonical CSV the reader refuses
# would hold, or (row index times period) to a skipped row.
OVERFLOWS = {
    "fullstats_rebase": ("t,rnti,dlsch_bler\n-1e308,17,0.05\n1e308,17,0.05\n",
                         {"column_map": {"t_s": "t", "rnti": "rnti", "dl_bler": "dlsch_bler"}},
                         "scheduler"),
    "ping_interval": (None, {"ping_interval_s": 1e308}, "latency"),
    "sched_offset": ("rnti,dlsch_bler\n17,0.05\n17,0.05\n",
                     {"sched_offset_s": 1.7e308, "stats_period_s": 1e308}, "scheduler"),
    "stats_period": (None, {"stats_period_s": 1e307}, "scheduler"),
}


@pytest.mark.parametrize("fullstats, run, layer", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_ingest_derived_time_that_overflows_exits_1(raw_dir, capsys, fullstats, run, layer):
    if fullstats is not None:
        (raw_dir / "full.csv").write_text(fullstats)
    config = json.loads((raw_dir / "c.json").read_text())
    config["runs"][0].update(nominal_duration_s=100.0, **run)
    (raw_dir / "c.json").write_text(json.dumps(config))
    assert main(["ingest", "--config", str(raw_dir / "c.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: run 'raw1': {layer} t_s overflows: [^\n]* is not finite\n",
                        captured.err), captured.err
    assert not (raw_dir / "out").exists()


def test_ingest_nothing_to_do(campaign, tmp_path, capsys):
    assert main(["ingest", "--config", _cfg(campaign),
                 "--output-dir", str(tmp_path)]) == 0
    assert "nothing to ingest" in capsys.readouterr().out


# ------------------------------------------------------------- CLI: errors

def test_missing_config_is_an_error(capsys):
    assert main(["summarize", "nope"]) == 1
    assert "requires --config" in capsys.readouterr().err


def test_unknown_run_id(campaign, capsys):
    assert main(["summarize", "--config", _cfg(campaign), "nope"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "coupled" in err


def test_missing_latency_file_no_partial_output(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [{"run_id": "ghost", "latency_file": "ghost.csv"}],
        "output_dir": str(tmp_path),
    }))
    assert main(["summarize", "--config", str(cfg_path), "ghost"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ghost_summary.csv").exists()


def test_run_without_sources(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [{"run_id": "void"}], "output_dir": str(tmp_path)}))
    assert main(["summarize", "--config", str(cfg_path), "void"]) == 1
    assert "no latency source" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row, reason", [
    ("0.4,2", "expected 3 fields, got 2"),          # a short row
    ("0.4,2,nan", "rtt_ms is not a number: 'nan'"),  # a NaN RTT
])
def test_malformed_canonical_row_exits_1_naming_file_and_line(
        tmp_path, capsys, bad_row, reason):
    lat = tmp_path / "bad_latency.csv"
    lat.write_text("t_s,seq,rtt_ms\n0.0,0,9.0\n0.2,1,9.1\n" + bad_row + "\n")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [{"run_id": "bad", "latency_file": str(lat)}],
        "output_dir": str(tmp_path),
    }))
    assert main(["summarize", "--config", str(cfg_path), "bad"]) == 1
    err = capsys.readouterr().err
    assert f"error: {lat}:4: {reason}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "bad_summary.csv").exists()


# Each input kind with a byte that is not UTF-8 (0xe9, Latin-1 'é') on
# its third line, and the run entry that reads it.
PING = b"PING h 30(58) bytes of data.\n64 bytes from h: icmp_seq=0 ttl=64 time=9.1 ms\n"
NON_UTF8 = {
    "latency_file": (b"t_s,seq,rtt_ms\n0.0,0,9.0\n0.2,1,9.\xe9\n", {}),
    "scheduler_file": (b"t_s,rnti,dl_bler,ul_bler,dl_mcs,ul_mcs,snr_db,rsrp_dbm,"
                       b"dl_retx,dl_total\n0.0,17,0.05,,,,,,,\n1.0,17,0.\xe9,,,,,,,\n",
                       {"latency_file": "good.csv"}),
    "ping_log": (PING + b"64 bytes from h: icmp_seq=1 ttl=64 time=9.\xe9 ms\n", {}),
    "fullstats": (b"rnti,dl_bler\n17,0.05\n17,0.\xe9\n", {"ping_log": "ping.log"}),
    "config": (b'{\n  "runs": [],\n  "output_dir": "\xe9"\n}\n', None),
}


@pytest.mark.parametrize("kind", NON_UTF8)
def test_non_utf8_input_exits_1_naming_file_and_line(tmp_path, capsys, kind):
    data, others = NON_UTF8[kind]
    (tmp_path / "good.csv").write_text("t_s,seq,rtt_ms\n0.0,0,9.0\n")
    (tmp_path / "ping.log").write_bytes(PING)
    bad = tmp_path / "bad_input"
    bad.write_bytes(data)
    cfg_path = bad
    if others is not None:
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"runs": [{"run_id": "r", kind: bad.name, **others}],
                                        "output_dir": "out"}))
    assert main(["summarize", "--config", str(cfg_path), "r"]) == 1
    assert capsys.readouterr().err == f"error: {bad}:3: not UTF-8 text: byte 0xe9\n"
    assert not (tmp_path / "out" / "r_summary.csv").exists()


# A bad config value or CLI override, the subcommand run with it, and
# the key the error must name. "run" patches the first run entry; any
# other section is merged into the config (runs, or a value that is no
# object: replaced in it).
BAD_INPUTS = {
    "outlier_ms_text": ({"thresholds": {"outlier_ms": "high"}}, [], "summarize", "outlier_ms"),
    "ping_interval_text": ({"run": {"ping_interval_s": "fast"}}, [], "summarize",
                           "ping_interval_s"),
    "exceed_infinite": ({"thresholds": {"exceed_ms": [math.inf]}}, [], "summarize",
                        "exceed_ms"),
    "exceed_nan": ({"thresholds": {"exceed_ms": [math.nan]}}, [], "summarize", "exceed_ms"),
    "exceed_scalar": ({"thresholds": {"exceed_ms": 100}}, [], "summarize", "exceed_ms"),
    "exceed_empty": ({"thresholds": {"exceed_ms": []}}, [], "phases", "exceed_ms"),
    "exceed_duplicate": ({"thresholds": {"exceed_ms": [100, 100.0, 1000]}}, [], "summarize",
                         "duplicate exceed_ms thresholds: [100.0]"),
    "width_nan": ({"window": {"width_s": math.nan}}, [], "windows", "width_s"),
    "width_flag_nan": ({}, ["--window-width-s", "nan"], "windows", "width_s"),
    "runs_object": ({"runs": {"a": 1}}, [], "summarize", "runs"),
    "runs_number": ({"runs": [5]}, [], "summarize", "runs[0]"),
    "latency_file_number": ({"run": {"latency_file": 5}}, [], "summarize", "latency_file"),
    "lat_threshold_nan": ({"policy": {"lat_p95_threshold_ms": math.nan}}, [], "flags",
                          "lat_p95_threshold_ms"),
    "lat_threshold_flag_nan": ({}, ["--lat-threshold-ms", "nan"], "flags",
                               "lat_p95_threshold_ms"),
    "sched_offset_nan": ({"run": {"sched_offset_s": math.nan}}, [], "windows",
                         "sched_offset_s"),
    "distance_nan": ({"run": {"distance_m": math.nan}}, [], "summarize", "distance_m"),
    "packet_size_fraction": ({"run": {"packet_size_b": 30.7}}, [], "summarize",
                             "packet_size_b"),
    "ping_interval_infinite": ({"run": {"ping_interval_s": math.inf}}, [], "summarize",
                               "ping_interval_s"),
    "min_latency_fraction": ({"window": {"min_latency_samples": 2.5}}, [], "windows",
                             "min_latency_samples"),
    "min_sched_bool": ({"window": {"min_sched_samples": True}}, [], "windows",
                       "min_sched_samples"),
    "stats_period_zero": ({"run": {"stats_period_s": 0}}, [], "summarize",
                          "stats_period_s must be > 0, got 0"),
    "outlier_ms_zero": ({"thresholds": {"outlier_ms": 0}}, [], "summarize",
                        "outlier_ms must be > 0, got 0"),
    "exceed_negative": ({"thresholds": {"exceed_ms": [100, -5]}}, [], "summarize",
                        "exceed_ms must be > 0, got -5"),
    "thresholds_list": ({"thresholds": [100]}, [], "summarize",
                        "thresholds must be an object"),
    "ue_type_empty": ({"run": {"ue_type": ""}}, [], "summarize", "ue_type"),
    "scenario_empty": ({"run": {"scenario": ""}}, [], "summarize", "scenario"),
    "packet_size_huge": ({"run": {"packet_size_b": 10**400}}, [], "summarize",
                         "packet_size_b must be an integer"),
}


@pytest.mark.parametrize("patch, args, command, key", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_config_or_cli_value_exits_1_naming_the_key(
        campaign, tmp_path, capsys, patch, args, command, key):
    config = json.loads((campaign / "campaign_config.json").read_text())
    run = config["runs"][0]
    for name in ("latency_file", "scheduler_file", "truth_file"):
        run[name] = str(campaign / run[name])
    config["output_dir"] = str(tmp_path / "out")
    for section, values in patch.items():
        if section == "run":
            run.update(values)
        elif section == "runs" or not isinstance(values, dict):
            config[section] = values
        else:
            config.setdefault(section, {}).update(values)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))   # NaN and Infinity as JS literals
    assert main([command, "--config", str(cfg_path), "coupled", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err
    assert not (tmp_path / "out").exists()


# A config value no file name can hold: the run entry's and the config's
# keys, and the key the error must name.
BAD_NAMES = {
    "latency_file_nul": ({"latency_file": "lat\0.csv"}, {}, "latency_file"),
    "output_dir_nul": ({}, {"output_dir": "o\0x"}, "output_dir"),
    "run_id_nul": ({"run_id": "a\0b"}, {}, "run_id"),
    "run_id_parent": ({"run_id": "../esc"}, {}, "run_id"),
    "run_id_newline": ({"run_id": "x\ny"}, {}, "run_id"),
    "run_id_comma": ({"run_id": "a,b"}, {}, "run_id"),
}


@pytest.mark.parametrize("run_patch, top_patch, key", BAD_NAMES.values(), ids=BAD_NAMES.keys())
def test_a_name_no_file_can_take_exits_1_writing_nothing(
        campaign, tmp_path, capsys, run_patch, top_patch, key):
    config = json.loads((campaign / "campaign_config.json").read_text())
    run = config["runs"][0]
    for name in ("latency_file", "scheduler_file", "truth_file"):
        run[name] = str(campaign / run[name])
    run.update(run_patch)
    config.update(top_patch)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "o" / "sub"
    assert main(["summarize", "--config", str(cfg_path), "--output-dir", str(out),
                 run["run_id"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err
    assert [p.name for p in tmp_path.rglob("*")] == ["c.json"]


# ------------------------------------------------------- CLI: the program

ROOT = Path(__file__).resolve().parents[1]

# `python -m taildiag ARGS...` as perfbench/tracechild.py runs it, with
# an atexit hook, registered first so that it runs last, that writes the
# collector's freeze count to the file named by the first argument.
PROGRAM = ("import atexit, gc, runpy, sys\n"
           "path = sys.argv.pop(1)\n"
           "atexit.register(lambda: open(path, 'w').write(str(gc.get_freeze_count())))\n"
           "runpy.run_module('taildiag', run_name='__main__', alter_sys=True)\n")


def _program(tmp_path, argv, stdout=subprocess.PIPE, unbuffered=False):
    """The exit status, stdout and stderr bytes, and freeze count at exit
    of `python -m taildiag argv` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    count = tmp_path / "freeze_count"
    done = subprocess.run([sys.executable, "-c", PROGRAM, str(count), *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env)
    return done.returncode, done.stdout, done.stderr, int(count.read_text())


def _status(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args, status", [
    (["summarize", "coupled"], 0), (["summarize", "nope"], 1), ([], 2),
], ids=["written", "toolkit_error", "usage_error"])
def test_program_prints_and_exits_as_main_does_then_freezes(
        campaign, tmp_path, capsys, args, status):
    argv = [*args[:1], "--config", _cfg(campaign), "--output-dir", str(tmp_path / "out"),
            *args[1:]] if args else []
    frozen = gc.get_freeze_count()
    assert _status(argv) == status
    assert gc.get_freeze_count() == frozen
    printed = capsys.readouterr()
    *ran, count = _program(tmp_path, argv)
    assert ran == [status, printed.out.encode(), printed.err.encode()]
    assert count > 0


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_program_with_stdout_closed_exits_1_with_one_error_line(campaign, tmp_path, unbuffered):
    # Left to the interpreter's flush at exit, a buffered stdout whose
    # reader has gone ends in exit status 120 and a two-line "Exception
    # ignored" text, where an unbuffered one fails inside the command.
    out = tmp_path / "out"
    read, write = os.pipe()
    os.close(read)
    try:
        status, _, err, count = _program(
            tmp_path, ["summarize", "--config", _cfg(campaign), "--output-dir", str(out),
                       "coupled"], stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    assert (status, err) == (1, b"error: [Errno 32] Broken pipe\n")
    assert count > 0
    assert (out / "coupled_summary.csv").exists()


def test_console_script_is_the_function_python_m_taildiag_calls():
    script = re.search(r'^\[project\.scripts\]\ntaildiag = "taildiag\.(\w+):(\w+)"$',
                       (ROOT / "pyproject.toml").read_text(), re.M)
    entry = (ROOT / "src" / "taildiag" / "__main__.py").read_text()
    assert re.fullmatch(r"from \.(\w+) import (\w+)\n\n\2\(\)\n", entry).groups() == (
        script.groups())


def test_traced_program_records_a_cli_main_span(campaign, tmp_path):
    # perfbench's tracer rebinds `cli.main` by name, so the program entry
    # must look `main` up when it is called.
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracechild.py"), str(spans),
         "-m", "taildiag", "summarize", "--config", _cfg(campaign),
         "--output-dir", str(tmp_path / "out"), "coupled"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    names = [span[2] for span in json.loads(spans.read_text())["spans"]]
    assert names.count("cli.main") == 1


# ------------------------------------------------------------ paperlike demo

SCRIPT = ROOT / "scripts" / "run_paperlike.py"


def test_paperlike_demo_prints_what_each_cli_step_prints(tmp_path, monkeypatch, capsys):
    # The demo runs its analysis steps over one shared Analysis;
    # replaying each `$ taildiag` line it prints through main() into a
    # second directory must print the same, step by step, and write the
    # same files.
    demo, replay = tmp_path / "demo", tmp_path / "replay"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--output-dir", str(demo)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    printed = capsys.readouterr().out.replace(str(demo), str(replay))
    steps = printed.split("$ taildiag ")[1:]
    assert [s.split(" ", 1)[0] for s in steps] == [
        "synth", *["summarize"] * 4, "compare", *["windows", "flags"] * 4, "phases"]
    assert steps[-1].endswith(f"\nall outputs under {replay}/\n")
    steps[-1] = steps[-1].removesuffix(f"all outputs under {replay}/\n")
    for step in steps:
        line = step.split("\n", 1)[0]
        assert main(line.split(" ")) == 0
        assert step == f"{line}\n{capsys.readouterr().out}\n"
    names = sorted(p.name for p in demo.iterdir())
    assert len(names) == 40 and sum(n.endswith(".cols") for n in names) == 8
    assert sorted(p.name for p in replay.iterdir()) == names
    for name in names:
        assert (replay / name).read_bytes() == (demo / name).read_bytes(), name
