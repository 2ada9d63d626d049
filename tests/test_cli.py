"""Formatting, config loading, and end-to-end CLI coverage."""

import json
import logging

import pytest

from taildiag import canon, report
from taildiag.cli import main
from taildiag.config import load_config
from taildiag.errors import InvalidSpecError
from taildiag.flags import CouplingReport
from taildiag.ingest import LatencySample

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


def test_load_config_bad_json(tmp_path):
    (tmp_path / "c.json").write_text("{not json")
    with pytest.raises(InvalidSpecError):
        load_config(tmp_path / "c.json")


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


def test_synth_paperlike_run_ids(tmp_path, capsys):
    assert main(["synth", "paperlike", "--output-dir", str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.glob("*.manifest")}
    assert names == {"baseline.manifest", "baseline_modem.manifest",
                     "dynamic_people.manifest", "static_1h.manifest",
                     "campaign.manifest"}


# ---------------------------------------------------------- CLI: analysis

def _cfg(campaign):
    return str(campaign / "campaign_config.json")


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


def test_compare_packet_mismatch_warns(campaign, tmp_path, caplog):
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
    with caplog.at_level(logging.WARNING):
        assert main(["compare", "--config", str(cfg_path), "small", "big"]) == 0
    assert "packet sizes differ" in caplog.text
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
    canon.write_latency_csv(lat_path, [
        LatencySample(t_s=0.0, seq=0, rtt_ms=9.0),
        LatencySample(t_s=0.2, seq=1, rtt_ms=9.1)])
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "runs": [{"run_id": "tiny", "latency_file": str(lat_path)}],
        "output_dir": str(tmp_path),
    }))
    assert main(["windows", "--config", str(cfg_path), "tiny"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "tiny_windows.csv").exists()


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
    meta, files = canon.read_manifest(out / "raw1.manifest")
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
