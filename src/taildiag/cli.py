"""Command-line driver: batch pipeline over a declarative JSON config.

Data goes to files in the output directory (written atomically),
warnings go to stderr, stdout carries short human-readable summaries.
Exit status is 0 exactly when every requested output file was written.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import canon, report, stats, synthgen
from .config import (
    DEFAULT_COLUMN_MAP,
    CampaignConfig,
    RunConfig,
    load_config,
)
from .errors import InvalidSpecError, ToolkitError
from .flags import (
    compare_phases,
    coupling_report,
    evaluate_flags,
    flag_rate,
)
from .ingest import (
    Run,
    RunMetadata,
    consolidate_run,
    parse_fullstats,
    parse_ping_log,
)
from .windows import build_joined_windows

log = logging.getLogger(__name__)


def _provisional_meta(rc: RunConfig) -> RunMetadata:
    # parser-facing metadata; the duration is fixed up after parsing
    return RunMetadata(
        run_id=rc.run_id, ue_type=rc.ue_type, distance_m=rc.distance_m,
        packet_size_b=rc.packet_size_b, scenario=rc.scenario,
        nominal_duration_s=rc.nominal_duration_s or 1.0,
        ping_interval_s=rc.ping_interval_s)


def load_run(cfg: CampaignConfig, rc: RunConfig) -> Run:
    """Materialize one run: canonical files win over raw logs; the
    nominal duration, when not configured, is taken from the data."""
    meta = _provisional_meta(rc)
    if rc.latency_file:
        latency = canon.read_latency_csv(rc.latency_file)
    elif rc.ping_log:
        with open(rc.ping_log, encoding="utf-8") as fh:
            latency = parse_ping_log(fh, meta).samples
    else:
        raise InvalidSpecError(
            f"run {rc.run_id!r} names no latency source "
            "(latency_file or ping_log)")
    snapshots = []
    if rc.scheduler_file:
        snapshots = canon.read_scheduler_csv(rc.scheduler_file)
    elif rc.fullstats:
        cmap = rc.column_map or cfg.column_map or DEFAULT_COLUMN_MAP
        with open(rc.fullstats, encoding="utf-8") as fh:
            snapshots = parse_fullstats(
                fh, cmap, meta, stats_period_s=rc.stats_period_s).snapshots
    nominal = rc.nominal_duration_s
    if nominal is None:
        nominal = max(s.t_s for s in latency) + rc.ping_interval_s
        if snapshots:
            nominal = max(nominal, max(s.t_s for s in snapshots) + rc.stats_period_s)
    meta = replace(meta, nominal_duration_s=nominal)
    return consolidate_run(latency, snapshots, meta,
                           sched_offset_s=rc.sched_offset_s)


def cmd_ingest(cfg: CampaignConfig, out_dir: Path, run_ids: list[str]) -> int:
    """Normalize the named runs (default: every run with a raw source)
    into canonical files plus a manifest under the output directory."""
    if run_ids:
        targets = [cfg.run(r) for r in run_ids]
    else:
        targets = [r for r in cfg.runs if r.ping_log or r.fullstats]
    if not targets:
        print("nothing to ingest: no runs with raw sources in config")
        return 0
    for rc in targets:
        run = load_run(cfg, rc)
        files = {"latency_file": f"{rc.run_id}_latency.csv"}
        canon.write_latency_csv(out_dir / files["latency_file"], run.latency)
        if run.scheduler:
            files["scheduler_file"] = f"{rc.run_id}_sched.csv"
            canon.write_scheduler_csv(out_dir / files["scheduler_file"],
                                      run.scheduler)
        manifest = out_dir / f"{rc.run_id}.manifest"
        canon.write_manifest(manifest, run.meta, files)
        print(f"{rc.run_id}: {len(run.latency)} latency samples, "
              f"{len(run.scheduler)} scheduler snapshots -> {manifest}")
    return 0


def cmd_summarize(cfg: CampaignConfig, out_dir: Path, run_id: str) -> int:
    run = load_run(cfg, cfg.run(run_id))
    rtts = [s.rtt_ms for s in run.latency]
    summary = stats.summary_stats(rtts, outlier_threshold_ms=cfg.outlier_ms)
    exceed_cols = [(t, stats.exceedance_prob(rtts, t))
                   for t in cfg.exceed_thresholds_ms]
    sched = report.scheduler_summary(run.scheduler)
    text = report.summary_table(run.meta, summary, sched, exceed_cols)
    path = out_dir / f"{run_id}_summary.csv"
    canon.atomic_write_text(path, text)
    print(text, end="")
    return 0


def cmd_compare(cfg: CampaignConfig, out_dir: Path,
                run_a: str, run_b: str) -> int:
    a = load_run(cfg, cfg.run(run_a))
    b = load_run(cfg, cfg.run(run_b))
    if a.meta.packet_size_b != b.meta.packet_size_b:
        log.warning("packet sizes differ: %s has %d B, %s has %d B",
                    run_a, a.meta.packet_size_b, run_b, b.meta.packet_size_b)
    rtts_a = [s.rtt_ms for s in a.latency]
    rtts_b = [s.rtt_ms for s in b.latency]
    ks = stats.ks_two_sample(rtts_a, rtts_b)
    text = report.compare_table(a.meta.packet_size_b, ks,
                                stats.percentile(rtts_a, 0.95),
                                stats.percentile(rtts_b, 0.95))
    canon.atomic_write_text(out_dir / f"compare_{run_a}_vs_{run_b}.csv", text)
    print(text, end="")
    return 0


def cmd_windows(cfg: CampaignConfig, out_dir: Path, run_id: str) -> int:
    run = load_run(cfg, cfg.run(run_id))
    joined = build_joined_windows(run, cfg.window)
    canon.atomic_write_text(out_dir / f"{run_id}_windows.csv",
                            report.windows_table(joined))
    print(f"{run_id}: {len(joined)} joined windows")
    if joined:
        print(report.coupling_line(coupling_report(joined)))
    return 0


def cmd_flags(cfg: CampaignConfig, out_dir: Path, run_id: str) -> int:
    run = load_run(cfg, cfg.run(run_id))
    joined = build_joined_windows(run, cfg.window)
    flags = evaluate_flags(joined, cfg.policy)
    canon.atomic_write_text(out_dir / f"{run_id}_flags.csv",
                            report.flags_table(flags))
    if flags:
        print(report.flag_rate_line(run.meta.scenario, len(flags),
                                    flag_rate(flags)))
    else:
        print(f"{run.meta.scenario}: 0 joined windows, no flags evaluated")
    return 0


def cmd_phases(cfg: CampaignConfig, out_dir: Path, run_id: str,
               split_s: float | None) -> int:
    run = load_run(cfg, cfg.run(run_id))
    threshold = cfg.exceed_thresholds_ms[0]
    rows = compare_phases(run, split_s, exceed_threshold_ms=threshold)
    text = report.phases_table(rows, threshold)
    canon.atomic_write_text(out_dir / f"{run_id}_phases.csv", text)
    print(text, end="")
    return 0


def cmd_synth(out_dir: Path, preset: str, seed: int | None) -> int:
    presets = synthgen.presets_by_name(
        preset, synthgen.DEFAULT_SEED if seed is None else seed)
    generated = synthgen.gen_campaign(presets, out_dir)
    for g in generated:
        print(g.manifest_path)
    print(f"{preset}: {len(generated)} runs -> {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="campaign config JSON")
    common.add_argument("--output-dir", metavar="PATH",
                        help="where to write outputs (default: config output_dir)")
    tune = argparse.ArgumentParser(add_help=False)
    tune.add_argument("--window-width-s", type=float, metavar="S")
    tune.add_argument("--stride-s", type=float, metavar="S")
    tune.add_argument("--lat-threshold-ms", type=float, metavar="MS")
    tune.add_argument("--bler-threshold", type=float, metavar="FRAC")

    p = argparse.ArgumentParser(
        prog="taildiag",
        description="Tail-aware diagnostics over latency and gNB scheduler logs")
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("ingest", parents=[common],
                        help="normalize raw logs into canonical files")
    sp.add_argument("run_ids", nargs="*", metavar="RUN_ID")
    sp = sub.add_parser("summarize", parents=[common, tune],
                        help="per-run latency and scheduler summary row")
    sp.add_argument("run_id")
    sp = sub.add_parser("compare", parents=[common, tune],
                        help="two-sample KS comparison of two runs")
    sp.add_argument("run_a")
    sp.add_argument("run_b")
    sp = sub.add_parser("windows", parents=[common, tune],
                        help="joined windowed table plus coupling report")
    sp.add_argument("run_id")
    sp = sub.add_parser("flags", parents=[common, tune],
                        help="degradation flag timeline and flag rate")
    sp.add_argument("run_id")
    sp = sub.add_parser("phases", parents=[common, tune],
                        help="phase-wise comparison around a split point")
    sp.add_argument("run_id")
    sp.add_argument("--split-s", type=float, metavar="S",
                    help="split time (default: half the nominal duration)")
    sp = sub.add_parser("synth", parents=[common],
                        help="generate a synthetic campaign from a preset")
    sp.add_argument("preset")
    sp.add_argument("--seed", type=int, metavar="U64")
    return p


def _campaign(args: argparse.Namespace, required: bool = True) -> CampaignConfig:
    if args.config:
        cfg = load_config(args.config)
    elif required:
        raise InvalidSpecError(f"{args.command} requires --config")
    else:
        cfg = CampaignConfig()
    window = cfg.window
    if getattr(args, "window_width_s", None) is not None:
        window = replace(window, width_s=args.window_width_s)
    if getattr(args, "stride_s", None) is not None:
        window = replace(window, stride_s=args.stride_s)
    policy = cfg.policy
    if getattr(args, "lat_threshold_ms", None) is not None:
        policy = replace(policy, lat_p95_threshold_ms=args.lat_threshold_ms)
    if getattr(args, "bler_threshold", None) is not None:
        policy = replace(policy, bler_mean_threshold=args.bler_threshold)
    if window is not cfg.window or policy is not cfg.policy:
        cfg = replace(cfg, window=window, policy=policy)
    return cfg


def _out_dir(args: argparse.Namespace, cfg: CampaignConfig) -> Path:
    out = Path(args.output_dir) if args.output_dir else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            cfg = _campaign(args, required=False)
            return cmd_synth(_out_dir(args, cfg), args.preset, args.seed)
        cfg = _campaign(args)
        out = _out_dir(args, cfg)
        if args.command == "ingest":
            return cmd_ingest(cfg, out, args.run_ids)
        if args.command == "summarize":
            return cmd_summarize(cfg, out, args.run_id)
        if args.command == "compare":
            return cmd_compare(cfg, out, args.run_a, args.run_b)
        if args.command == "windows":
            return cmd_windows(cfg, out, args.run_id)
        if args.command == "flags":
            return cmd_flags(cfg, out, args.run_id)
        if args.command == "phases":
            return cmd_phases(cfg, out, args.run_id, args.split_s)
        raise InvalidSpecError(f"unhandled command {args.command!r}")
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
