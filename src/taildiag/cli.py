"""Command-line driver: batch pipeline over a declarative JSON config.

One Analysis holds the campaign config and the runs and window tables
computed from it; each run is loaded, and windowed, at most once for
the life of the object. `execute` runs one parsed command over an
Analysis: `ingest`, or an analysis command's renderer, whose one file
it writes before printing. `main` builds one Analysis per invocation.

Data goes to files in the output directory (written atomically),
warnings go to stderr, stdout carries short human-readable summaries.
Exit status is 0 exactly when every requested output file was written.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

from . import canon, report, stats
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
from .chunks import RawLog
from .ingest import Run, consolidate_run, parse_fullstats, parse_ping_log
from .windows import WindowTable, build_joined_windows

log = logging.getLogger(__name__)


def load_run(cfg: CampaignConfig, rc: RunConfig) -> Run:
    """Materialize one run: canonical files win over raw logs; the
    nominal duration, when not configured, is taken from the data."""
    meta = rc.metadata()
    if rc.latency_file:
        latency = canon.read_latency_csv(rc.latency_file)
    elif rc.ping_log:
        latency = parse_ping_log(RawLog(rc.ping_log), meta).samples
    else:
        raise InvalidSpecError(
            f"run {rc.run_id!r} names no latency source "
            "(latency_file or ping_log)")
    snapshots = None
    if rc.scheduler_file:
        snapshots = canon.read_scheduler_csv(rc.scheduler_file)
    elif rc.fullstats:
        cmap = rc.column_map or cfg.column_map or DEFAULT_COLUMN_MAP
        snapshots = parse_fullstats(RawLog(rc.fullstats), cmap, meta,
                                    stats_period_s=rc.stats_period_s).snapshots
    nominal = rc.nominal_duration_s
    if nominal is None:
        nominal = float(latency.t_s.max()) + rc.ping_interval_s
        if snapshots is not None:
            nominal = max(nominal, float(snapshots.t_s.max()) + rc.stats_period_s)
    meta = replace(meta, nominal_duration_s=nominal)
    return consolidate_run(latency, snapshots, meta,
                           sched_offset_s=rc.sched_offset_s)


class Analysis:
    """A campaign config and what is computed from it: each run through
    `load_run`, and its window table through `build_joined_windows` with
    the config's window spec, each at most once for the life of the
    object."""

    def __init__(self, cfg: CampaignConfig) -> None:
        self.cfg = cfg
        self._runs: dict[str, Run] = {}
        self._windows: dict[str, WindowTable] = {}

    def run(self, run_id: str) -> Run:
        if run_id not in self._runs:
            self._runs[run_id] = load_run(self.cfg, self.cfg.run(run_id))
        return self._runs[run_id]

    def windows(self, run_id: str) -> WindowTable:
        if run_id not in self._windows:
            self._windows[run_id] = build_joined_windows(self.run(run_id),
                                                         self.cfg.window)
        return self._windows[run_id]


def _ingest(an: Analysis, out_dir: Path, run_ids: list[str]) -> int:
    """Normalize the named runs (default: every run with a raw source)
    into canonical files plus a manifest under the output directory.
    Every target is loaded before any file is written, so a bad source
    leaves no output behind."""
    targets = run_ids or [r.run_id for r in an.cfg.runs if r.ping_log or r.fullstats]
    if not targets:
        print("nothing to ingest: no runs with raw sources in config")
        return 0
    runs = [an.run(run_id) for run_id in targets]
    for run_id, run in zip(targets, runs):
        manifest, _ = canon.write_run(out_dir, run)
        print(f"{run_id}: {len(run.latency)} latency samples, "
              f"{len(run.scheduler)} scheduler snapshots -> {manifest}")
    return 0


def _summarize(an: Analysis, args: argparse.Namespace) -> tuple[str, str, str]:
    cfg, run = an.cfg, an.run(args.run_id)
    rtts = run.latency.rtt_ms
    summary = stats.summary_stats(rtts, outlier_threshold_ms=cfg.outlier_ms)
    exceed_cols = [(t, stats.exceedance_prob(rtts, t))
                   for t in cfg.exceed_thresholds_ms]
    sched = report.scheduler_summary(run.scheduler)
    text = report.summary_table(run.meta, summary, sched, exceed_cols)
    return f"{args.run_id}_summary.csv", text, text


def _compare(an: Analysis, args: argparse.Namespace) -> tuple[str, str, str]:
    a, b = an.run(args.run_a), an.run(args.run_b)
    if a.meta.packet_size_b != b.meta.packet_size_b:
        log.warning("packet sizes differ: %s has %d B, %s has %d B",
                    args.run_a, a.meta.packet_size_b, args.run_b, b.meta.packet_size_b)
    rtts_a, rtts_b = a.latency.rtt_ms, b.latency.rtt_ms
    ks = stats.ks_two_sample(rtts_a, rtts_b)
    text = report.compare_table(a.meta.packet_size_b, ks,
                                stats.percentile(rtts_a, 0.95),
                                stats.percentile(rtts_b, 0.95))
    return f"compare_{args.run_a}_vs_{args.run_b}.csv", text, text


def _windows(an: Analysis, args: argparse.Namespace) -> tuple[str, str, str]:
    joined = an.windows(args.run_id)
    printed = f"{args.run_id}: {len(joined)} joined windows\n"
    if joined:
        printed += report.coupling_line(coupling_report(joined)) + "\n"
    return f"{args.run_id}_windows.csv", report.windows_table(joined), printed


def _flags(an: Analysis, args: argparse.Namespace) -> tuple[str, str, str]:
    flags = evaluate_flags(an.windows(args.run_id), an.cfg.policy)
    scenario = an.run(args.run_id).meta.scenario
    printed = (report.flag_rate_line(scenario, len(flags), flag_rate(flags)) if flags
               else f"{scenario}: 0 joined windows, no flags evaluated")
    return f"{args.run_id}_flags.csv", report.flags_table(flags), printed + "\n"


def _phases(an: Analysis, args: argparse.Namespace) -> tuple[str, str, str]:
    threshold = an.cfg.exceed_thresholds_ms[0]
    rows = compare_phases(an.run(args.run_id), args.split_s,
                          exceed_threshold_ms=threshold)
    text = report.phases_table(rows, threshold)
    return f"{args.run_id}_phases.csv", text, text


# Each analysis command's renderer: from an Analysis and the parsed
# arguments, the output file name, the file text and the printed text.
# It writes and prints nothing; `execute` does both.
_RENDERERS = {
    "summarize": _summarize, "compare": _compare, "windows": _windows,
    "flags": _flags, "phases": _phases,
}


def execute(an: Analysis, out_dir: Path, args: argparse.Namespace) -> int:
    """Run the parsed command args over an: ingest, or an analysis
    command, whose one file is written atomically under out_dir before
    its summary is printed."""
    if args.command == "ingest":
        return _ingest(an, out_dir, args.run_ids)
    name, text, printed = _RENDERERS[args.command](an, args)
    canon.atomic_write_text(out_dir / name, text)
    print(printed, end="")
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
    window = {"width_s": getattr(args, "window_width_s", None),
              "stride_s": getattr(args, "stride_s", None)}
    policy = {"lat_p95_threshold_ms": getattr(args, "lat_threshold_ms", None),
              "bler_mean_threshold": getattr(args, "bler_threshold", None)}
    window, policy = ({k: v for k, v in d.items() if v is not None} for d in (window, policy))
    if window or policy:
        # One replace per spec: a width and a stride are checked together.
        cfg = replace(cfg, window=replace(cfg.window, **window),
                      policy=replace(cfg.policy, **policy))
    return cfg


def _out_dir(args: argparse.Namespace, cfg: CampaignConfig) -> Path:
    out = Path(args.output_dir) if args.output_dir else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def guarded(render: Callable[..., int], *args) -> int:
    """render(*args)'s exit status; a ToolkitError or OSError is printed
    as one `error:` line on stderr and gives exit status 1."""
    try:
        return render(*args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "synth":
        from . import synthgen     # only synth needs it: other commands skip the import
        out_dir = _out_dir(args, _campaign(args, required=False))
        seed = synthgen.DEFAULT_SEED if args.seed is None else args.seed
        generated = synthgen.gen_campaign(synthgen.presets_by_name(args.preset, seed), out_dir)
        for g in generated:
            print(g.manifest_path)
        print(f"{args.preset}: {len(generated)} runs -> {out_dir}")
        return 0
    an = Analysis(_campaign(args))
    return execute(an, _out_dir(args, an.cfg), args)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    return guarded(_dispatch, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
