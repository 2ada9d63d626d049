"""Command-line driver: batch pipeline over a declarative JSON config.

One Analysis holds the campaign config and the runs and window tables
computed from it; each run is loaded, and windowed, at most once for
the life of the object. `execute` runs one parsed command over an
Analysis: `ingest`, or an analysis command's renderer, whose one file
it writes before printing. `main` builds one Analysis per invocation.

Data goes to files in the output directory (written atomically),
stdout carries short human-readable summaries, and stderr carries
`WARNING: <message>` lines from errors.warn (one per malformed ping
line or skipped fullstats row, uncapped) and, for a failing command,
one `error: <message>` line. No command imports the standard
library's log package. Exit status is 0 exactly when every requested
output file was written and, run as a program (`program`), its
summary reached stdout: a stdout whose reader has gone is one
`error:` line and exit status 1.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from . import canon, report, stats
from .config import (
    DEFAULT_COLUMN_MAP,
    CampaignConfig,
    RunConfig,
    load_config,
)
from .errors import InvalidSpecError, ToolkitError, warn
from .flags import (
    compare_phases,
    coupling_report,
    evaluate_flags,
    flag_rate,
)
from .model import Run, consolidate_run
from .windows import WindowTable, build_joined_windows


def load_run(cfg: CampaignConfig, rc: RunConfig) -> Run:
    """Materialize one run: canonical files win over raw logs; the
    nominal duration, when not configured, is taken from the data. An
    InvalidSpecError while reading the run (a derived time that
    overflows, say) names the run. The canonical latency file is read
    first, then the raw logs of the layers without a canonical file, in
    one call to the raw reader (`ingest.parse_raw_logs`), then the
    canonical scheduler file; only a raw source loads `ingest`."""
    meta = rc.metadata()
    if not (rc.latency_file or rc.ping_log):
        raise InvalidSpecError(
            f"run {rc.run_id!r} names no latency source "
            "(latency_file or ping_log)")
    cmap = rc.column_map or cfg.column_map or DEFAULT_COLUMN_MAP
    try:
        latency = snapshots = None
        if rc.latency_file:
            latency = canon.read_latency_csv(rc.latency_file)
        raw = (None if rc.latency_file else rc.ping_log,
               None if rc.scheduler_file else rc.fullstats)
        if any(raw):
            from . import ingest
            ping, stats = ingest.parse_raw_logs(
                *(ingest.RawLog(log) if log else None for log in raw), cmap, meta,
                stats_period_s=rc.stats_period_s)
            latency = ping.samples if ping else latency
            snapshots = stats.snapshots if stats else None
        if rc.scheduler_file:
            snapshots = canon.read_scheduler_csv(rc.scheduler_file)
        nominal = rc.nominal_duration_s
        if nominal is None:
            nominal = float(latency.t_s.max()) + rc.ping_interval_s
            if snapshots is not None:
                nominal = max(nominal, float(snapshots.t_s.max()) + rc.stats_period_s)
        meta = replace(meta, nominal_duration_s=nominal)
        return consolidate_run(latency, snapshots, meta,
                               sched_offset_s=rc.sched_offset_s)
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"run {rc.run_id!r}: {exc}") from None


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
    leaves no output behind, not even the output directory."""
    targets = run_ids or [r.run_id for r in an.cfg.runs if r.ping_log or r.fullstats]
    if not targets:
        print("nothing to ingest: no runs with raw sources in config")
        return 0
    runs = [an.run(run_id) for run_id in targets]
    out_dir.mkdir(parents=True, exist_ok=True)
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
        warn(f"packet sizes differ: {args.run_a} has {a.meta.packet_size_b} B, "
             f"{args.run_b} has {b.meta.packet_size_b} B")
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
    its summary is printed. out_dir is created just before the first
    file is written, so a command that fails before then leaves none."""
    if args.command == "ingest":
        return _ingest(an, out_dir, args.run_ids)
    name, text, printed = _RENDERERS[args.command](an, args)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    return Path(args.output_dir) if args.output_dir else Path(cfg.output_dir)


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
    return guarded(_dispatch, build_parser().parse_args(argv))


def program() -> NoReturn:
    """Run `main` on sys.argv and end the process with its status (or
    argparse's): the entry of `python -m taildiag` and of the console
    script. stdout is flushed first; if its reader has gone, a command
    that has not failed already prints one `error:` line and exits 1."""
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        # What is left in the buffer goes to os.devnull, so that the
        # interpreter's own flush at exit fails no second time (Python's
        # signal docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not status:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    # Finalization runs full collections over every object still alive,
    # ~22k after numpy and taildiag load: 26-39 ms of each 24 h command,
    # from the last atexit handler to the launcher's wait4. Frozen, they
    # are not scanned, and that teardown takes 7-12 ms; atexit handlers,
    # the flush of stdout and stderr and module teardown still run.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    program()
