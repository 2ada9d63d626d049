"""Spans and record counts around calls into taildiag's layers.

The program is not changed: `Tracer.install` replaces each public
function listed in LAYERS with a timing wrapper, under every name that a
taildiag module binds it to (so `from .flags import evaluate_flags` in
cli.py is caught as well as `stats.percentile` looked up through the
module). `uninstall` puts the originals back.

A span is the tuple (id, parent, name, start_ns, end_ns, cmd): ids are
unique within one process, parent is 0 for a root span, and every span
below one root (one `cli.main` call, or one call made straight from the
benchmark) carries that root's id as its command id. Spans stay in
memory until `dump` writes them once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Public functions timed as spans, by taildiag module. A span is named
# "<module>.<function>".
LAYERS = {
    "cli": ("main", "load_run"),
    "config": ("load_config",),
    "canon": ("read_latency_csv", "read_scheduler_csv", "write_latency_csv",
              "write_scheduler_csv", "atomic_write_text"),
    "ingest": ("parse_ping_log", "parse_fullstats", "consolidate_run"),
    "synthgen": ("gen_latency_trace", "gen_sched_trace", "gen_campaign"),
    "windows": ("build_joined_windows", "split_phases"),
    "stats": ("percentile", "spearman_rho", "ks_two_sample", "summary_stats"),
    "flags": ("evaluate_flags", "coupling_report", "compare_phases"),
    "report": ("windows_table", "flags_table", "scheduler_summary"),
}


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = []   # (span id, command id)
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` timed as span `name`. `before(tracer, bound)` may replace
        bound arguments and runs inside the span; `after(tracer, bound,
        result)` records counts and runs after the span has closed."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if before is not None:
                    before(self, bound)
                args, kwargs = bound.args, bound.kwargs
            sid = next(ids)
            parent, cmd = stack[-1] if stack else (0, sid)
            stack.append((sid, cmd))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, cmd))
            if after is not None:
                after(self, bound, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name in LAYERS:
            importlib.import_module(f"taildiag.{mod_name}")
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "taildiag" or n.startswith("taildiag.")]
        for mod_name, funcs in LAYERS.items():
            mod = sys.modules[f"taildiag.{mod_name}"]
            for func in funcs:
                orig = getattr(mod, func)
                name = f"{mod_name}.{func}"
                wrapper = self.wrap(name, orig, *_HOOKS.get(name, (None, None)))
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            m, attr, orig = self._undo.pop()
            setattr(m, attr, orig)

    def dump(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ----------------------------------------------------- record counters

def _count_bytes(key: str, arg: str):
    def after(tracer: Tracer, bound, result) -> None:
        tracer.counts[key] += os.path.getsize(bound.arguments[arg])
    return after


def _count_lines(tracer: Tracer, bound) -> None:
    def counted(lines):
        n = 0
        try:
            for line in lines:
                n += 1
                yield line
        finally:
            tracer.counts["ingest.lines_read"] += n
    bound.arguments["lines"] = counted(bound.arguments["lines"])


def _ping_result(tracer: Tracer, bound, result) -> None:
    tracer.counts["ingest.samples"] += len(result.samples)
    tracer.counts["ingest.malformed"] += len(result.malformed)


def _fullstats_result(tracer: Tracer, bound, result) -> None:
    tracer.counts["ingest.rows_skipped"] += result.skipped_rows


def _window_counts(tracer: Tracer, bound, result) -> None:
    # Looked up at call time; `windows.make_windows` is not wrapped.
    windows = sys.modules["taildiag.windows"]
    run, spec = bound.arguments["run"], bound.arguments["spec"]
    tracer.counts["windows.grid_windows"] += len(
        windows.make_windows(windows.run_duration(run), spec))
    tracer.counts["windows.joined_windows"] += len(result)


_HOOKS = {
    "canon.read_latency_csv": (None, _count_bytes("canon.bytes_read", "path")),
    "canon.read_scheduler_csv": (None, _count_bytes("canon.bytes_read", "path")),
    "canon.atomic_write_text": (None, _count_bytes("canon.bytes_written", "path")),
    "ingest.parse_ping_log": (_count_lines, _ping_result),
    "ingest.parse_fullstats": (_count_lines, _fullstats_result),
    "windows.build_joined_windows": (None, _window_counts),
}


# ------------------------------------------------------------ analysis

def self_times(spans) -> Counter:
    """Self time per span name, in ns: each span's duration minus the
    part of its interval that the union of its child spans covers.
    Span ids must be unique within `spans` (one process)."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    out: Counter = Counter()
    for sid, _, name, t0, t1, _ in spans:
        covered, reach = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            lo, hi = max(c0, reach), min(c1, t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (t1 - t0) - covered
    return out


# Per-layer metrics, with units, in the order they are reported.
SELF_S = (
    "canon.read_latency_csv", "canon.read_scheduler_csv",
    "cli.load_run", "config.load_config",
    "windows.build_joined_windows", "windows.split_phases",
    "stats.percentile", "stats.spearman_rho", "stats.ks_two_sample",
    "stats.summary_stats",
    "flags.evaluate_flags", "flags.coupling_report", "flags.compare_phases",
    "report.windows_table", "report.flags_table", "report.scheduler_summary",
    "ingest.parse_ping_log", "ingest.parse_fullstats", "ingest.consolidate_run",
    "canon.write_latency_csv", "canon.write_scheduler_csv",
    "canon.atomic_write_text",
    "synthgen.gen_latency_trace", "synthgen.gen_sched_trace",
    "synthgen.gen_campaign",
)
CALLS = ("cli.load_run", "stats.percentile")
COUNTS = {
    "canon.bytes_read": "bytes", "canon.bytes_written": "bytes",
    "windows.grid_windows": "count", "windows.joined_windows": "count",
    "ingest.lines_read": "count", "ingest.rows_skipped": "count",
}
RATIOS = ("windows.join_yield", "ingest.kept_frac")


def layer_units() -> dict[str, str]:
    """Every per-layer metric this module computes, with its unit."""
    units = {f"{n}.self_s": "s" for n in SELF_S}
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update(COUNTS)
    units.update({n: "ratio" for n in RATIOS})
    return units


def layer_metrics(dumps) -> dict[str, float]:
    """Per-layer metrics summed over the dumps of several processes,
    each a {"spans": [...], "counts": {...}} mapping as `dump` writes.
    A dump may also carry a "scale" that its self times are multiplied
    by (run.py's factor to the reference host speed)."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for d in dumps:
        scale = d.get("scale", 1.0)
        for name, ns in self_times(d["spans"]).items():
            self_ns[name] += ns * scale
        calls.update(s[2] for s in d["spans"])
        counts.update(d["counts"])
    out: dict[str, float] = {f"{n}.self_s": self_ns[n] / 1e9 for n in SELF_S}
    out.update({f"{n}.calls": calls[n] for n in CALLS})
    out.update({n: counts[n] for n in COUNTS})
    grid, joined = counts["windows.grid_windows"], counts["windows.joined_windows"]
    out["windows.join_yield"] = joined / grid if grid else 0.0
    # Share of reply-like lines (kept samples plus malformed replies)
    # that became samples.
    replies = counts["ingest.samples"] + counts["ingest.malformed"]
    out["ingest.kept_frac"] = counts["ingest.samples"] / replies if replies else 0.0
    return out
