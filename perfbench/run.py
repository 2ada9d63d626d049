#!/usr/bin/env python3
"""taildiag benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

Run from anywhere inside a taildiag checkout; the program under test is
the checkout's own src/ and scripts/. One run makes the workload's
inputs from --seed (several times, to time set-up), then repeats timed
passes of the workload's CLI commands, one child process at a time,
until --seconds have passed, and grades every pass. Every time it
reports is scaled to a reference host speed (see `speed_loop`). The
last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 every pass is run twice, plain and with spans recorded around
taildiag's layers (tracer.py), and the metrics are the per-layer ones.

--record-digests rewrites digests.json from the current code; do that
only on a commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170.0

# The machine the bounds were set on (2 vCPUs, Xeon at 2.1 GHz) is a
# share of a busy host whose speed drifts by up to 2x within a minute:
# over five minutes a loop of 1,000,000 multiply-adds took 0.054-0.146 s
# and a paperlike pass 1.19-2.09 s, the two moving together
# (correlation 0.8). Raw wall times therefore spread from run to run by
# more than any bound a regression check could use. So each timed span
# (a CLI process, a set-up) is bracketed by `speed_loop`, run here while
# no child runs, and its time is reported at the reference speed:
#     seconds * REF_LOOP_S / mean(loop just before, loop just after).
# REF_LOOP_S is the loop's median time on that machine. It fixes only
# the scale, and is the same for both commits of a comparison, so a
# change to the program still moves every time by its own share. The
# loop is twice the measured one: a shorter loop is itself noisier.
LOOP_N = 2_000_000
REF_LOOP_S = 0.152


def _require_checkout() -> None:
    for rel in ("src/taildiag/cli.py", "scripts/run_paperlike.py"):
        if not (ROOT / rel).is_file():
            print(f"error: {rel} not found under {ROOT}: not a taildiag checkout",
                  file=sys.stderr)
            sys.exit(2)


_require_checkout()
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Proc  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

END_TO_END = {"wall_s": "s", "slowest_cmd_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s", "ok_frac": "ratio"}
PER_LAYER = {**tracer.layer_units(), "trace.overhead_s": "s"}


def speed_loop() -> float:
    """Seconds a fixed loop of Python arithmetic takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i
    return time.perf_counter() - t0


def to_ref(before: float, after: float) -> float:
    """Factor from seconds measured between two loops of `before` and
    `after` seconds to seconds at the reference speed."""
    return 2 * REF_LOOP_S / (before + after)


def spawn(label: str, argv: list[str], logs: Path) -> Proc:
    """Run `python3 ARGV` to completion; its wall time and max RSS come
    from wait4 on that child alone."""
    stdout, stderr = logs / f"{label}.out", logs / f"{label}.err"
    with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                             stdout=fo, stderr=fe, cwd=ROOT, env=CHILD_ENV)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(label, seconds, usage.ru_maxrss / 1024.0, p.returncode, stdout, stderr)


def run_pass(wl, out: Path, spans: Path | None = None) -> tuple[float, list[Proc]]:
    """One timed pass of the workload's commands into a fresh `out`,
    with its wall time at the reference speed: the sum of its commands'
    (between two commands the driver only times the speed loop).
    With `spans`, each command runs under tracechild.py and leaves its
    spans in spans/<i>.json."""
    logs = out.with_name(out.name + ".logs")
    for d in (out, logs):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    procs = []
    loop = speed_loop()
    for i, (label, argv) in enumerate(wl.commands(out)):
        if spans is not None:
            argv = [str(HERE / "tracechild.py"), str(spans / f"{i}.json"), *argv]
        p = spawn(f"{i}-{label}", argv, logs)
        after = speed_loop()
        p.scale, loop = to_ref(loop, after), after
        procs.append(p)
    return sum(p.ref_seconds for p in procs), procs


def grade(wl, out: Path, procs: list[Proc]) -> list[Op]:
    ops = wl.grade(out, procs)
    for op in ops:
        if not op.ok:
            print(f"FAIL {wl.name} {op.label}: {op.why}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return ops


def timed_setup(wl) -> float:
    """Set-up time at the reference speed."""
    before = speed_loop()
    t0 = time.perf_counter()
    wl.setup()
    seconds = time.perf_counter() - t0
    return seconds * to_ref(before, speed_loop())


def measure(wl, seconds: float) -> tuple[dict, list[Op]]:
    setups = [timed_setup(wl) for _ in range(SETUP_REPS)]
    walls, raw, per_cmd, rss, ops = [], [], {}, [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        out = wl.work / f"pass{len(walls)}"
        wall, procs = run_pass(wl, out)
        walls.append(wall)
        raw.append(sum(p.seconds for p in procs))
        for p in procs:
            per_cmd.setdefault(p.label, []).append(p.ref_seconds)
            rss.append(p.rss_mb)
        ops += grade(wl, out, procs)
    ok = sum(op.ok for op in ops)
    print(f"{wl.name}: {len(walls)} passes; median wall {statistics.median(walls):.3f} s "
          f"at reference speed, {statistics.median(raw):.3f} s as measured",
          file=sys.stderr)
    return {
        "wall_s": statistics.median(walls),
        # The command that is slowest by its median over passes.
        "slowest_cmd_s": max(statistics.median(t) for t in per_cmd.values()),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setups),
        "ok_frac": ok / len(ops),
    }, ops


def measure_traced(wl, seconds: float) -> tuple[dict, list[Op]]:
    """Alternate plain and traced passes; per-layer metrics are medians
    over the traced passes, each summed with one traced set-up."""
    setup_tracer = tracer.Tracer()
    before = speed_loop()
    setup_tracer.install()
    try:
        wl.setup()
    finally:
        setup_tracer.uninstall()
    setup_dump = {"spans": setup_tracer.spans, "counts": setup_tracer.counts,
                  "scale": to_ref(before, speed_loop())}
    plain, traced, layers, ops = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        out = wl.work / "plain"
        wall, procs = run_pass(wl, out)
        plain.append(wall)
        ops += grade(wl, out, procs)

        spans = wl.work / "spans"
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir()
        out = wl.work / "traced"
        wall, procs = run_pass(wl, out, spans)
        traced.append(wall)
        ops += grade(wl, out, procs)
        dumps = []
        for i, p in enumerate(procs):
            f = spans / f"{i}.json"
            if f.is_file():
                dumps.append({**json.loads(f.read_text(encoding="utf-8")),
                              "scale": p.scale})
        layers.append(tracer.layer_metrics([setup_dump, *dumps]))
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    # The spans of the last traced pass, by process; within a process,
    # spans of one CLI command share their command id.
    trace_file = WORK / f"trace-{wl.name}.json"
    trace_file.write_text(json.dumps({
        "setup": setup_dump["spans"],
        "processes": {f"{i}-{label}": d["spans"] for i, ((label, _), d)
                      in enumerate(zip(wl.commands(out), dumps))},
    }), encoding="utf-8")
    return metrics, ops


def record_digests() -> None:
    """Digests of every output of one pass, for each pool seed, of the
    workloads graded by digest."""
    table = {}
    for cls in (workloads.Paperlike, workloads.Modem24h):
        table[cls.name] = {}
        for k in range(workloads.POOL):
            wl = cls(ROOT, WORK / cls.name, k)
            shutil.rmtree(wl.work, ignore_errors=True)
            wl.setup()
            out = wl.work / "pass"
            _, procs = run_pass(wl, out)
            if any(p.exit_code for p in procs):
                sys.exit(f"error: {cls.name} seed {k} failed; no digests written")
            table[cls.name][str(wl.cseed)] = {
                f.name: workloads.sha256(f) for f in sorted(out.iterdir())}
            print(f"{cls.name} {wl.cseed}: {len(table[cls.name][str(wl.cseed)])} files")
            shutil.rmtree(wl.work)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    try:
        if args.trace:
            values, ops = measure_traced(wl, args.seconds)
            units = PER_LAYER
        else:
            values, ops = measure(wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
