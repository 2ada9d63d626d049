"""The benchmark's workloads: inputs, the commands of one pass, checks.

Each workload makes its inputs in `setup` through taildiag's public
synthgen API, names the CLI processes of one timed pass in `commands`,
and grades a finished pass in `grade`: every operation (one CLI
subcommand) is OK only if its process exited 0 and every output it owns
passes the workload's correctness check.

`paperlike` and `modem_24h` compare each output file with a SHA-256
digest recorded when the benchmark was added (digests.json). So that a digest
exists for every `--seed`, those two workloads map the seed onto a pool
of POOL campaign seeds; `raw_ingest` checks against the rows it rendered
itself and needs no digests.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import rawlog

from taildiag import synthgen
from taildiag.synthgen import MODEM, RunPreset, ScenarioSpec

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
BASE_SEED = synthgen.DEFAULT_SEED
POOL = 16
DAY_S = 86400.0


def campaign_seed(seed: int) -> int:
    """The campaign seed a `--seed` selects; pool entry 0 is the
    README quick start's default seed."""
    return BASE_SEED + seed % POOL


@dataclass
class Proc:
    """One finished CLI process. `seconds` is its wall time as measured;
    `scale` turns it into seconds at the reference host speed (run.py)."""
    label: str
    seconds: float
    rss_mb: float
    exit_code: int
    stdout: Path
    stderr: Path
    scale: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class Op:
    """One graded operation; `why` says what failed."""
    label: str
    ok: bool
    why: str = ""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digests(out: Path, expected: dict[str, str]) -> dict[str, str]:
    """Files of `expected` that are missing from `out` or differ, with
    the reason. Files in `out` that `expected` does not name are ignored."""
    bad = {}
    for name, digest in expected.items():
        path = out / name
        if not path.is_file():
            bad[name] = "missing"
        elif sha256(path) != digest:
            bad[name] = "digest mismatch"
    return bad


def load_digests(workload: str, cseed: int) -> dict[str, str]:
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table[workload][str(cseed)]


def _taildiag(command: str, config: Path, out: Path, *args: str) -> list[str]:
    return ["-m", "taildiag", command, "--config", str(config),
            "--output-dir", str(out), *args]


class Paperlike:
    """README quick start: scripts/run_paperlike.py as one process."""

    name = "paperlike"

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work = root, work
        self.cseed = campaign_seed(seed)
        self.inputs = work / "inputs"

    def setup(self) -> None:
        # The campaign the pass's `synth` step must reproduce byte for byte.
        synthgen.gen_campaign(synthgen.paperlike_presets(self.cseed), self.inputs)

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        return [("run_paperlike", [str(self.root / "scripts" / "run_paperlike.py"),
                                   "--output-dir", str(out), "--seed", str(self.cseed)])]

    @staticmethod
    def op_of(name: str) -> str:
        """The subcommand of run_paperlike.py that writes file `name`."""
        for suffix, cmd in (("_summary.csv", "summarize"), ("_windows.csv", "windows"),
                            ("_flags.csv", "flags"), ("_phases.csv", "phases")):
            if name.endswith(suffix):
                return f"{cmd} {name[:-len(suffix)]}"
        if name.startswith("compare_"):
            return "compare " + name[len("compare_"):-len(".csv")]
        return "synth"

    def grade(self, out: Path, procs: list[Proc]) -> list[Op]:
        expected = load_digests(self.name, self.cseed)
        bad = check_digests(out, expected)
        for name in expected:
            if self.op_of(name) == "synth" and name not in bad:
                if (out / name).read_bytes() != (self.inputs / name).read_bytes():
                    bad[name] = "differs from in-process synthgen"
        ops: dict[str, list[str]] = {}
        for name in sorted(expected):
            ops.setdefault(self.op_of(name), [])
            if name in bad:
                ops[self.op_of(name)].append(f"{name}: {bad[name]}")
        code = procs[0].exit_code
        return [Op(label, code == 0 and not why,
                   f"exit {code}" if code else "; ".join(why))
                for label, why in ops.items()]


def modem_preset(cseed: int) -> RunPreset:
    """One 24 h modem run with the paperlike baseline_modem settings."""
    return RunPreset("modem_24h", ScenarioSpec(
        "baseline", DAY_S, cseed, MODEM, bler_baseline=0.05,
        bler_excursion_prob=0.08, stall_bler_coupling=0.8))


class Modem24h:
    """Four single-run subcommands over a 24 h canonical modem run."""

    name = "modem_24h"
    # Subcommand -> the suffix of the one file it writes.
    COMMANDS = {"summarize": "summary", "windows": "windows",
                "flags": "flags", "phases": "phases"}

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.work = work
        self.cseed = campaign_seed(seed)
        self.inputs = work / "inputs"

    def setup(self) -> None:
        synthgen.gen_campaign([modem_preset(self.cseed)], self.inputs)

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        config = self.inputs / "campaign_config.json"
        return [(cmd, _taildiag(cmd, config, out, "modem_24h")) for cmd in self.COMMANDS]

    def grade(self, out: Path, procs: list[Proc]) -> list[Op]:
        expected = load_digests(self.name, self.cseed)
        bad = check_digests(out, expected)
        ops = []
        for (cmd, output), proc in zip(self.COMMANDS.items(), procs):
            name = f"modem_24h_{output}.csv"
            why = f"exit {proc.exit_code}" if proc.exit_code else bad.get(name, "")
            ops.append(Op(cmd, not why, why and f"{name}: {why}"))
        return ops


_PING_WARN = re.compile(r"ping line (\d+) unparseable")
_ROW_WARN = re.compile(r"fullstats row (\d+) skipped")


def read_rows(path: Path, parse) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [parse(line.rstrip("\n").split(",")) for line in fh if line.strip()]


def _latency_row(c: list[str]) -> tuple:
    return float(c[0]), int(c[1]), float(c[2])


def _sched_row(c: list[str]) -> tuple:
    def f(x): return float(x) if x else None
    def i(x): return int(x) if x else None
    return (float(c[0]), int(c[1]), float(c[2]), f(c[3]), i(c[4]), i(c[5]),
            f(c[6]), f(c[7]), i(c[8]), i(c[9]))


class RawIngest:
    """`taildiag ingest` over the 24 h modem run rendered as raw logs."""

    name = "raw_ingest"

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.work = work
        self.cseed = campaign_seed(seed)
        self.inputs = work / "inputs"
        self.raw: rawlog.RawRun | None = None

    def setup(self) -> None:
        preset = modem_preset(self.cseed)
        run, _ = synthgen.gen_run(preset)
        raw = rawlog.render(run, self.cseed)
        self.inputs.mkdir(parents=True, exist_ok=True)
        (self.inputs / "modem_ping.log").write_text(raw.ping_text, encoding="utf-8")
        (self.inputs / "modem_fullstats.csv").write_text(raw.fullstats_text, encoding="utf-8")
        spec = preset.spec
        config = {"runs": [{
            "run_id": "modem_24h", "ue_type": spec.ue.label, "scenario": spec.scenario,
            "distance_m": preset.distance_m, "packet_size_b": preset.packet_size_b,
            "ping_interval_s": spec.ping_interval_s, "stats_period_s": spec.stats_period_s,
            "ping_log": "modem_ping.log", "fullstats": "modem_fullstats.csv",
            "column_map": rawlog.COLUMN_MAP}]}
        (self.inputs / "campaign_config.json").write_text(
            json.dumps(config, indent=2) + "\n", encoding="utf-8")
        self.raw = raw

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        return [("ingest", _taildiag("ingest", self.inputs / "campaign_config.json", out))]

    def problems(self, out: Path, stderr: str) -> list[str]:
        """Every way the ingest outputs in `out` disagree with what was
        rendered; empty when they are correct."""
        raw, found = self.raw, []
        lat_path, sched_path = out / "modem_24h_latency.csv", out / "modem_24h_sched.csv"
        for path in (lat_path, sched_path, out / "modem_24h.manifest"):
            if not path.is_file():
                return [f"{path.name} missing"]
        samples = read_rows(lat_path, _latency_row)
        if samples != raw.latency_rows:
            found.append("latency rows differ from the rendered (t_s, seq, rtt)")
        malformed = [int(m) for m in _PING_WARN.findall(stderr)]
        if malformed != raw.malformed_lines:
            found.append(f"{len(malformed)} malformed ping lines reported, "
                         f"{len(raw.malformed_lines)} injected")
        skipped = raw.ping_lines - len(samples) - len(malformed)
        if skipped != raw.skipped_lines:
            found.append(f"lines {raw.ping_lines} != samples {len(samples)} + "
                         f"skipped {raw.skipped_lines} + malformed {len(malformed)}")
        if read_rows(sched_path, _sched_row) != raw.sched_rows:
            found.append("scheduler rows differ from the rendered fullstats")
        if [int(m) for m in _ROW_WARN.findall(stderr)] != raw.bad_rows:
            found.append("skipped fullstats rows differ from the injected ones")
        return found

    def grade(self, out: Path, procs: list[Proc]) -> list[Op]:
        proc = procs[0]
        if proc.exit_code:
            return [Op("ingest", False, f"exit {proc.exit_code}")]
        found = self.problems(out, proc.stderr.read_text(encoding="utf-8"))
        return [Op("ingest", not found, "; ".join(found))]


WORKLOADS = {w.name: w for w in (Paperlike, Modem24h, RawIngest)}
