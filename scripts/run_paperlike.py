#!/usr/bin/env python3
"""Generate the paperlike demo campaign and run every analysis over it.

Produces, under the chosen output directory: canonical traces plus
ground truth for four runs, then per-run summary, windows, flags and
phase tables, and the smartphone-vs-modem comparison. Rerunning is
byte-identical by construction.

Each step prints the `taildiag` command line it runs and then what that
command prints. The analysis steps run through cli.execute over one
shared cli.Analysis, so each run is loaded and windowed once.
"""

import argparse
import sys
from pathlib import Path

from taildiag import cli
from taildiag.config import load_config


def step(argv: list[str], run) -> None:
    """Print `$ taildiag argv`, then run(argv) as that command."""
    print(f"$ taildiag {' '.join(argv)}")
    rc = cli.guarded(run, argv)
    if rc != 0:
        sys.exit(rc)
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-dir", default="paperlike_out",
                    help="campaign directory (default: ./paperlike_out)")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the campaign seed")
    args = ap.parse_args()

    out = Path(args.output_dir)
    synth = ["synth", "paperlike", "--output-dir", str(out)]
    if args.seed is not None:
        synth += ["--seed", str(args.seed)]
    step(synth, cli.main)

    cfg_path = out / "campaign_config.json"
    an = cli.Analysis(load_config(cfg_path))
    parser = cli.build_parser()
    opts = ["--config", str(cfg_path), "--output-dir", str(out)]
    run_ids = [r.run_id for r in an.cfg.runs]
    for argv in ([["summarize", *opts, run_id] for run_id in run_ids]
                 + [["compare", *opts, "baseline", "baseline_modem"]]
                 + [[cmd, *opts, run_id] for run_id in run_ids for cmd in ("windows", "flags")]
                 + [["phases", *opts, "dynamic_people"]]):
        step(argv, lambda argv: cli.execute(an, out, parser.parse_args(argv)))
    print(f"all outputs under {out}/")


if __name__ == "__main__":
    main()
