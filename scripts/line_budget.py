#!/usr/bin/env python3
"""Print the line counts of the round's size budget as one JSON line.

    python3 scripts/line_budget.py

`src` is the lines of every module in src/taildiag/, `analysis` those
of the taildiag modules a fresh interpreter has loaded after
`import taildiag.cli` (what every command loads), and `tests` those of
the Python files in tests/. A line is a newline, as `wc -l` counts it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def lines(paths) -> int:
    return sum(path.read_bytes().count(b"\n") for path in paths)


def analysis_path() -> list[Path]:
    """The files of the taildiag modules `import taildiag.cli` loads, in
    a fresh interpreter with src/ first on its path."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import taildiag.cli; "
             "print('\\n'.join(m.__file__ for name, m in sys.modules.items() "
             "if name.split('.')[0] == 'taildiag'))")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    return sorted({Path(name) for name in out.split()})


def main() -> None:
    print(json.dumps({"src": lines(sorted((SRC / "taildiag").glob("*.py"))),
                      "analysis": lines(analysis_path()),
                      "tests": lines(sorted((ROOT / "tests").glob("*.py")))}))


if __name__ == "__main__":
    main()
