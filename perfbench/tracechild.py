"""Run one taildiag process with spans recorded around its layers.

    python3 perfbench/tracechild.py SPANS_JSON -m taildiag ARGS...
    python3 perfbench/tracechild.py SPANS_JSON SCRIPT ARGS...

The first form runs `python3 -m taildiag ARGS`, the second a script
such as scripts/run_paperlike.py. The spans are written to SPANS_JSON
once the program has finished; the exit status is the program's.
"""

import runpy
import sys

from tracer import Tracer


def main() -> int:
    spans_path, target, *rest = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        if target == "-m":
            module, *args = rest
            sys.argv = [module, *args]
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target, *rest]
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
