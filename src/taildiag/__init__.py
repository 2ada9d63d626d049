"""Tail-aware cross-layer diagnostics for O-RAN latency and scheduler logs.

Turns ICMP ping traces and gNB fullstats CSVs into percentile and
exceedance summaries, two-sample KS comparisons, rank-correlation
coupling reports, sliding-window latency/scheduler joins and
degradation flags, with a seeded synthetic generator for validation.
"""

import os

# taildiag makes no BLAS call, but numpy's bundled OpenBLAS starts a
# worker pool at import, and its workers spin-wait. On a shared 2-vCPU
# host the one worker slowed `import numpy` from 0.180 to 0.252 s, and
# `taildiag windows` on a 24 h run from 0.45 to 0.59-0.66 s (medians of
# 5-9 alternating runs); how much depends on how busy the host is. Set
# before any module of the package imports numpy; a count the caller
# set wins, and a process that imported numpy first keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
