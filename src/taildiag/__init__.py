"""Tail-aware cross-layer diagnostics for O-RAN latency and scheduler logs.

Turns ICMP ping traces and gNB fullstats CSVs into percentile and
exceedance summaries, two-sample KS comparisons, rank-correlation
coupling reports, sliding-window latency/scheduler joins and
degradation flags, with a seeded synthetic generator for validation.
"""

__version__ = "0.1.0"
