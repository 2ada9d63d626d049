"""Tail-aware cross-layer diagnostics for O-RAN latency and scheduler logs.

Turns ICMP ping traces and gNB fullstats CSVs into percentile and
exceedance summaries, two-sample KS comparisons, rank-correlation
coupling reports, sliding-window latency/scheduler joins and
degradation flags, with a seeded synthetic generator for validation.
"""

from .config import CampaignConfig, RunConfig, load_config
from .errors import (
    EmptyPhaseError,
    EmptySequenceError,
    EmptyTraceError,
    InvalidSpecError,
    LengthMismatchError,
    MissingColumnError,
    RunTooShortError,
    SplitOutOfRangeError,
    TooFewPointsError,
    ToolkitError,
)
from .flags import (
    CouplingReport,
    DegradationFlag,
    FlagPolicy,
    PhaseComparison,
    compare_phases,
    coupling_report,
    evaluate_flag,
    evaluate_flags,
    flag_rate,
)
from .ingest import (
    LatencySample,
    Run,
    RunMetadata,
    SchedulerSnapshot,
    consolidate_run,
    parse_fullstats,
    parse_ping_log,
    select_dominant_rnti,
)
from .stats import (
    KsResult,
    LatencySummary,
    exceedance_prob,
    ks_pvalue,
    ks_two_sample,
    percentile,
    spearman_rho,
    summary_stats,
)
from .synthgen import (
    MODEM,
    SMARTPHONE,
    GroundTruth,
    RunPreset,
    ScenarioSpec,
    UeProfile,
    gen_campaign,
    gen_latency_trace,
    gen_run,
    gen_sched_trace,
    paperlike_presets,
    presets_by_name,
)
from .windows import (
    JoinedWindow,
    LatencyWindow,
    SchedWindow,
    WindowSpec,
    build_joined_windows,
    make_windows,
    run_duration,
    split_phases,
)

__version__ = "0.1.0"
