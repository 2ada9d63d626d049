"""Flag semantics, flag-rate arithmetic, phase comparison, coupling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import spearman_ref
from taildiag.errors import (
    EmptyPhaseError,
    EmptySequenceError,
    InvalidSpecError,
    SplitOutOfRangeError,
)
from taildiag.flags import (
    CouplingReport,
    DegradationFlag,
    FlagPolicy,
    PhaseComparison,
    compare_phases,
    coupling_report,
    evaluate_flags,
    flag_rate,
)
from runs import make_run
from taildiag.model import LatencySample, RunMetadata, SchedulerSnapshot
from taildiag.windows import WindowTable


def window_table(p95, bler, mcs=9.0):
    """A WindowTable of windows 5 s apart with these window p95s and
    BLER means; mcs is one MCS median for every window or one per
    window, NaN where absent."""
    p95 = np.asarray(p95, dtype=float)
    n = p95.size
    return WindowTable(start_s=5.0 * np.arange(n), lat_n=np.full(n, 50),
                       lat_p95_ms=p95, lat_median_ms=p95 * 0.6,
                       lat_exceed_100ms=np.zeros(n), sched_n=np.full(n, 10),
                       bler_mean=bler, bler_p95=bler,
                       mcs_median=np.broadcast_to(mcs, n),
                       snr_median_db=np.full(n, 30.0))


def evaluate_one(p95, bler, policy):
    [flag] = evaluate_flags(window_table([p95], [bler]), policy)
    return flag


def run_of(samples, snapshots, duration=60.0):
    m = RunMetadata(run_id="f", ue_type="smartphone", distance_m=6.0,
                    packet_size_b=30, scenario="dynamic_people",
                    nominal_duration_s=duration)
    return make_run(m, samples, snapshots)


# ----------------------------------------------------------------- policy

def test_policy_validation():
    FlagPolicy()
    with pytest.raises(InvalidSpecError):
        FlagPolicy(lat_p95_threshold_ms=0.0)
    with pytest.raises(InvalidSpecError):
        FlagPolicy(bler_mean_threshold=1.0)
    with pytest.raises(InvalidSpecError):
        FlagPolicy(combine="XOR")


# ------------------------------------------------------------------ flags

def test_flag_both_below_not_raised():
    f = evaluate_one(15.0, 0.0, FlagPolicy())
    assert not f.raised and not f.lat_evidence and not f.sched_evidence


def test_flag_both_above_raised():
    f = evaluate_one(250.0, 0.3, FlagPolicy())
    assert f.raised and f.lat_evidence and f.sched_evidence
    assert f.lat_p95_ms == 250.0 and f.bler_mean == 0.3


def test_flag_latency_only_not_raised_under_and():
    f = evaluate_one(250.0, 0.0, FlagPolicy())
    assert f.lat_evidence and not f.sched_evidence and not f.raised


def test_flag_or_policy():
    policy = FlagPolicy(combine="OR")
    assert evaluate_one(250.0, 0.0, policy).raised
    assert evaluate_one(15.0, 0.3, policy).raised
    assert not evaluate_one(15.0, 0.0, policy).raised


def test_flag_thresholds_are_strict():
    f = evaluate_one(100.0, 0.10, FlagPolicy())
    assert not f.lat_evidence and not f.sched_evidence


@given(st.lists(st.tuples(st.floats(1.0, 500.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=40),
       st.floats(10.0, 400.0), st.floats(0.01, 0.9),
       st.sampled_from(["AND", "OR"]))
def test_flag_monotone_in_thresholds(pairs, lat_thr, bler_thr, combine):
    windows = window_table(*zip(*pairs))
    base = FlagPolicy(lat_p95_threshold_ms=lat_thr,
                      bler_mean_threshold=bler_thr, combine=combine)
    raised = sum(f.raised for f in evaluate_flags(windows, base))
    for higher in (FlagPolicy(lat_p95_threshold_ms=lat_thr * 2,
                              bler_mean_threshold=bler_thr, combine=combine),
                   FlagPolicy(lat_p95_threshold_ms=lat_thr,
                              bler_mean_threshold=min(0.99, bler_thr * 2),
                              combine=combine)):
        assert sum(f.raised for f in evaluate_flags(windows, higher)) <= raised


def test_and_needs_both_sides():
    windows = window_table([500.0] * 10, [0.05] * 10)
    assert flag_rate(evaluate_flags(windows, FlagPolicy())) == 0.0
    windows = window_table([8.0] * 10, [0.8] * 10)
    assert flag_rate(evaluate_flags(windows, FlagPolicy())) == 0.0


# -------------------------------------------------------------- flag rate

def test_flag_rate_exact_fractions():
    flags = [DegradationFlag(start_s=5.0 * i, raised=(i == 0),
                             lat_evidence=True, sched_evidence=(i == 0),
                             lat_p95_ms=200.0, bler_mean=0.2)
             for i in range(13)]
    assert flag_rate(flags) == pytest.approx(1 / 13)
    assert all(not f.raised for f in flags[1:])
    assert flag_rate([f for f in flags]) * 13 == pytest.approx(1.0)


def test_flag_rate_bounds_and_empty():
    with pytest.raises(EmptySequenceError):
        flag_rate([])
    all_up = [DegradationFlag(0.0, True, True, True, 200.0, 0.2)] * 4
    assert flag_rate(all_up) == 1.0


@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_flag_rate_counts(raised):
    flags = [DegradationFlag(float(i), r, r, r, 10.0, 0.0)
             for i, r in enumerate(raised)]
    rate = flag_rate(flags)
    assert 0.0 <= rate <= 1.0
    assert rate == sum(raised) / len(raised)


# ----------------------------------------------------------------- phases

def _phase_run():
    # first half: quiet; second half: heavy tail plus BLER excursions
    samples = [LatencySample(t_s=i * 0.2, seq=i, rtt_ms=10.0) for i in range(150)]
    samples += [LatencySample(t_s=30.0 + i * 0.2, seq=150 + i,
                              rtt_ms=300.0 if i % 10 == 0 else 12.0)
                for i in range(150)]
    snaps = [SchedulerSnapshot(t_s=float(t), rnti=17, dl_bler=0.02)
             for t in range(30)]
    snaps += [SchedulerSnapshot(t_s=30.0 + t, rnti=17,
                                dl_bler=0.5 if t % 5 == 0 else 0.02)
              for t in range(30)]
    return run_of(samples, snaps, duration=60.0)


def test_compare_phases_detects_contrast():
    los, people = compare_phases(_phase_run(), 30.0)
    assert (los.phase_label, people.phase_label) == ("LOS", "People")
    assert los.lat_p95_ms == 10.0 and los.exceed_rate == 0.0
    assert people.lat_p95_ms > 100.0
    assert people.exceed_rate == pytest.approx(15 / 150)
    assert people.bler_p95 > los.bler_p95


def test_compare_phases_identical_halves():
    samples = [LatencySample(t_s=i * 0.2, seq=i, rtt_ms=float(10 + i % 7))
               for i in range(150)]
    mirrored = samples + [LatencySample(t_s=s.t_s + 30.0, seq=s.seq + 150,
                                        rtt_ms=s.rtt_ms) for s in samples]
    snaps = [SchedulerSnapshot(t_s=float(t), rnti=17, dl_bler=0.01 * (t % 4))
             for t in range(30)]
    mirrored_snaps = snaps + [SchedulerSnapshot(t_s=s.t_s + 30.0, rnti=17,
                                                dl_bler=s.dl_bler) for s in snaps]
    a, b = compare_phases(run_of(mirrored, mirrored_snaps, 60.0), 30.0)
    assert a.lat_p95_ms == b.lat_p95_ms
    assert a.exceed_rate == b.exceed_rate
    assert a.bler_p95 == b.bler_p95


def test_compare_phases_one_stall_in_4500():
    samples = [LatencySample(t_s=i * 0.2, seq=i,
                             rtt_ms=2000.0 if i == 1000 else 9.0)
               for i in range(4500)]
    samples += [LatencySample(t_s=900.0 + i * 0.2, seq=4500 + i, rtt_ms=9.0)
                for i in range(4500)]
    run = run_of(samples, [], duration=1800.0)
    first, second = compare_phases(run, 900.0)
    assert first.exceed_rate == pytest.approx(1 / 4500)
    assert second.exceed_rate == 0.0
    assert first.bler_p95 is None and second.bler_p95 is None


def test_compare_phases_custom_threshold():
    a, b = compare_phases(_phase_run(), 30.0, exceed_threshold_ms=200.0)
    assert (a.phase_label, b.phase_label) == ("LOS", "People")
    assert b.exceed_rate == pytest.approx(15 / 150)  # 300 ms spikes still count


def test_compare_phases_empty_phase_raises():
    samples = [LatencySample(t_s=40.0 + i * 0.2, seq=i, rtt_ms=9.0)
               for i in range(50)]
    with pytest.raises(EmptyPhaseError):
        compare_phases(run_of(samples, [], 60.0), 30.0)
    with pytest.raises(SplitOutOfRangeError):
        compare_phases(run_of(samples, [], 60.0), 999.0)


# --------------------------------------------------------------- coupling

def test_coupling_constant_bler_undefined():
    rep = coupling_report(window_table([10.0 + i for i in range(8)], [0.05] * 8))
    assert rep.rho_bler is None
    assert rep.n_windows == 8


def test_coupling_perfectly_coupled():
    rep = coupling_report(window_table(
        [10.0 + 30.0 * (i % 3 == 0) for i in range(12)],
        [0.05 + 0.4 * (i % 3 == 0) for i in range(12)], mcs=9.0))
    assert rep.rho_bler == pytest.approx(1.0)
    assert rep.rho_mcs is None  # constant MCS ranks
    assert rep.n_windows == 12


def test_coupling_mcs_absent_anywhere_is_undefined():
    rep = coupling_report(window_table([10.0, 20.0, 30.0], [0.01, 0.02, 0.03],
                                       mcs=[9.0, np.nan, 11.0]))
    assert rep.rho_mcs is None
    assert rep.rho_bler == pytest.approx(1.0)


def test_coupling_single_window_and_empty():
    assert coupling_report(window_table([15.0], [0.0])) == CouplingReport(None, None, 1)
    with pytest.raises(EmptySequenceError):
        coupling_report(window_table([], []))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(1.0, 400.0), st.floats(0.0, 1.0),
                          st.integers(0, 28)),
                min_size=2, max_size=50))
def test_coupling_matches_rank_oracle(rows):
    p95, bler, mcs = (list(col) for col in zip(*rows))
    rep = coupling_report(window_table(p95, bler, mcs=[float(m) for m in mcs]))
    expect_bler = spearman_ref(p95, bler)
    expect_mcs = spearman_ref(p95, [float(m) for m in mcs])
    if expect_bler is None:
        assert rep.rho_bler is None
    else:
        assert rep.rho_bler == pytest.approx(expect_bler, abs=1e-12)
    if expect_mcs is None:
        assert rep.rho_mcs is None
    else:
        assert rep.rho_mcs == pytest.approx(expect_mcs, abs=1e-12)
