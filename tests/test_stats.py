import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from taildiag import stats
from taildiag.errors import (
    EmptySequenceError,
    LengthMismatchError,
    TooFewPointsError,
)

from oracles import exceedance_ref, ks_d_ref, percentile_ref, spearman_ref

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# ---------------------------------------------------------------- percentile

def test_percentile_singleton():
    assert stats.percentile([5], 0.95) == 5


def test_percentile_odd_median():
    assert stats.percentile([1, 2, 3], 0.5) == 2


def test_percentile_interpolates():
    # h = 3*0.95 = 2.85 on the sorted vector -> 30 + 0.85*(40-30)
    assert stats.percentile([10, 20, 30, 40], 0.95) == pytest.approx(38.5, abs=1e-12)


def test_percentile_extremes():
    vals = [7, 1, 9, 3]
    assert stats.percentile(vals, 0.0) == 1
    assert stats.percentile(vals, 1.0) == 9


def test_percentile_empty_raises():
    with pytest.raises(EmptySequenceError):
        stats.percentile([], 0.5)


def test_percentile_bad_q():
    with pytest.raises(ValueError):
        stats.percentile([1, 2], 1.5)


@given(st.lists(finite_floats, min_size=1, max_size=60))
def test_percentile_monotone_and_bounded(values):
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0]
    results = [stats.percentile(values, q) for q in qs]
    for a, b in zip(results, results[1:]):
        assert a <= b + 1e-12
    assert min(values) <= results[0] and results[-1] <= max(values)


@given(st.lists(finite_floats, min_size=1, max_size=60),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_matches_reference(values, q):
    assert stats.percentile(values, q) == pytest.approx(
        percentile_ref(values, q), abs=1e-9)


@given(st.lists(st.lists(finite_floats, min_size=1, max_size=20), min_size=1, max_size=8),
       st.floats(min_value=0.0, max_value=1.0))
def test_segment_percentiles_match_reference_per_segment(segments, q):
    counts = np.array([len(seg) for seg in segments])
    starts = np.cumsum(counts) - counts
    flat = np.concatenate([np.sort(seg) for seg in segments])
    got = stats.segment_percentiles(flat, starts, counts, q)
    for value, seg in zip(got.tolist(), segments):
        assert value == pytest.approx(percentile_ref(seg, q), abs=1e-9)


# ---------------------------------------------------------------- exceedance

def test_exceedance_all_below():
    assert stats.exceedance_prob([10.0] * 50, 100.0) == 0.0


def test_exceedance_counts_strictly_above():
    assert stats.exceedance_prob([50, 150, 2000], 100) == pytest.approx(2 / 3)
    # boundary value is not an exceedance
    assert stats.exceedance_prob([100.0, 50.0], 100.0) == 0.0


def test_exceedance_empty_raises():
    with pytest.raises(EmptySequenceError):
        stats.exceedance_prob([], 100.0)


@given(st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=1, max_size=80))
def test_exceedance_monotone_in_threshold(values):
    probs = [stats.exceedance_prob(values, t) for t in (1.0, 10.0, 100.0, 1000.0)]
    for a, b in zip(probs, probs[1:]):
        assert a >= b
    assert all(exceedance_ref(values, t) == p
               for t, p in zip((1.0, 10.0, 100.0, 1000.0), probs))


# ------------------------------------------------------------- summary_stats

def test_summary_constant_sequence():
    s = stats.summary_stats([12.0] * 40)
    assert s.n == 40
    assert s.median_ms == s.p95_ms == s.mean_ms == 12.0
    assert s.exceed_100ms == 0.0 and s.exceed_1s == 0.0 and s.outlier_rate == 0.0


def test_summary_outlier_rate():
    s = stats.summary_stats([10.0] * 19 + [2000.0], outlier_threshold_ms=1000.0)
    assert s.outlier_rate == pytest.approx(0.05)
    assert s.exceed_1s == pytest.approx(0.05)


def test_summary_invariants():
    s = stats.summary_stats([3, 9, 1, 500, 80, 120, 1500])
    assert s.median_ms <= s.p95_ms
    assert s.exceed_1s <= s.exceed_100ms


def test_summary_empty_raises():
    with pytest.raises(EmptySequenceError):
        stats.summary_stats([])


# --------------------------------------------------------------- KS test

def test_ks_identical_samples():
    r = stats.ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.d_stat == 0.0
    assert r.p_value == pytest.approx(1.0)


def test_ks_hand_enumerated():
    # ECDF gaps at points 1,2,3,4 are 0.5, 0, 0.5, 0
    r = stats.ks_two_sample([1, 3], [2, 4])
    assert r.d_stat == pytest.approx(0.5, abs=1e-12)


def test_ks_disjoint_supports():
    r = stats.ks_two_sample([1, 2, 3], [10, 11])
    assert r.d_stat == 1.0


def test_ks_empty_raises():
    with pytest.raises(EmptySequenceError):
        stats.ks_two_sample([], [1.0])


def test_ks_records_sizes():
    r = stats.ks_two_sample([1, 2], [3, 4, 5])
    assert (r.n1, r.n2) == (2, 3)


@given(st.lists(finite_floats, min_size=1, max_size=30),
       st.lists(finite_floats, min_size=1, max_size=30))
def test_ks_symmetric(a, b):
    r1 = stats.ks_two_sample(a, b)
    r2 = stats.ks_two_sample(b, a)
    assert r1.d_stat == r2.d_stat
    assert r1.p_value == r2.p_value


@given(st.lists(finite_floats, min_size=1, max_size=25),
       st.lists(finite_floats, min_size=1, max_size=25))
def test_ks_d_matches_enumeration(a, b):
    assert stats.ks_two_sample(a, b).d_stat == pytest.approx(ks_d_ref(a, b), abs=1e-12)


def test_ks_same_distribution_converges():
    rng = random.Random(20260825)
    a = [rng.choice([5.0, 8.0, 9.0, 11.0, 14.0]) for _ in range(10_000)]
    b = [rng.choice([5.0, 8.0, 9.0, 11.0, 14.0]) for _ in range(10_000)]
    assert stats.ks_two_sample(a, b).d_stat < 0.05


def test_ks_pvalue_underflows_for_separated_large_samples():
    p1 = stats.ks_pvalue(0.888, 8945, 8957)
    p2 = stats.ks_pvalue(0.985, 8945, 8630)
    assert p1 < 1e-300 and p2 < 1e-300
    assert f"{p1:.2e}" == "0.00e+00"


def test_ks_pvalue_bounds():
    assert stats.ks_pvalue(0.0, 10, 10) == 1.0
    for d in (0.05, 0.2, 0.5, 0.9, 1.0):
        for n in (2, 5, 50, 1000):
            p = stats.ks_pvalue(d, n, n)
            assert 0.0 <= p <= 1.0


def test_ks_pvalue_decreases_with_d():
    ps = [stats.ks_pvalue(d, 40, 40) for d in (0.1, 0.2, 0.3, 0.5)]
    assert ps == sorted(ps, reverse=True)


# --------------------------------------------------------------- Spearman

def test_spearman_perfect_monotone():
    assert stats.spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0
    assert stats.spearman_rho([1, 2, 3], [30, 20, 10]) == -1.0


def test_spearman_constant_is_undefined():
    assert stats.spearman_rho([1, 2, 3], [7, 7, 7]) is None
    assert stats.spearman_rho([4, 4, 4], [1, 2, 3]) is None


def test_spearman_errors():
    with pytest.raises(LengthMismatchError):
        stats.spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(TooFewPointsError):
        stats.spearman_rho([1], [2])


def test_spearman_with_ties_matches_reference():
    x = [1, 2, 2, 3, 5, 5, 5, 9]
    y = [4, 4, 7, 7, 7, 1, 3, 8]
    assert stats.spearman_rho(x, y) == pytest.approx(spearman_ref(x, y), abs=1e-12)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=40))
@settings(max_examples=60)
def test_spearman_matches_reference_random_ties(xs):
    rng = random.Random(sum(xs) + len(xs))
    ys = [rng.randint(0, 8) for _ in xs]
    got = stats.spearman_rho(xs, ys)
    want = spearman_ref(xs, ys)
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, abs=1e-12)


@given(st.lists(finite_floats, min_size=2, max_size=30, unique=True))
@example(xs=[1e6, 999999.9999999999])
@settings(max_examples=60)
def test_spearman_invariant_under_increasing_transform(xs):
    ys = list(reversed(sorted(xs)))
    tx = [math.atan(v / 1e6) for v in xs]
    if len(set(tx)) == 1:
        # In float64, atan can map distinct inputs to one value; a
        # constant side has no rank variance, so rho is undefined.
        assert stats.spearman_rho(tx, ys) is None
        return
    assume(len(set(tx)) == len(tx))
    base = stats.spearman_rho(xs, ys)
    transformed = stats.spearman_rho(tx, ys)
    assert base == pytest.approx(transformed, abs=1e-9)
