"""The data-table renderer: canon.table_text, whose kernel finds repr's
digits with numpy, against the one-repr-per-cell oracle, byte for byte."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taildiag import canon, report
from taildiag.flags import DegradationFlag
from taildiag.ingest import LatencyTrace
from taildiag.windows import WindowTable

from oracles import table_text_ref


def _same(table):
    assert canon.table_text(table) == table_text_ref(table)


# Whole numbers int64 holds, small and large, or absent.
INTEGRAL = st.one_of(st.integers(-10 ** 6, 10 ** 6).map(float),
                     st.integers(-(2 ** 62), 2 ** 62).map(float), st.just(math.nan))
ROWS = st.lists(st.tuples(st.floats(), INTEGRAL, st.floats()), max_size=40)


def _latency(rows):
    return LatencyTrace(*(list(column) for column in zip(*rows))) if rows \
        else LatencyTrace.empty()


# Cells the kernel must hand to repr or place with care: powers of two
# (asymmetric gap), exact 17-digit ties, ties of the rounding to 16
# digits, floor(log10) misjudged next to a power of ten, the edges of
# fixed notation, rounding up to a power of ten, zeros, subnormals,
# the extremes and the non-finite.
@settings(max_examples=300, deadline=None)
@given(ROWS)
@example([(32.0, 1.0, 0.5), (2.0 ** 49, -0.0, 2.0 ** 50), (2.0 ** -14, math.nan, 1024.0)])
@example([(5.176300048828125, 0.0, 1 + 2 ** -17), (558854708501.703125, 7.0, 0.3),
          (562949953421312.25, 2.0 ** 62, 562949953421312.75), (0.1 + 0.2, 8.0, 1 / 3)])
@example([(999.9999999999999, 9.0, 0.0009999999999999998),
          (999999999999999.9, -(2.0 ** 62), 1e15), (9999999999999998.0, 0.0, 1e16)])
@example([(1e-4, 1.0, math.nextafter(1e-4, 0.0)), (0.0001, 2.0, 1e-05),
          (99999999999999.99, 3.0, 123456789012345.67)])
@example([(0.0, 0.0, -0.0), (5e-324, 1.0, 2.2250738585072014e-308),
          (1.7976931348623157e308, 2.0, -1.7976931348623157e308)])
@example([(math.inf, 0.0, -math.inf), (math.nan, math.nan, -math.nan)])
@example([])
def test_table_text_equals_repr_per_cell(rows):
    _same(_latency(rows))


def _bit_patterns(rng, n):
    return rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)


def _fixed_range_patterns(rng, n):
    """Random mantissas and signs with binary exponents over [2**-15, 2**55):
    nearly all in repr's fixed notation, where the kernel does the work."""
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    exponents = rng.integers(1023 - 15, 1023 + 55, n).astype(np.uint64) << np.uint64(52)
    return (bits | exponents).view(np.float64)


def _short_decimals(rng, n):
    """Decimals of 1 to 9 significant digits, point anywhere over 1e-5..1e15."""
    digits = rng.integers(1, 10 ** rng.integers(1, 10, n))
    return digits * 10.0 ** rng.integers(-13, 8, n) * rng.choice([-1.0, 1.0], n)


def test_seeded_sweep_of_a_million_cells():
    rng = np.random.default_rng(20261018)
    n = 125_000
    floats = [_bit_patterns(rng, n), _bit_patterns(rng, n),
              _fixed_range_patterns(rng, n), _fixed_range_patterns(rng, n),
              _fixed_range_patterns(rng, n),
              _short_decimals(rng, n), _short_decimals(rng, n), _short_decimals(rng, n)]
    ints = [rng.integers(-10 ** 9, 10 ** 9, n).astype(float),
            rng.integers(-(2 ** 62), 2 ** 62, n).astype(float)]
    names = WindowTable.names()
    integral = [names.index(name) for name in WindowTable.INTEGRAL]
    columns = [ints.pop(0) if i in integral else floats.pop(0) for i in range(len(names))]
    _same(WindowTable(*columns))


def test_powers_of_two_and_ten_and_their_neighbours():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-30, 31)])
    seq = np.arange(powers.size)
    _same(LatencyTrace(np.nextafter(powers, 0.0), seq, -powers))
    _same(LatencyTrace(np.nextafter(powers, np.inf), seq, powers))


def test_table_longer_than_two_blocks():
    block = canon._BLOCK_ROWS
    n = 2 * block + 100
    t = np.arange(n) * 0.2
    rtt = 10.0 + (np.arange(n) % 997) / 7.0
    rtt[5] = 32.0                       # a power of two: repr, set in the digit rows
    t[block + 3] = 5.176300048828125    # a 17-digit tie: repr, set in the digit rows
    rtt[2 * block + 7] = 1e-05          # exponent form: repr verbatim
    rtt[2 * block + 8] = math.inf
    trace = LatencyTrace(t, np.arange(n), rtt)
    _same(trace)
    lines = canon.table_text(trace).split("\n")
    assert lines[6].endswith(",32.0")
    assert lines[block + 4].startswith("5.176300048828125,")
    assert lines[2 * block + 8].endswith(",1e-05") and lines[2 * block + 9].endswith(",inf")


def test_zero_and_one_row_tables():
    assert canon.table_text(LatencyTrace.empty()) == "t_s,seq,rtt_ms\n"
    _same(LatencyTrace.empty())
    one = LatencyTrace([0.0], [-3.0], [-0.0])
    assert canon.table_text(one) == "t_s,seq,rtt_ms\n0.0,-3,-0.0\n"
    _same(one)


def test_flags_table_renders_floats_as_repr_and_evidence_as_digits():
    flags = [DegradationFlag(0.0, False, False, False, 32.0, 0.05),
             DegradationFlag(5.0, True, True, True, 5.176300048828125, 1e-05),
             DegradationFlag(1e16, False, True, False, 123.456, 0.1 + 0.2)]
    expected = [report.FLAGS_HEADER] + [
        ",".join([repr(f.start_s), str(int(f.raised)), str(int(f.lat_evidence)),
                  str(int(f.sched_evidence)), repr(f.lat_p95_ms), repr(f.bler_mean)])
        for f in flags]
    assert report.flags_table(flags) == "\n".join(expected) + "\n"
    assert report.flags_table([]) == report.FLAGS_HEADER + "\n"
