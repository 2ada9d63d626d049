"""The exact decimal reader: decimals.decode, whose every accepted cell
must be float() of it bit for bit, against float() and int(cell, 16)."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taildiag import canon, decimals
from taildiag.ingest import LatencyTrace


def _decode(cells, integral=False):
    """decode over the cells joined by commas, with no padding around
    them, so the kernel pads for itself."""
    data = ",".join(cells).encode()
    size = np.array([len(cell.encode()) for cell in cells], dtype=np.int64)
    end = np.cumsum(size + 1) - 1
    return decimals.decode(np.frombuffer(data, np.uint8), end - size, end, integral)


def _expected(cell, integral):
    """float() of a cell, or int(cell, 16) of an integral 0x cell; NaN
    for an empty one, None where both refuse it."""
    if not cell:
        return math.nan
    try:
        if integral and cell[:2].lower() == "0x":
            return float(int(cell, 16))
        return float(cell)
    except ValueError:
        return None


def _bits(x):
    return np.float64(x).tobytes()


def _same(cells, integral=False):
    """Every cell decode accepts is float()'s, bit for bit. Returns the
    ok mask."""
    ok, value = _decode(cells, integral)
    for cell, accepted, got in zip(cells, ok.tolist(), value.tolist()):
        if accepted:
            want = _expected(cell, integral)
            assert want is not None, cell
            assert _bits(got) == _bits(want) or math.isnan(got) and math.isnan(want), cell
    return ok


def _plain(cell):
    """Whether cell is in the decimal grammar, under MAX_CELL bytes, with
    at most 15 significant digits: the fast path, which always proves."""
    body = cell.lstrip("+-")
    digits = body.replace(".", "")
    return (len(cell) <= decimals.MAX_CELL and body.count(".") <= 1 and digits.isdigit()
            and digits.isascii() and len(digits.lstrip("0")) <= 15
            and len(body.partition(".")[2]) <= 22)


DIGITS = st.text("0123456789", min_size=1, max_size=20)


@st.composite
def decimal_cells(draw):
    """Decimal text of 1 to 20 digits with the point anywhere or none,
    an optional sign and, now and then, an exponent of the canonical
    grammar."""
    digits = draw(DIGITS)
    point = draw(st.integers(-1, len(digits)))
    body = digits if point < 0 else digits[:point] + "." + digits[point:]
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    exponent = draw(st.sampled_from(["", "", "", "e5", "E-3", "e+16", "e-320"]))
    return sign + body + exponent


# Ties between two doubles (2**53 + 1, and 17- to 19-digit midpoints),
# 2**53 and its neighbours, the signed zero, exponent forms (subnormal,
# small, large, largest, overflowing), text float() refuses (two points,
# also eight bytes apart), and 22 and 23 digits after the point.
ADVERSARIAL = ["9007199254740993", "9007199254740992", "9007199254740991",
               "18014398509481986", "36028797018963972", "1152921504606847040",
               "1801439850948198.625", "9007199254740993.0", "0.9007199254740993",
               "-0.0", "0.0", "-0", "5e-324", "1e-05", "1e+16",
               "1.7976931348623157e308", "1e309", "", "-", "+", ".", "1..2", "1.2.3",
               " 1", "1 ", "nan", "inf", "0x10", "1_0", "٣", "0.30000000000000004",
               "99999999999999999999", "0." + "0" * 21 + "1", "0." + "0" * 22 + "1",
               "." + "0" * 22 + "1", "1.345678901234.6", "12345.78901234567.9"]


@settings(max_examples=300, deadline=None)
@given(st.lists(decimal_cells(), min_size=1, max_size=40))
@example(ADVERSARIAL)
@example(["123456789012345678", "1234567890123456789", "12345678901234567890",
          "2.99999999999999999", "29.929603705319114", "-80.07039629468089"])
def test_decode_equals_float(cells):
    ok = _same(cells)
    for cell, accepted in zip(cells, ok.tolist()):
        if _plain(cell):
            assert accepted, cell


@st.composite
def integral_cells(draw):
    kind = draw(st.sampled_from(["dec", "hex", "odd"]))
    if kind == "dec":
        return draw(st.sampled_from(["", "-", "+"])) + str(draw(st.integers(0, 2 ** 60)))
    if kind == "hex":
        return draw(st.sampled_from(["0x", "0X"])) + format(draw(st.integers(0, 2 ** 60)),
                                                            draw(st.sampled_from(["x", "X"])))
    return draw(st.sampled_from(["0x", "0xg", "-0x5", "0x_5", "5.0", "1e3",
                                 "0x" + "0" * 23 + "1"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(integral_cells(), min_size=1, max_size=40))
@example(["0x4601", "0X4A01", "0x1fffffffffffff", "0x20000000000000", "0x20000000000001",
          "9007199254740991", "9007199254740992", "9007199254740993", "-17", "+0", "5.0"])
def test_integral_decode_equals_int(cells):
    ok, value = _decode(cells, integral=True)
    for cell, accepted, got in zip(cells, ok.tolist(), value.tolist()):
        if accepted:
            want = _expected(cell, True)
            assert "." not in cell and want is not None, cell
            assert math.isnan(want) or abs(want) < 2 ** 53, cell
            assert _bits(got) == _bits(want) or math.isnan(got) and math.isnan(want), cell
        else:
            assert not (cell.lstrip("+-").isdigit() and abs(int(cell)) < 2 ** 53), cell


def _random_decimals(rng, n):
    """Decimal text: 1 to 20 digits, the point anywhere or none, signs."""
    out = []
    for size, point, sign, value in zip(rng.integers(1, 21, n).tolist(),
                                        rng.integers(-1, 21, n).tolist(),
                                        rng.integers(0, 4, n).tolist(),
                                        rng.integers(0, 10 ** 18, n).tolist()):
        digits = str(value * 100 + value % 97).zfill(20)[-size:]
        body = digits if point < 0 or point > size else digits[:point] + "." + digits[point:]
        out.append(("", "", "-", "+")[sign] + body)
    return out


def _column_text(x):
    """The canonical cells of float64 values x: csv_bytes, one per line."""
    return canon.csv_bytes(["x"], [x]).decode().split("\n")[1:-1]


def test_seeded_sweep_of_a_million_cells():
    rng = np.random.default_rng(20261018)
    n = 250_000
    cells = _random_decimals(rng, n)
    assert _same(cells).mean() > 0.8
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    fixed = ((rng.integers(0, 2 ** 64, n, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF))
             | (rng.integers(1023 - 15, 1023 + 55, n).astype(np.uint64) << np.uint64(52)))
    for x in (bits, fixed.view(np.float64)):
        cells = _column_text(x)
        ok = _same(cells)
        # The round trip, bit for bit: what decode accepts, and through
        # the canonical reader (decode, then float() of the rest), all.
        got = _decode(cells)[1]
        assert ((got.view(np.int64) == x.view(np.int64)) | np.isnan(x))[ok].all()
        table = canon._read_cells("\n".join(cells).encode(), 0, 1, optional=True)
        same = table[:, 0].view(np.int64) == x.view(np.int64)
        assert (same | np.isnan(x)).all()
        fixed_notation = np.array(["e" not in cell and cell != "" for cell in cells])
        assert ok[fixed_notation].all()
    hexa = [format(v, "#x") for v in rng.integers(0, 2 ** 53, n // 2).tolist()]
    ok = _same(hexa + [str(v) for v in rng.integers(-2 ** 53 + 1, 2 ** 53, n // 2).tolist()],
               integral=True)
    assert ok.all()


def test_powers_of_two_and_ten_and_their_neighbours_round_trip():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-30, 31)])
    for x in (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers):
        _same(_column_text(x))
        trace = LatencyTrace(np.abs(x), np.arange(x.size), np.abs(x))
        table = canon._read_cells(canon.table_text(trace).encode(), len("t_s,seq,rtt_ms\n"),
                                  3, optional=False)
        assert (table[:, 0].view(np.int64) == trace.t_s.view(np.int64)).all()
