"""The exact decimal reader: numeric cells of a byte buffer as float64.

`decode` is the read-side twin of `canon.csv_bytes`, and every reader of
numbers in text goes through it: the ping fields, the fullstats columns
and the canonical CSV cells. Its values are float()'s bit for bit. A
cell it cannot prove that way is refused, and its caller reads it with
its own per-cell rule, which stays the definition of the result.

Cells are read eight bytes to a word (SWAR). Each cell is gathered
right-aligned into one to three little-endian uint64 words; the bytes
before it, a sign and the decimal point become '0', and one bit test
per word proves that what is left is digits. The digits then give the
mantissa M and the count k of digits after the point:

- fast path: M below 2**53 and k <= 22. M and 10**k are then both exact
  doubles, and M / 10**k is float()'s value, rounded once (Clinger);
- long path: M of 2**53 up to 9 * 10**18. The candidate x = fl(M) / 10**k
  lies within about an ulp of M / 10**k. Dekker's two-product gives the
  residual M - x * 10**k exactly, and x, or failing that its neighbour
  towards the residual, is float()'s value when the residual lies
  strictly inside its half-ulp interval, with a margin. A near tie is
  refused.

In an `integral` column a cell is a whole number below 2**53: decimal
digits with an optional sign, or `0x` or `0X` followed by hex digits.
An empty cell reads as NaN.
"""

from __future__ import annotations

import numpy as np

# Integers float64 holds exactly and without a neighbour it rounds to
# them: the one bound every reader applies to an integral value.
MAX_EXACT_INT = 2.0 ** 53

# The longest cell decode reads, in bytes; a longer one is refused.
MAX_CELL = 24
POW10 = 10.0 ** np.arange(23)      # exact up to 10**22
# Dekker's split of a double into two halves of at most 26 bits.
SPLIT = 2.0 ** 27 + 1
POW10_HI = SPLIT * POW10 - (SPLIT * POW10 - POW10)
POW10_LO = POW10 - POW10_HI
# Relative margin within which a rounding tie counts as met: the cell is
# then refused (here) or rendered by repr (canon).
TIE_MARGIN = 1e-9

# Cells decoded at a time: a block's word and mask arrays stay in cache.
_BLOCK = 1 << 15
_U = np.uint64
_INT_POW10 = 10 ** np.arange(20, dtype=_U)


def _lanes(byte: int) -> np.uint64:
    return _U(int.from_bytes(bytes([byte]) * 8, "little"))


_ZEROS, _ONES, _HIGH, _ABOVE_NINE = map(_lanes, (48, 1, 128, 0x46))
# _COVER[16 + c]: the low c bytes of a word (none for c < 0, all for
# c > 8), the first c characters of it.
_COVER = np.array([(1 << 8 * min(max(c, 0), 8)) - 1 for c in range(-16, 25)], dtype=_U)
# Byte k holds k: the top byte of (1 << 8i) * _BYTE_NO is 7 - i.
_BYTE_NO = 0x0706050403020100
_DOT_TO_ZERO = _U(ord(".") ^ ord("0"))
_PAIRS, _QUADS, _OCTETS = _U(0x00FF00FF00FF00FF), _U(0x0000FFFF0000FFFF), _U(0xFFFFFFFF)
_NIBBLE = np.full(256, 255, np.uint8)
_NIBBLE[np.frombuffer(b"0123456789abcdefABCDEF", np.uint8)] = [*range(16), *range(10, 16)]


def words_at(buf: np.ndarray) -> np.ndarray:
    """The little-endian uint64 word starting at each byte offset of the
    uint8 buffer buf (but its last seven), a view of it."""
    return np.ndarray((len(buf) - 7,), "<u8", np.ascontiguousarray(buf), strides=(1,))


def first_byte(words: np.ndarray, byte: int) -> np.ndarray:
    """Per word, 1 << 8i for its first byte i (in text order) that is
    `byte`, and 0 where none is."""
    x = words ^ _lanes(byte)
    first = (x - _ONES) & ~x & _HIGH    # the high bit of each such byte, and
    first &= ~first + _U(1)             # maybe of one above it: keep the lowest
    return first >> _U(7)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of each word of eight ASCII digits, first byte most
    significant."""
    v = words - _ZEROS
    v = (v * _U(10) + (v >> _U(8))) & _PAIRS
    v = (v * _U(100) + (v >> _U(16))) & _QUADS
    return (v * _U(10000) + (v >> _U(32))) & _OCTETS


def _eight_nibbles(words: np.ndarray) -> np.ndarray:
    """The value of each word of eight nibble bytes (0-15), first byte
    most significant."""
    v = ((words << _U(4)) | (words >> _U(8))) & _PAIRS
    v = ((v << _U(8)) | (v >> _U(16))) & _QUADS
    return ((v << _U(16)) | (v >> _U(32))) & _OCTETS


def _inside(x: np.ndarray, residual: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Whether residual, the exact M - x * scale, lies strictly inside
    the interval of reals that round to x (half the gap to each
    neighbour, in M units), by more than TIE_MARGIN."""
    up = (x.view(np.int64) + 1).view(np.float64) - x
    down = x - (x.view(np.int64) - 1).view(np.float64)
    bound = (0.5 - 0.5 * TIE_MARGIN) * scale
    return (residual < up * bound) & (-residual < down * bound)


def _long_path(m: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(proven, value): float() of M / 10**k for int64 mantissas M of
    2**53 or more, where proven."""
    x = m / POW10[k]
    scale = POW10[k]
    p = x * scale
    split = SPLIT * x
    hi = split - (split - x)
    lo = x - hi
    s_hi, s_lo = POW10_HI[k], POW10_LO[k]
    err = ((hi * s_hi - p) + hi * s_lo + lo * s_hi) + lo * s_lo
    # p is a whole number near M (>= 2**53), so M - p is exact in int64.
    residual = (m - p.astype(np.int64)).astype(np.float64) - err
    proven = _inside(x, residual, scale)
    step = np.where(residual > 0, 1, -1)
    other = (x.view(np.int64) + step).view(np.float64)
    moved = ~proven & _inside(other, residual - (other - x) * scale, scale)
    return proven | moved, np.where(moved, other, x)


def _hex(words: np.ndarray, cover: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ok, value) of hex cells in words (one column of words per cell,
    its first cover bytes the prefix 0x or before the cell): ok where
    every other byte is a hex digit and the value is below 2**53."""
    for j, w in enumerate(words):
        mask = _COVER[16 + cover - 8 * j]
        w &= ~mask
        w |= _ZEROS & mask
    nibbles = _NIBBLE[words.T.copy().view(np.uint8)]
    ok = nibbles.max(axis=1) < 16
    value = np.zeros(len(cover))
    for w in nibbles.view("<u8").T:
        value = value * 2.0 ** 32 + _eight_nibbles(w)
    return ok & (value < MAX_EXACT_INT), value


def decode(buf: np.ndarray, start: np.ndarray, end: np.ndarray,
           integral: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(ok, value) of the cells buf[start:end] of a uint8 buffer: where
    ok, value is float() of the cell, or int(cell, 16) of an integral
    cell with the 0x prefix, and NaN for an empty cell. A cell of at
    most MAX_CELL bytes can be ok when it is [+-]?[0-9]+\\.?[0-9]*,
    [+-]?\\.[0-9]+, or in an integral column [+-]?[0-9]+ or 0[xX] and
    hex digits, below 2**53. Any other cell, and one decode cannot
    prove, is not ok: it is left to the caller."""
    n = len(start)
    if n > _BLOCK:
        parts = [decode(buf, start[a:a + _BLOCK], end[a:a + _BLOCK], integral)
                 for a in range(0, n, _BLOCK)]
        return tuple(np.concatenate(column) for column in zip(*parts))
    length = end - start
    fits = length <= MAX_CELL
    ok = fits.copy()
    if not n:
        return ok, np.zeros(0)
    width = 8 * max(1, -(-int(length.max(initial=0, where=ok)) // 8))
    if int(end.min()) < width or int(end.max()) >= len(buf):
        buf = np.concatenate((np.zeros(width, np.uint8), buf, np.zeros(1, np.uint8)))
        start, end = start + width, end + width
    at = words_at(buf)
    words = np.array([at[end - width + 8 * j] for j in range(width // 8)])
    lead = buf[start]
    sign = ((lead == 43) | (lead == 45)) & (length > 0)
    cover = np.clip(width - length + sign, 0, width)
    if integral:
        hexa = fits & (lead == 48) & (length > 2)
        hexa &= (buf[np.minimum(start + 1, len(buf) - 1)] | 32) == ord("x")
        hexa = np.flatnonzero(hexa)
        hex_words = words[:, hexa]
    dotted = np.zeros(n, dtype=bool)     # a '.' in some word
    twice = np.zeros(n, dtype=bool)      # in two
    after = np.zeros(n, _U)             # digits after the point
    wrong = np.zeros(n, _U)             # high bits of bytes that are no digit
    for j, w in enumerate(words):
        mask = _COVER[16 + cover - 8 * j]
        w &= ~mask
        w |= _ZEROS & mask
        if not integral:                # where a '.' may be
            first = first_byte(w, ord("."))
            w ^= first * _DOT_TO_ZERO
            here = first != 0
            twice |= dotted & here
            dotted |= here
            # Digits after a '.' in byte i: 7 - i in this word, 8 in each later.
            after += (first * _U(_BYTE_NO + _ONES * (8 * (len(words) - 1 - j)))) >> _U(56)
        wrong |= (w + _ABOVE_NINE) | (w - _ZEROS)
    ok &= ((wrong & _HIGH) == 0) & ~twice & ((length > sign + dotted) | (length == 0))
    raw = _eight_digits(words[0])
    if len(words) == 3:
        ok &= raw < 900                 # raw below 9e18, so int64 holds M
    for w in words[1:]:
        raw = raw * _U(10 ** 8) + _eight_digits(w)
    if integral:
        m = raw.astype(np.int64)
        value = m.astype(np.float64)
        ok &= m < MAX_EXACT_INT
    else:
        ok &= after <= 22
        frac = raw % _INT_POW10[np.minimum(after, 19)]
        m = np.where(dotted, (raw - frac) // _U(10) + frac, raw).astype(np.int64)
        k = np.minimum(after, 22).astype(np.intp)
        value = m / POW10[k]
        long = np.flatnonzero(ok & (m >= MAX_EXACT_INT))
        if long.size:
            ok[long], value[long] = _long_path(m[long], k[long])
    np.negative(value, out=value, where=lead == 45)
    value[length == 0] = np.nan
    if integral and hexa.size:
        ok[hexa], value[hexa] = _hex(hex_words, cover[hexa] + 2)
    return ok, value
