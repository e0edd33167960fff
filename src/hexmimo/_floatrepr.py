"""`float.__repr__` and `int.__str__` of whole arrays, as byte matrices.

`float_reprs` gives each float64 the bytes `repr` gives it: the shortest
decimal string that reads back as the same float, nearest to it among the
shortest (David Gay's dtoa in mode 0, which CPython uses).  Values in
[1e-8, 1e15) take a numpy path of exact integer arithmetic; the rest, and
the rare value the path cannot settle, go through `float.__repr__` itself.
`int_digits` prints non-negative integers.  Rows are 0x00-padded to a
common width; a caller strips the padding with `bytes.translate(None,
b"\\0")` once it has laid out its lines.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # the longest float repr, '-2.2250738585072014e-308'

_LO, _HI = 1e-8, 1e15  # the numpy path's domain: E in [-8, 14] below
_POW5 = np.array([5 ** s for s in range(26)], np.uint64)
_POW10 = np.array([10 ** j for j in range(18)], np.int64)
# '0000' .. '9999', four ASCII bytes each, read as one uint32
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_GROUPS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"),
                   axis=-1).view(np.uint32).ravel()
# A float's row of source bytes: 20 zero-padded digits of its 17-digit
# significand C (digit i of C at byte 3 + i), then these.
_TAIL = np.frombuffer(b".0e-5678\0\0\0\0", np.uint32)
_DOT, _ZERO, _EXP, _MINUS, _EXP5, _PAD = 20, 21, 22, 23, 24, 28


def _layout(e: int, nd: int) -> list[int]:
    """Source bytes of the repr of nd significant digits whose first has
    decimal exponent e; `repr` switches to exponent form at e < -4."""
    digits = [3 + i for i in range(nd)]
    if e >= 0:   # ddd.ddd, or ddd.0 with the whole part's zeros from C
        whole = [3 + i for i in range(e + 1)]
        return whole + [_DOT] + (digits[e + 1:] or [_ZERO])
    if e >= -4:  # 0.000ddd
        return [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits
    dot = [_DOT] + digits[1:] if nd > 1 else []
    return digits[:1] + dot + [_EXP, _MINUS, _ZERO, _EXP5 + (-e - 5)]


# one row per (E + 8) * 17 + nd - 1, E in [-8, 14], nd in [1, 17]
_LAYOUTS = np.frombuffer(b"".join(bytes(_layout(e, nd)).ljust(WIDTH, bytes([_PAD]))
                                  for e in range(-8, 15) for nd in range(1, 18)),
                         np.uint8).reshape(-1, WIDTH)
_BLOCK = 1 << 12  # values per pass: every temporary array is small


def _ascii_digits(v: np.ndarray, out: np.ndarray) -> None:
    """Write the last 4 g decimal digits of each of `v` (non-negative
    int64), zero-padded, into `out`, an (n, g) uint32 block of 4 ASCII
    bytes a column."""
    for col in range(out.shape[1] - 1, -1, -1):
        high = v // 10 ** 4
        out[:, col] = _GROUPS[v - high * 10 ** 4]  # % is slower than // and *
        v = high


def _scaled(f: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Floor and remainder of f * 5^s / 2^t, exactly.  f is below 2^53 and
    s at most 25, so 5^s is below 2^59 and the product below 2^112: two
    uint64 limbs hold it.  1 <= t <= 56 keeps both shifts in range, and the
    quotient is below 10^18, so it fits the low limb."""
    p = _POW5[s]
    f1, f0, p1, p0 = f >> 32, f & 0xFFFFFFFF, p >> 32, p & 0xFFFFFFFF
    mid, low = f0 * p1 + f1 * p0, f0 * p0  # mid below 2^60
    lo = low + (mid << 32)                 # wraps: the carry goes to hi
    hi = f1 * p1 + (mid >> 32) + (lo < low)
    t = t.astype(np.uint64)
    return (lo >> t) | (hi << (64 - t)), lo & ((1 << t) - 1)


def float_reprs(x) -> np.ndarray:
    """(n, WIDTH) uint8 matrix whose row i is `repr(float(x[i]))` in ASCII,
    0x00-padded.

    The numpy path takes finite x in [1e-8, 1e15) whose mantissa is not a
    power of two.  Write x = f 2^q (f in [2^52, 2^53)) and choose s so that
    D = x 10^s = f 5^s / 2^t, t = -(q + s), lies in [10^16, 10^17): its
    first digit has the exponent E = 16 - s in [-8, 14], and s in [2, 24]
    and t in [1, 55] follow from that range of E (t <= 56 and s <= 25 while
    a log10 estimate off by one is corrected).  `_scaled` gives N = floor(D)
    and the remainder r of D = N + r / 2^t.

    A decimal reads back as x when it lies within half an ulp of x, which
    is 5^s / 2^(t+1) in units of D.  Both ends D +- 5^s / 2^(t+1) have an
    odd numerator over 2^(t+1) (2^(t+1) N + 2r is even, 5^s odd), so no
    integer lies on an end: how reading breaks such a tie never matters,
    and the valid integers are exactly [lo, hi] with lo = floor(D - half)
    + 1 and hi = floor(D + half).  Half an ulp is D / 2f, in (0.55, 11.2),
    so [lo, hi] is never empty.  The shortest repr has 17 - J digits, J the
    largest j for which a multiple of 10^j lies in [lo, hi]; every smaller
    j has one too, so a scan from j = 1 stops at the first j without.
    Among the multiples of 10^J, dtoa picks the one nearest D, and as the
    interval is symmetric about D, that one lies in it.

    Sent to `float.__repr__` instead: everything outside the domain (0.0,
    -0.0, inf, nan, subnormals, negatives, 1e15 and up), a power-of-two
    mantissa, whose interval is not symmetric about x, and two multiples
    of 10^J equally near D, which dtoa breaks by its own rule.
    """
    x = np.asarray(x, np.float64).ravel()
    out = np.empty((len(x), WIDTH), np.uint8)
    for lo in range(0, len(x), _BLOCK):
        _reprs(x[lo:lo + _BLOCK], out[lo:lo + _BLOCK])
    return out


def _reprs(x: np.ndarray, out: np.ndarray) -> None:
    """`float_reprs` of one block, written into `out`."""
    fast, c, e, nd = _shortest(x)
    source = np.empty((len(x), 8), np.uint32)
    _ascii_digits(c, source[:, :5])
    source[:, 5:] = _TAIL
    # each row gathers its bytes from its own row of `source`
    at = _LAYOUTS[(e + 8) * 17 + nd - 1] + np.arange(0, 32 * len(x), 32)[:, None]
    source.view(np.uint8).ravel().take(at, out=out, mode="clip")

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(repr(v).encode().ljust(WIDTH, b"\0") for v in x[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, WIDTH)


def _shortest(x: np.ndarray):
    """(fast, C, E, nd) of a block: which values the numpy path settles,
    and for those the significand C (17 digits, the last 17 - nd zeros),
    the exponent E of its first digit and its number of digits nd."""
    fast = (x >= _LO) & (x < _HI)  # false for nan
    x_fast = np.where(fast, x, 1.5)
    m, q = np.frexp(x_fast)
    f = (m * 2.0 ** 53).astype(np.uint64)
    fast &= f != 1 << 52
    s = 16 - np.floor(np.log10(x_fast)).astype(np.int64)
    t = 53 - q - s
    big, r = _scaled(f, s, t)
    # np.log10 may round across an integer just below a power of ten
    off = np.flatnonzero((big < 10 ** 16) | (big >= 10 ** 17))
    if off.size:
        s[off] += np.where(big[off] < 10 ** 16, 1, -1)
        t[off] = 53 - q[off] - s[off]
        big[off], r[off] = _scaled(f[off], s[off], t[off])
    big, r, half = big.view(np.int64), r.view(np.int64), _POW5[s].view(np.int64)
    lo = big + ((2 * r - half) >> (t + 1)) + 1
    hi = big + ((2 * r + half) >> (t + 1))  # [lo, hi]: the valid integers

    shortest, alive = np.zeros(len(x), np.int64), np.flatnonzero(fast)
    for j in range(1, 18):
        alive = alive[hi[alive] // 10 ** j != (lo[alive] - 1) // 10 ** j]
        if not alive.size:
            break
        shortest[alive] = j

    # the multiple of 10^J nearest D: floor or ceil of D to 10^J, by the
    # sign of 2^t (2 (D - floor) - 10^J); the clip keeps that sign
    unit = _POW10[shortest]
    c = big // unit * unit
    side = np.clip(2 * (big - c) - unit, -2, 2) * (1 << t) + 2 * r
    fast &= side != 0
    c += np.where(side > 0, unit, 0)
    # J = 17 is C = 10^17: one digit, one exponent up
    ten = c == 10 ** 17
    c[ten], s[ten], shortest[ten] = 10 ** 16, s[ten] - 1, 16
    return fast, c, 16 - s, 17 - shortest


def int_digits(values) -> np.ndarray:
    """(n, w) uint8 matrix whose row i is `str(values[i])` in ASCII,
    right-aligned and 0x00-padded, w the widest; values in [0, 2^63)."""
    v = np.asarray(values, np.int64).ravel()
    width = len(str(int(v.max()))) if len(v) else 1
    digits = np.empty((len(v), -(-width // 4)), np.uint32)
    _ascii_digits(v, digits)
    out = digits.view(np.uint8)[:, digits.shape[1] * 4 - width:]
    for col in range(width - 1):  # a leading zero is padding
        out[:, col][v < 10 ** (width - 1 - col)] = 0
    return out
