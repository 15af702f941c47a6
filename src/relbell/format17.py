"""``'%.17g' % x`` of a float array, byte for byte, in numpy.

``'%.17g' % x`` writes the 17-digit integer N = round(|x| 10**(16 - k)),
k = floor(log10(|x|)), in fixed notation for -4 <= k < 17 and as
d.ddd...e+kk otherwise, with trailing zeros and a bare point dropped.
Python forms N with a bignum for each value. ``format_17g`` forms it in
float arithmetic for a whole array: |x| times a double-double
10**(16 - k) through Dekker's two-product (Numer. Math. 18, 224 (1971);
Veltkamp's split, no fma) is p + t to within ~1e-14, p an integer-valued
double. A value is certified, and its N exact, when p + t lies in
[1e16, 1e17) (an estimate of k one off is retried once, a carry to 1e17
moves to the next k) and its fraction is more than 1e-9 from 1/2; so
exact ties, which Python rounds half to even, are never certified. The
others (ties, NaN, inf, |x| outside [1e-280, 1e280)) are formatted by
``'%.17g' % x`` itself.

``audit`` imports this module on first use, so that a process that
writes no large report does not compile it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1
_K_LO, _K_HI = -282, 281  # the exponents k whose 10**(16 - k) the table holds
_X_MIN, _X_MAX = 1e-280, 1e280
_TIE_MARGIN = 1e-9
#: Bytes per value: sign, "0.000" prefix, 17 digits and a point, "e+308".
SLOT = 29
_COLUMN = np.arange(18, dtype=np.int8)[:, None]


@cache
def _tables():
    """Tables of format_17g, built on first use: 10**(16 - k) as Veltkamp
    halves and a low part (3, K); the four ASCII digits of 0..9999 as
    uint32, and their trailing zero count (4 for 0000); the NUL-padded
    "0.000" prefix and exponent text of each k (10, K)."""
    pow10, affixes = [], []
    for k in range(_K_LO, _K_HI + 1):
        e = 16 - k
        if e >= 0:
            power = 10 ** e
            hi = float(power)
            lo = float(power - int(hi))
        else:
            power = 10 ** -e
            hi = 1 / power
            num, den = hi.as_integer_ratio()
            lo = (den - num * power) / (den * power)
        split = _SPLIT * hi
        head = split - (split - hi)
        pow10.append((head, hi - head, lo))
        prefix = b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b""
        exponent = b"" if -4 <= k <= 16 else b"e%+03d" % k
        affixes.append(prefix.ljust(5, b"\0") + exponent.ljust(5, b"\0"))
    n = np.arange(10000, dtype=np.uint16)
    quads = (n[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
    zeros = sum((n % d == 0).astype(np.uint8) for d in (10, 100, 1000, 10000))
    return (np.array(pow10).T.copy(), quads.view(np.uint32).ravel(), zeros,
            np.frombuffer(b"".join(affixes), np.uint8).reshape(-1, 10).T.copy())


def _times_pow10(a, k, pow10):
    """a * 10**(16 - k) as p + t, p = fl(a * hi) and t its error plus a * lo."""
    head, tail, lo = (row.take(k - _K_LO) for row in pow10)
    split = _SPLIT * a
    a_head = split - (split - a)
    a_tail = a - a_head
    p = a * (head + tail)
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    return p, err + a * lo


def format_17g(x) -> np.ndarray:
    """``'%.17g' % v`` of each float v of a 1-d array, byte for byte, as
    (SLOT, n) uint8 planes: column j holds the text of x[j] with NUL bytes
    in between and after, which the reader drops."""
    x = np.asarray(x, dtype=float)
    digits, k, ok = _decimal(x)
    text, significant = _digit_rows(digits)
    del digits
    # The point follows digit `point` (none for 17: fixed k < 0 has it
    # in the prefix); `last` is the last byte kept, trailing zeros and a
    # bare point dropped.
    k8 = k.astype(np.int8, casting="unsafe")
    point = np.where((k >= -4) & (k <= 16), np.where(k >= 0, k8, np.int8(17)), np.int8(0))
    last = np.where(significant > point + 1, significant,
                    np.where(point < 17, point, significant - 1))
    last[x == 0.0] = 0
    out = np.empty((SLOT, x.size), np.uint8)
    out[0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    affixes = _tables()[3]
    out[1:6] = affixes[:5].take(k - _K_LO, axis=1)
    out[24:] = affixes[5:].take(k - _K_LO, axis=1)
    body = out[6:24]  # digit c up to the point, then the point, then digit c - 1
    np.subtract(text[1:19], text[0:18], out=body)
    body *= _COLUMN <= point
    body += text[0:18]
    body += (np.uint8(ord(".")) - body) * (_COLUMN == point + 1)
    body *= _COLUMN <= last
    for j in np.flatnonzero(~ok).tolist():
        fallback = np.frombuffer(("%.17g" % x[j]).encode(), np.uint8)
        out[:, j] = 0
        out[:fallback.size, j] = fallback
    return out


def _decimal(x):
    """(N, k, certified) of each value: the 17-digit integer (0 for a
    zero), its decimal exponent, and whether both are certified exact."""
    pow10 = _tables()[0]
    a = np.abs(x)
    ok = (a >= _X_MIN) & (a < _X_MAX)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    p, t = _times_pow10(a, k, pow10)
    below = (p - 1e16) + t < 0.0
    above = (p - 1e17) + t >= 0.0
    off = np.flatnonzero(below | above)
    if off.size:
        k[off] += above[off].astype(np.intp) - below[off]
        p[off], t[off] = _times_pow10(a[off], k[off], pow10)
        ok[off] &= ((p[off] - 1e16) + t[off] >= 0.0) & ((p[off] - 1e17) + t[off] < 0.0)
    whole = np.floor(t)
    t -= whole
    ok &= np.abs(t - 0.5) > _TIE_MARGIN
    digits = p.astype(np.int64)
    digits += whole.astype(np.int64)
    digits += t > 0.5
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    k += carry
    zero = x == 0.0
    digits[zero] = 0
    k[zero] = 0
    return digits, k, ok | zero


def _digit_rows(digits):
    """The 17 ASCII digits of each N as rows 1..17 of a (19, n) array
    whose rows 0 and 18 are NUL, and the count of digits up to the last
    nonzero one."""
    quads, quad_zeros = _tables()[1:3]
    upper, lower = np.divmod(digits, 10 ** 8)
    head, upper = np.divmod(upper, 10 ** 8)
    # N in four-digit groups, the first a single digit.
    groups = (head, *np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4))
    text = np.zeros((19, digits.size), np.uint8)
    significant = np.full(digits.size, 17, np.int8)
    trailing_zeros = np.ones(digits.size, bool)
    for g in range(4, -1, -1):
        text[max(4 * g - 2, 1):4 * g + 2] = (
            quads.take(groups[g]).view(np.uint8).reshape(-1, 4)[:, 3 if g == 0 else 0:].T)
        zeros = quad_zeros.take(groups[g])
        significant -= trailing_zeros * zeros
        trailing_zeros &= zeros == 4
    return text, significant
