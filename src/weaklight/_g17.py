"""Exact ``%.17g`` text of float64 arrays, computed with numpy.

Each value is written as ``D * 10**(X - 16)`` with ``D`` a 17-digit integer,
``10**16 <= D < 10**17``, rounded to nearest from the exact binary value:

- ``k = floor(log10|x|)``; the scale ``10**(16 - k)`` is a double-double
  ``hi + lo``, built from Python integers to 2**-106, and ``|x| * (hi + lo)`` is
  ``s + l``: Dekker's exact two-product of ``|x| * hi`` plus ``|x| * lo``,
  renormalized so that ``s`` is the nearest double to the sum.  The error of
  ``s + l`` is below 1e-14 (relative error 2**-106 of the scale, and the
  rounding of the ``|x| * lo`` and sum terms, each under 2e-15).
- While ``s + l`` lies outside ``[1e16, 1e17)``, ``k`` moves by one; the test
  is on the pair, not on ``s`` alone (``s == 1e16`` with ``l < 0`` is below
  the range).  After three passes a value still outside goes to the fallback.
- ``D = s + floor(l)``, plus one when the fraction of ``l`` is above 1/2;
  ``D = 10**17`` becomes ``10**16`` with ``X = k + 1``.

**Fallback.**  A value whose fraction lies within 1e-6 of 1/2 (a possible
tie, far wider than the error bound), whose magnitude lies outside
``[1e-270, 1e270]`` (zeros, subnormals, NaN and infinities included), or
whose range test did not settle, is formatted by one ``%`` operation per call
on a ``%.17g`` template and spliced in.  So is every value of an array
shorter than 32, where ``%`` costs less than the numpy path.

**Slots.**  Each value is one row of ``WIDTH`` uint8 slots; a 0 byte marks an
unused slot and the text is the row without them::

    0       sign ``-``
    1-5     ``0.000``: the lead of a fixed-point value below 1
    6-38    d0 . d1 . d2 ... . d16: digit i at 6 + 2i, a decimal point
            before it at 5 + 2i
    39-43   ``e``, the exponent's sign and its two or three digits

A fallback string, without its sign, fills the slots from 1 on.
"""

import math

import numpy as np

WIDTH = 44
_DIGIT, _EXP = 6, 39
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")

# scale exponents e = 16 - k that |x| in [1e-270, 1e270] can reach, with
# room for the range passes
_EMIN, _EMAX = -260, 295
_SPLIT = 134217729.0                    # 2**27 + 1, Dekker's splitter
_TIE = 1e-6
# shorter arrays go to the fallback whole: the numpy path's fixed cost,
# about 0.2 ms a call, is more than `%` takes for them
_SHORT = 32


def _scales():
    """(hi, lo) with hi + lo = 10**e to 2**-106, for e in [_EMIN, _EMAX]."""
    hi, lo = [], []
    # floor(2**bits / 10**-e) holds 10**e to 2**-110 down to _EMIN
    bits = 974
    q = 1 << bits
    for _ in range(-_EMIN):
        q //= 10
        h = float(q)
        hi.append(math.ldexp(h, -bits))
        lo.append(math.ldexp(float(q - int(h)), -bits))
    hi.reverse()
    lo.reverse()
    n = 1
    for _ in range(_EMAX + 1):
        h = float(n)
        hi.append(h)
        lo.append(float(n - int(h)))
        n *= 10
    return np.array(hi), np.array(lo)


def _split(a):
    t = a * _SPLIT
    head = t - (t - a)
    return head, a - head


_HI, _LO = _scales()
_HI_HEAD, _HI_TAIL = _split(_HI)
# the four digit characters of 0000 .. 9999, and their trailing zeros
_QUADS = np.stack(np.meshgrid(*[np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).reshape(10000, 4)
_TRAILING = np.zeros((10,) * 4, np.int64)
for _zeros in range(1, 5):
    _TRAILING[(Ellipsis,) + (0,) * _zeros] = _zeros
_TRAILING = _TRAILING.ravel()
# _KEEP[n]: 0xFF in the first n of 17 digit slots; _LEADS[j]: "0." and j - 1 zeros
_KEEP = np.where(np.arange(17) < np.arange(18)[:, None], 0xFF, 0).astype(np.uint8)
_LEADS = np.frombuffer(b"\0\0\0\0\0" b"0.\0\0\0" b"0.0\0\0" b"0.00\0" b"0.000",
                       np.uint8).reshape(5, 5)
# "e-330" .. "e+330" as %g writes them (two digits below 100), 0-padded to 5 slots
_EXPONENT_MIN = -330
_EXPONENTS = np.array([b"e%+03d" % e for e in range(_EXPONENT_MIN, -_EXPONENT_MIN + 1)],
                      dtype="S5")[:, None].view(np.uint8)


def _scaled(ax, k):
    """(s, l): s + l = ax * 10**(16 - k), s the nearest double to the sum."""
    i = 16 - _EMIN - k
    p = ax * _HI[i]
    head, tail = _split(ax)
    hh, ht = _HI_HEAD[i], _HI_TAIL[i]
    q = (((head * hh - p) + head * ht + tail * hh) + tail * ht) + ax * _LO[i]
    s = p + q
    return s, q - (s - p)


def _off(s, l):
    """-1 where s + l < 1e16, +1 where s + l >= 1e17, else 0."""
    low = (s < 1e16) | ((s == 1e16) & (l < 0))
    high = (s > 1e17) | ((s == 1e17) & (l >= 0))
    return high.view(np.int8) - low.view(np.int8)


def _decimal(ax):
    """(D, X, ok): ax = D * 10**(X - 16) rounded to nearest, wherever ok."""
    k = np.floor(np.log10(ax)).astype(np.int64)
    s, l = _scaled(ax, k)
    off = _off(s, l)
    bad = np.flatnonzero(off)
    for _ in range(3):
        if not bad.size:
            break
        k[bad] += off[bad]
        s[bad], l[bad] = _scaled(ax[bad], k[bad])
        off[bad] = _off(s[bad], l[bad])
        bad = bad[off[bad] != 0]
    whole = np.floor(l)
    frac = l - whole
    ok = np.abs(frac - 0.5) >= _TIE
    ok[bad] = False
    d = s.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    return d, k + carry, ok


def _layout(out, ax):
    """Write the digits, point, lead and exponent of each value of the flat
    array ``ax`` into its row of ``out``; returns where that text is exact."""
    fast = (ax >= 1e-270) & (ax <= 1e270)
    d, big_x, ok = _decimal(np.where(fast, ax, 1.0))
    lead = d // 10 ** 16
    groups = [d - lead * 10 ** 16]
    for scale in (10 ** 12, 10 ** 8, 10 ** 4):
        groups[-1:] = divmod(groups[-1], scale)
    chars = np.empty((ax.shape[0], 17), np.uint8)
    chars[:, 0] = lead + _ZERO
    chars[:, 1:] = np.take(_QUADS, np.stack(groups, axis=1), axis=0).reshape(-1, 16)
    zeros = np.take(_TRAILING, groups[0])
    for g in groups[1:]:
        zeros = np.take(_TRAILING, g) + (g == 0) * zeros
    ndig = 17 - zeros
    fixed = (big_x >= -4) & (big_x < 17)
    below_one = fixed & (big_x < 0)
    shown = np.where(fixed & ~below_one, np.maximum(ndig, big_x + 1), ndig)
    out[:, _DIGIT:_EXP:2] = np.take(_KEEP, shown, axis=0) & chars
    # the decimal point goes before digit X + 1 (fixed) or digit 1 (e-style)
    point = np.where(fixed, big_x + 1, 1)
    rows = np.flatnonzero(~below_one & (ndig > point))
    out[rows, _DIGIT - 1 + 2 * point[rows]] = _DOT
    out[:, 1:_DIGIT] = np.take(_LEADS, np.where(below_one, -big_x, 0), axis=0)
    rows = np.flatnonzero(~fixed)
    out[rows, _EXP:WIDTH] = np.take(_EXPONENTS, big_x[rows] - _EXPONENT_MIN, axis=0)
    return ok & fast


def slots(values, tail=b""):
    """The ``%.17g`` slot rows of a float64 array, ``tail`` after each.

    Returns a new C-contiguous uint8 array of shape ``values.shape + (WIDTH +
    len(tail),)``; ``text`` turns slot rows into the values' text.
    """
    x = np.asarray(values, dtype=np.float64)
    out = np.zeros((x.size, WIDTH + len(tail)), np.uint8)
    out[:, WIDTH:] = np.frombuffer(tail, np.uint8)
    ax = np.abs(x).ravel()
    ok = _layout(out, ax) if ax.shape[0] >= _SHORT else np.zeros(ax.shape[0], bool)
    rows = np.flatnonzero(~ok)
    if rows.size:
        text = ("%.17g," * rows.size % tuple(ax[rows].tolist())).encode()
        out[rows, 1:WIDTH] = np.array(
            text.split(b",")[:-1], dtype=f"S{WIDTH - 1}")[:, None].view(np.uint8)
    out[:, 0] = np.where(np.signbit(x) & ~np.isnan(x), _MINUS, 0).ravel()
    return out.reshape(x.shape + out.shape[1:])


def text(rows):
    """The text of a uint8 slot array: its bytes without the 0 bytes."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")
