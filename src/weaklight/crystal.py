"""Dispersion models for the birefringent plate and the operators they generate.

Units are normalized: frequency in units of the default model's first
half-wave frequency, time in its inverse.  The default linear model carries
TE/TM phase slopes of 10*pi and 9*pi with zero offsets, so the TE-TM phase
difference is pi*omega and the plate acts as a half-wave plate exactly at
omega = 1, 3, 5, ...  TE is the slow axis by convention; swapping the axes is
a model-parameter change, not a code change.

Tabulated models are interpolated by the monotone piecewise cubic of Fritsch
and Carlson (PCHIP), built and evaluated here with numpy alone.  Its
coefficients, and its values at one frequency or at an array of them, equal
scipy's ``PchipInterpolator`` bit for bit; the tests check this.
"""

import math
import operator
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import _ends, _finite
from .jones import PolarizationOperator, rotation

__all__ = [
    "LinearDispersion",
    "TabulatedDispersion",
    "DispersionModel",
    "DEFAULT_MODEL",
    "domain",
    "phases",
    "phase_arrays",
    "group_delays",
    "delay_arrays",
    "half_wave_frequencies",
    "evolution_operator",
    "flight_operator",
    "load_tabulated",
]

TAU_TE_DEFAULT = 10.0 * math.pi
TAU_TM_DEFAULT = 9.0 * math.pi

# Root scans treat a value within this much (times the scale of its inputs)
# of zero as zero: the weight gap |p1|^2 - |p2|^2 of a crossed selection pair,
# zero in exact arithmetic, computes to at most 1.5 ulp of 1.
_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class LinearDispersion:
    """Linear birefringence: phi_i(omega) = tau_i * omega + phi0_i per axis."""

    tau_te: float = TAU_TE_DEFAULT
    tau_tm: float = TAU_TM_DEFAULT
    phi0_te: float = 0.0
    phi0_tm: float = 0.0

    def __post_init__(self):
        for name in ("tau_te", "tau_tm", "phi0_te", "phi0_tm"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.tau_te == self.tau_tm:
            raise ValueError(
                "tau_te and tau_tm must differ; equal slopes leave the "
                "half-wave frequency undefined")


@dataclass(frozen=True, eq=False)
class TabulatedDispersion:
    """Sampled birefringence, interpolated by a monotone piecewise cubic.

    The derivative used for group delays is the analytic derivative of the
    interpolant, so phases and delays stay mutually consistent.  Both come
    from one coefficient table per axis (``_pchip``): arrays are evaluated by
    ``_pieces`` on the table and single frequencies by ``_piece`` on a list
    copy of it, with the same interval search and term order.
    """

    omega_samples: np.ndarray
    phi_te_samples: np.ndarray
    phi_tm_samples: np.ndarray

    def __post_init__(self):
        w, te, tm = (_check_axis(name, getattr(self, name)).copy()
                     for name in ("omega_samples", "phi_te_samples", "phi_tm_samples"))
        if w.size < 2:
            raise ValueError("need at least 2 samples")
        if te.size != w.size or tm.size != w.size:
            raise ValueError("sample arrays must have equal length")
        if np.any(np.diff(w) <= 0.0):
            raise ValueError("omega samples must be strictly increasing")
        for arr in (w, te, tm):
            arr.setflags(write=False)
        object.__setattr__(self, "omega_samples", w)
        object.__setattr__(self, "phi_te_samples", te)
        object.__setattr__(self, "phi_tm_samples", tm)
        # samples near the float limit can overflow the interpolant's slopes
        # and terms; such a table is refused whole, not at some omega later
        with np.errstate(over="ignore", invalid="ignore"):
            phi = (_pchip(w, te), _pchip(w, tm))
            dphi = tuple(np.stack((c[1], 2.0 * c[2], 3.0 * c[3])) for c in phi)
        for name, c, dc in zip(("phi_te_samples", "phi_tm_samples"), phi, dphi):
            if not (np.isfinite(c).all() and np.isfinite(dc).all()):
                raise ValueError(f"{name} must give a finite interpolant")
        object.__setattr__(self, "_knots", w.tolist())
        object.__setattr__(self, "_phi_table", phi)
        object.__setattr__(self, "_dphi_table", dphi)
        object.__setattr__(self, "_phi_coeffs", tuple(c.tolist() for c in phi))
        object.__setattr__(self, "_dphi_coeffs", tuple(c.tolist() for c in dphi))


def _pchip(x, y):
    """PCHIP coefficients of y(x): one row per power, lowest first, one column per interval.

    The knot slopes, the end slopes and the cubic terms are computed
    operation by operation as scipy's ``PchipInterpolator`` computes them
    (``_find_derivatives``, ``_edge_case`` and ``CubicHermiteSpline``), so
    the table equals scipy's ``c[::-1]`` bit for bit.  Two knots give the
    straight line through them.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    d = np.empty_like(y)
    if y.size == 2:
        d[:] = m[0]
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        # divisions by a zero slope land only where flat is true; a slope so
        # small that w1 / m overflows gives the slope 0.0 there, as in scipy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))


def _end_slope(h0, h1, m0, m1):
    """The one-sided three-point slope at an end knot, limited to keep the data's shape.

    h0 and m0 are the width and slope of the end interval, h1 and m1 those
    of its neighbour.
    """
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


DispersionModel = Union[LinearDispersion, TabulatedDispersion]

DEFAULT_MODEL = LinearDispersion()


def domain(model):
    """Valid omega interval; linear models cover all omega >= 0."""
    if isinstance(model, TabulatedDispersion):
        return (model._knots[0], model._knots[-1])
    return (0.0, math.inf)


def _check_domain(model, wmin, wmax):
    """The one omega-domain check: refuse omegas from ``wmin`` to ``wmax`` outside ``domain``."""
    lo, hi = domain(model)
    if wmin < lo or wmax > hi:
        omega = wmin if wmin < lo else wmax
        if isinstance(model, TabulatedDispersion):
            raise ValueError(f"omega {omega!r} outside tabulated range [{lo:g}, {hi:g}]")
        raise ValueError(f"omega must be nonnegative, got {omega!r}")


def _check_omega(model, omega):
    omega = _finite("omega", omega)
    _check_domain(model, omega, omega)
    return omega


def _piece(knots, coeffs, omega):
    """Each piecewise polynomial of ``coeffs`` at one in-domain omega, as scipy's PPoly computes it.

    ``coeffs`` holds one table per polynomial, one row per power (lowest
    first) and one entry per interval.  The interval search is scipy's
    ``find_interval``: knots[i] <= omega < knots[i + 1], the last interval
    closed on the right.
    """
    i = min(bisect_right(knots, omega), len(knots) - 1) - 1
    return _sums(coeffs, i, omega - knots[i])


def _pieces(knots, coeffs, w):
    """``_piece`` at every omega of the in-domain array ``w``, with the same bits."""
    i = np.minimum(np.searchsorted(knots, w, side="right"), knots.size - 1) - 1
    return _sums(coeffs, i, w - knots[i])


def _sums(coeffs, i, s):
    """Each polynomial of ``coeffs`` on interval ``i``, ``s`` past its left knot.

    The terms are summed in the order of scipy's ``evaluate_poly1``, from
    0.0, so a -0.0 constant term sums to 0.0.
    """
    out = []
    for c in coeffs:
        res = 0.0
        z = 1.0
        for ck in c:
            res = res + ck[i] * z
            z = z * s
        out.append(res)
    return tuple(out)


def phases(model, omega):
    """(phi_te, phi_tm) at a single frequency; same rules as ``phase_arrays``."""
    omega = _check_omega(model, omega)
    if isinstance(model, LinearDispersion):
        phi = (model.tau_te * omega + model.phi0_te, model.tau_tm * omega + model.phi0_tm)
    else:
        phi = _piece(model._knots, model._phi_coeffs, omega)
    if not (math.isfinite(phi[0]) and math.isfinite(phi[1])):
        raise ValueError(f"phase is not finite at omega {omega!r}")
    return phi


def _check_axis(name, values):
    """``values`` as a contiguous float64 array that is nonempty, one-dimensional and finite.

    The one check of these properties on every sweep axis and sampled array
    of the package.  A ValueError names the input ``name``, with numpy's
    reason for values it cannot convert, the dtype of complex, datetime and
    timedelta values, a None entry and the first non-finite entry.
    Booleans convert to 0.0 and 1.0, as ``errors._finite`` takes them.
    """
    try:
        raw = np.asarray(values)
        # numpy casts complex values to floats with only a ComplexWarning and
        # datetimes to counts of their unit; strings convert from the input,
        # so that numpy's reason quotes them as given
        if raw.dtype.kind not in "cmM":
            a = np.asarray(values if raw.dtype.kind in "SU" else raw, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must hold real numbers: {exc}") from None
    if raw.dtype.kind in "cmM":
        raise ValueError(f"{name} must hold real numbers, got {raw.dtype} values")
    if a.ndim != 1 or a.size == 0:
        raise ValueError("sweep axes must be nonempty one-dimensional arrays, "
                         f"got {name} with shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        first = int(np.argmin(finite))
        # numpy converts a None entry to NaN
        if raw.dtype.kind == "O" and raw[first] is None:
            raise ValueError(f"{name} must hold real numbers, got None")
        raise ValueError(f"{name} must be finite, got {float(a[first])!r}")
    return a


def _check_omegas(model, omegas):
    """``omegas`` as a checked axis (``_check_axis``) inside the model's domain."""
    w = _check_axis("omega array", omegas)
    _check_domain(model, float(w.min()), float(w.max()))
    return w


def phase_arrays(model, omegas):
    """Vectorized phases(); same domain rules, returns two float arrays.

    A phase that overflows to a non-finite value raises ValueError naming
    its omega, on this path and the scalar one alike.
    """
    w = _check_omegas(model, omegas)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, LinearDispersion):
            pte, ptm = (model.tau_te * w + model.phi0_te,
                        model.tau_tm * w + model.phi0_tm)
        else:
            pte, ptm = _pieces(model.omega_samples, model._phi_table, w)
    finite = np.isfinite(pte) & np.isfinite(ptm)
    if not finite.all():
        raise ValueError(f"phase is not finite at omega {float(w[~finite][0])!r}")
    return pte, ptm


def group_delays(model, omega):
    """(tau_te, tau_tm) at a single frequency: the eigen-delays of the plate."""
    omega = _check_omega(model, omega)
    if isinstance(model, LinearDispersion):
        return (model.tau_te, model.tau_tm)
    return _piece(model._knots, model._dphi_coeffs, omega)


def delay_arrays(model, omegas):
    """Vectorized group_delays(); same domain rules, returns two float arrays."""
    w = _check_omegas(model, omegas)
    if isinstance(model, LinearDispersion):
        return (np.full(w.shape, model.tau_te), np.full(w.shape, model.tau_tm))
    return _pieces(model.omega_samples, model._dphi_table, w)


def _bisect_root(fun, a, b, fa):
    """A root of fun in [a, b], given fun(a) = fa and fun(b) of the other sign.

    Halves the bracket until fun is exactly zero at its midpoint or the
    midpoint rounds to an end, which leaves adjacent doubles.
    """
    while b - a > 0.0:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _refine_root(fun, a, b, fa, fb):
    """A root of fun in [a, b], given fun(a) = fa and fun(b) = fb of opposite signs.

    Returns what ``_bisect_root`` returns: a point where fun is exactly zero
    or an end of an adjacent-doubles sign change.  Steps are false position
    with the Illinois weighting: the value kept at an end that survives two
    steps in a row is halved, which converges superlinearly on a smooth
    simple root.  An interpolated step lands at least two ulps inside the
    bracket: where rounding leaves an end's value a little off zero, the
    sign change lies within a few ulps of that end, and a step rounded onto
    it would gain nothing.  An interpolated step that fails to halve the
    bracket is followed by a bisection step, so this takes at most about
    twice as many evaluations as bisection.  fun is called only strictly
    inside (a, b), and a bracket at most four ulps wide is finished by
    ``_bisect_root``.
    """
    a_negative = fa < 0.0
    kept = None  # the end the last step kept
    bisect = False
    while True:
        width = b - a
        margin = 2.0 * math.ulp(max(abs(a), abs(b)))
        if width <= 2.0 * margin:
            return _bisect_root(fun, a, b, fa)
        if bisect:
            x = 0.5 * (a + b)
        else:
            # fa and fb have opposite signs, so fa - fb does not cancel
            x = a + width * (fa / (fa - fb))
            if x != x:  # NaN, from an infinite end value
                x = 0.5 * (a + b)
            x = min(max(x, a + margin), b - margin)
        fx = fun(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == a_negative:
            a, fa = x, fx
            if kept == "b":
                fb *= 0.5
            kept = "b"
        else:
            b, fb = x, fx
            if kept == "a":
                fa *= 0.5
            kept = "a"
        bisect = not bisect and b - a > 0.5 * width


def _scan_roots(fun, grid, values, atol):
    """Ascending roots of fun on [grid[0], grid[-1]] from its values on that grid.

    ``values`` is fun on the ascending ``grid``.  A node whose value is within
    ``atol`` (the rounding error of the values) of zero is a root, so a root
    at or within rounding of a node, window ends included, is found once.
    Between nodes beyond ``atol`` of opposite sign, ``_refine_root`` narrows
    the cell to an exact zero or an adjacent-doubles sign change; it is given
    both node values, so a cell's ends cost no evaluation.  Roots that
    leave two adjacent nodes with the same sign, a tangential root or two
    roots in one cell, are not found.
    """
    near_zero = np.abs(values) <= atol
    sign = np.where(near_zero, 0.0, np.sign(values))
    roots = grid[near_zero].tolist()
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0).tolist():
        roots.append(_refine_root(fun, float(grid[i]), float(grid[i + 1]),
                                  float(values[i]), float(values[i + 1])))
    return sorted(roots)


def _half_wave_roots(model, omegas, phase_te, phase_tm, offset):
    """The omega in [omegas[0], omegas[-1]] where phi_te - phi_tm + offset is pi modulo 2*pi.

    These are the roots of cos((phi_te - phi_tm + offset)/2), scanned on the
    ascending ``omegas`` with ``phase_te, phase_tm = phase_arrays(model, omegas)``.
    """
    def fun(w):
        pte, ptm = phases(model, w)
        return math.cos(0.5 * (pte - ptm + offset))

    values = np.cos(0.5 * (phase_te - phase_tm + offset))
    atol = _ROUNDING * (1.0 + np.abs(phase_te) + np.abs(phase_tm))
    return _scan_roots(fun, omegas, values, atol)


def _linspace(lo, hi, n):
    """``np.linspace(lo, hi, n)`` for float ends and an int n >= 2, with the same bits.

    These are the array operations numpy's ``linspace`` makes its values
    with, in its order, without the argument handling that takes most of a
    short call: the nodes 0, 1, ..., n - 1 times the step (hi - lo) / (n - 1)
    plus lo, and hi as the last node.  A step that underflows to zero takes
    numpy's other path: the nodes divided by n - 1, then times hi - lo.  The
    array operations warn as numpy's do; hi - lo is a Python float, which
    overflows to inf without the warning numpy gives.
    """
    step = (hi - lo) / (n - 1)
    y = np.arange(n, dtype=float)
    if step == 0.0:
        y /= n - 1
        y *= hi - lo
    else:
        y *= step
    y += lo
    y[-1] = hi
    return y


def _scan(name, interval, n):
    """``np.linspace`` of a range with finite, increasing ends and width, at an integer n >= 2."""
    lo, hi = _ends(name, interval)
    if not lo < hi:
        raise ValueError(f"empty {name} [{lo!r}, {hi!r}]")
    _finite(f"{name} width", hi - lo)
    with suppress(TypeError):
        count = operator.index(n)
        if count >= 2:
            return _linspace(lo, hi, count)
    raise ValueError(f"scan density must be at least 2 and an integer, got {n!r}")


def half_wave_frequencies(model, omega_range, scan=1000):
    """All omega in the closed range where phi_te - phi_tm is pi modulo 2*pi.

    Roots of cos((phi_te - phi_tm)/2) are bracketed on a ``scan``-point grid
    and each bracket is narrowed by false position to an adjacent-doubles
    sign change (``_refine_root``); a grid node within rounding of a root is
    returned as it is.  Tangential (double) roots that never change sign
    on the scan grid are not detected.  ``omega_range`` needs finite,
    increasing ends, and ``scan`` is an integer >= 2, never truncated.
    """
    omegas = _scan("omega_range", omega_range, scan)
    return _half_wave_roots(model, omegas, *phase_arrays(model, omegas), 0.0)


def evolution_operator(model, omega, beta):
    """R(beta) diag(e^{i phi_te}, e^{i phi_tm}) R(-beta); unitary by construction."""
    phi_te, phi_tm = phases(model, omega)
    diag = PolarizationOperator(
        complex(math.cos(phi_te), math.sin(phi_te)), 0.0,
        0.0, complex(math.cos(phi_tm), math.sin(phi_tm)))
    return rotation(beta) @ diag @ rotation(-beta)


def flight_operator(model, omega, beta):
    """Time-of-flight observable R(beta) diag(tau_te, tau_tm) R(-beta).

    Hermitian for every beta; its eigenvalues are the eigen-delays at omega
    regardless of the plate angle.
    """
    tau_te, tau_tm = group_delays(model, omega)
    diag = PolarizationOperator(complex(tau_te), 0.0, 0.0, complex(tau_tm))
    return rotation(beta) @ diag @ rotation(-beta)


def load_tabulated(path):
    """Read a tabulated dispersion CSV into a TabulatedDispersion.

    Schema: one header line ``omega,phi_te,phi_tm``; '#' comment lines and
    blank lines are ignored; data rows are three decimal numbers ascending in
    omega; UTF-8.
    """
    omegas = []
    tes = []
    tms = []
    header_seen = False
    last = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                cols = [c.strip() for c in line.split(",")]
                if cols != ["omega", "phi_te", "phi_tm"]:
                    raise ValueError(
                        f"{path}: line {lineno}: expected header "
                        f"'omega,phi_te,phi_tm', got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed row at line {lineno}: {line!r}")
            try:
                w, te, tm = (float(p) for p in parts)
            except ValueError:
                raise ValueError(
                    f"{path}: malformed row at line {lineno}: {line!r}") from None
            if last is not None and w <= last:
                raise ValueError(f"{path}: non-increasing omega at line {lineno}")
            last = w
            omegas.append(w)
            tes.append(te)
            tms.append(tm)
    if not header_seen:
        raise ValueError(f"{path}: missing header 'omega,phi_te,phi_tm'")
    if len(omegas) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    return TabulatedDispersion(np.array(omegas), np.array(tes), np.array(tms))
