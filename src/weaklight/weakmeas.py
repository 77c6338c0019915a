"""Pre/post-selected transfer function and everything measured from it.

``transfer`` is the complex response of the plate between a preparation and
an analysis polarizer.  Its spectral phase derivative is the group delay,
available two ways: analytically, as the real part of the weak value of the
time-of-flight operator, and numerically, by central-differencing the
spectral phase the way one would process measured phase data.  The analytic
path is primary; the numeric path exists to mirror that measurement pipeline
and cross-validate it.

Phase conventions: arg lands in (-pi, pi]; unwrapping acts only along
explicitly ordered one-dimensional sweeps, never across the two-dimensional
contour grid, because the transfer-function zeros carry a phase winding that
makes two-dimensional unwrapping ill-defined.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import backends
from .backends import _bilinear
from .crystal import (
    _ROUNDING,
    _bisect_root,
    _check_axis,
    _check_omega,
    _half_wave_roots,
    _linspace,
    _refine_root,
    _scan,
    _scan_roots,
    delay_arrays,
    group_delays,
    phase_arrays,
    phases,
)
from .errors import BadBracket, PostselectionNull, _ends, _finite, _positive
from .jones import PolarizationState, basis_state, linear_state

__all__ = [
    "SINGULAR_TOL",
    "NUMERIC_H",
    "SelectionPair",
    "TransferSample",
    "SampleTable",
    "Singularity",
    "PhaseSpectrum",
    "selection",
    "transfer",
    "transfer_line",
    "transfer_grid",
    "unwrap",
    "phase_spectrum",
    "group_delay",
    "weak_flight_value",
    "sweep_angle",
    "contour_grid",
    "find_singularities",
    "estimate_beta",
]

# |T| below this counts as a null postselection: far under any grid-roundoff
# magnitude, but above double-precision noise from the unitary products.
SINGULAR_TOL = 1e-10

# default central-difference step for the numeric group delay
NUMERIC_H = 1e-5

# phase_spectrum flags adjacent wrapped steps at or beyond this fraction of pi
_UNDERSAMPLED_FRACTION = 0.9

_TWO_PI = 2.0 * math.pi
_UNWRAP_LIMIT = 2.0 ** 40

# elements per pass of the sweep loops in _beta_weights and _sample_table:
# their temporaries, and the Python floats of the atan2 map, span one slice
_SLICE = 1 << 14


@dataclass(frozen=True)
class SelectionPair:
    """Pre-selected (incident) and post-selected (analyzed) polarizations."""

    psi_in: PolarizationState
    psi_f: PolarizationState

    def __post_init__(self):
        if not isinstance(self.psi_in, PolarizationState) \
                or not isinstance(self.psi_f, PolarizationState):
            raise TypeError("SelectionPair needs PolarizationState fields; "
                            "see selection() for label/angle shorthand")

    @cached_property
    def _constants(self):
        """``_pair_constants(self)``, computed on first use."""
        return _pair_constants(self)

    def __getstate__(self):
        # a pickle or copy holds the states only; its read-only constants
        # are worked out again on first use
        return {"psi_in": self.psi_in, "psi_f": self.psi_f}


def _as_state(value):
    if isinstance(value, PolarizationState):
        return value
    if isinstance(value, str):
        return basis_state(value)
    return linear_state(value)


def selection(psi_in="V", psi_f="V"):
    """Build a SelectionPair from states, basis labels, or linear angles (radians)."""
    return SelectionPair(_as_state(psi_in), _as_state(psi_f))


@dataclass(frozen=True)
class TransferSample:
    """One sweep point: T, its magnitude/phase, and the analytic group delay.

    ``group_delay`` is None exactly when the sample is singular
    (|T| < SINGULAR_TOL); ``arg_t`` is then numerical noise kept only so the
    record stays rectangular.
    """

    omega: float
    beta: float
    t: complex
    abs_t: float
    arg_t: float
    group_delay: float | None
    singular: bool


@dataclass(frozen=True)
class Singularity:
    """A zero of the transfer function, as found by ``find_singularities``.

    ``omega`` and ``beta`` are each an end of an adjacent-doubles sign change
    of their root function, or an exact zero of it, or a scan node within
    rounding of the root; ``residual_abs_t`` is |T| there, at rounding level
    for a simple zero.
    """

    omega: float
    beta: float
    residual_abs_t: float


@dataclass(frozen=True, eq=False)
class PhaseSpectrum:
    """Unwrapped spectral phase along a frequency sweep.

    ``phase`` is NaN at singular samples; each contiguous non-singular run is
    unwrapped independently, since a singularity breaks phase continuity.
    ``undersampled`` is True when any in-run wrapped step reached 0.9*pi,
    a hint that the grid is too coarse for reliable unwrapping.
    """

    omegas: np.ndarray
    phase: np.ndarray
    singular: np.ndarray
    undersampled: bool


def _weights(beta, pair):
    """(p1.real, p1.imag, p2.real, p2.imag) with T = p1 e^{i phi_te} + p2 e^{i phi_tm}.

    Rotating both selection states into the crystal frame turns the
    conjugated evolution operator into a diagonal one, leaving a weight per
    crystal axis.
    """
    beta = _finite("beta", beta)
    c = math.cos(beta)
    s = math.sin(beta)
    v1 = c * pair.psi_in.a1 + s * pair.psi_in.a2
    v2 = c * pair.psi_in.a2 - s * pair.psi_in.a1
    w1 = c * pair.psi_f.a1 + s * pair.psi_f.a2
    w2 = c * pair.psi_f.a2 - s * pair.psi_f.a1
    p1, p2 = w1.conjugate() * v1, w2.conjugate() * v2
    return p1.real, p1.imag, p2.real, p2.imag


def _gap(p1re, p1im, p2re, p2im):
    """The weight gap |p1|^2 - |p2|^2, on ``_weights`` or ``_beta_weights`` alike."""
    return p1re * p1re + p1im * p1im - (p2re * p2re + p2im * p2im)


def transfer(model, omega, beta, pair):
    """Post-selected complex response T(omega, beta); |T| <= 1 always."""
    phi_te, phi_tm = phases(model, omega)
    return complex(*_bilinear(math.cos(phi_te), math.sin(phi_te),
                              math.cos(phi_tm), math.sin(phi_tm), *_weights(beta, pair)))


def _cos_sin_table(values):
    # numpy's float64 cos/sin call the C library's cos/sin, as math.cos and
    # math.sin do, so each element matches the scalar path bitwise (the tests
    # pin this on a seeded corpus)
    return np.cos(values), np.sin(values)


def _pair_constants(pair):
    """What ``_beta_weights`` and ``_closed_form_seed`` take from the pair alone.

    ``_beta_weights``' constant rows are the state parts and CPython's
    signed-zero terms.  Both have shape (2, 8, 1): cos(beta) or sin(beta)
    as the factor, then eight rows, the real and imaginary part of w and of
    v in the add rotation (w1, v1) and in the subtract one (w2, v2).
    cos(beta) multiplies psi_f.a1 and psi_in.a1 in the add rotation and
    their a2 in the subtract one, sin(beta) the other components.  A float
    times a complex a adds 0.0*a.real to the imaginary part and subtracts
    0.0*a.imag from the real part; x - z is x + (-z) in IEEE arithmetic, so
    ``zeros`` holds -(0.0*a.imag) on the real rows and one addition applies
    every term.  Both arrays are read-only, since a pair keeps them.

    The seed's terms are c, k1 and k2 of ``_closed_form_seed``, the radius
    hypot(k1, k2) and the angle atan2(k2, k1), or None where the weights are
    complex or the radius is zero.
    """
    f, i = pair.psi_f, pair.psi_in
    # the parts in (factor, rotation, w or v, re or im) order, then each
    # part's term: 0.0 times the other part, negated on the real parts
    parts = np.array([f.a1, i.a1, f.a2, i.a2, f.a2, i.a2, f.a1, i.a1]).view(float)
    zeros = 0.0 * parts.reshape(8, 2)[:, ::-1] * [-1.0, 1.0]
    parts, zeros = parts.reshape(2, 8, 1), zeros.reshape(2, 8, 1)
    f1, f2 = f.a1.conjugate(), f.a2.conjugate()
    terms = (f1 * i.a1 + f2 * i.a2, f1 * i.a1 - f2 * i.a2, f1 * i.a2 + f2 * i.a1)
    seed = None
    if all(z.imag == 0.0 for z in terms):
        c, k1, k2 = (z.real for z in terms)
        radius = math.hypot(k1, k2)
        if radius != 0.0:
            seed = c, k1, k2, radius, math.atan2(k2, k1)
    parts.setflags(write=False)
    zeros.setflags(write=False)
    return parts, zeros, seed


def _pair(pair):
    """The pair's constants: a ``SelectionPair`` keeps them, any other pair computes them anew."""
    return pair._constants if isinstance(pair, SelectionPair) else _pair_constants(pair)


def _beta_weights(betas, pair):
    """``_weights`` over a beta array: its four parts as the rows of one (4, n) array.

    Float arrays repeat CPython's complex arithmetic operation for operation,
    so each element matches ``_weights`` bitwise, signed zeros included: a
    float c times a complex a is (c*a.real - 0.0*a.imag, c*a.imag +
    0.0*a.real), and a times b is (a.real*b.real - a.imag*b.imag,
    a.real*b.imag + a.imag*b.real).  ``betas`` is a checked axis
    (``_check_axis``), such as ``_grids`` and ``_scan`` give.
    """
    parts, zeros, _ = _pair(pair)
    out = np.empty((4, betas.size))
    for start in range(0, betas.size, _SLICE):
        part = slice(start, start + _SLICE)
        # c a and s b for every state part, as (factor, row, beta)
        terms = np.array(_cos_sin_table(betas[part]))[:, None] * parts
        terms += zeros
        # the rotations w1, v1 = c a + s b and w2, v2 = c a - s b
        add, sub = terms[0, :4], terms[0, 4:]
        add += terms[1, :4]
        sub -= terms[1, 4:]
        # (p1, p2) = conj(w) v, with w and v as (rotation, re or im, beta)
        rot = terms[0].reshape(2, 2, 2, -1)
        w, v = rot[:, 0], rot[:, 1]
        w_im = w[:, 1]
        np.negative(w_im, out=w_im)
        prod = w * v
        np.subtract(prod[:, 0], prod[:, 1], out=out[::2, part])
        prod = w * v[:, ::-1]
        np.add(prod[:, 0], prod[:, 1], out=out[1::2, part])
    return out


def _grids(model, omegas, betas, pair, with_delay=False):
    """The checked axes, then T (and optionally the weak-value numerator) on omegas x betas.

    The checks run in the scalar path's order: the omegas (``_check_axis``),
    their domain and phases (``phase_arrays``), then the betas, so where an
    omega and a beta are both unusable the omega is named.  The grids are
    float arrays of shape (omegas.size, betas.size), the row-major layout of
    ``contour_grid``.
    """
    omegas = _check_axis("omega array", omegas)
    # the phases are freed once their tables exist, before the kernel runs
    (cte, ste), (ctm, stm) = map(_cos_sin_table, phase_arrays(model, omegas))
    betas = _check_axis("beta", betas)
    weights = _beta_weights(betas, pair)
    tre, tim = backends.bilinear_grid(cte, ste, ctm, stm, *weights)
    if not with_delay:
        return omegas, betas, tre, tim
    dte, dtm = delay_arrays(model, omegas)
    nre, nim = backends.bilinear_grid(dte * cte, dte * ste, dtm * ctm, dtm * stm, *weights)
    return omegas, betas, tre, tim, nre, nim


def transfer_line(model, omegas, beta, pair):
    """Complex T along an ascendingly ordered omega array at fixed beta: a grid column."""
    return transfer_grid(model, omegas, [beta], pair)[:, 0]


def transfer_grid(model, omegas, betas, pair):
    """Complex T on the product grid, shape (len(omegas), len(betas))."""
    _, _, tre, tim = _grids(model, omegas, betas, pair)
    out = np.empty(tre.shape, dtype=np.complex128)
    out.real = tre
    out.imag = tim
    return out


def _step_into_branch(base, value):
    """base +- pi, on the side of value, moved toward base until the step is in (-pi, pi]."""
    v = base + math.pi if value > base else base - math.pi
    while not -math.pi < v - base <= math.pi:
        v = math.nextafter(v, base)
    return v


def unwrap(phases_in):
    """1-D unwrap: keep the first sample, force successive steps into (-pi, pi].

    Output is congruent to the input modulo 2*pi elementwise (up to rounding)
    and idempotent bit for bit: an input whose steps all lie in (-pi, pi]
    comes back unchanged.  Phases must be finite with magnitude at most
    2**40 rad, where doubles are 2**-12 (about 2.4e-4) rad apart; beyond
    that the steps lose their value modulo 2*pi, so larger input raises
    ``ValueError``.
    """
    x = _check_axis("phases", phases_in)
    peak = float(np.max(np.abs(x)))
    if peak > _UNWRAP_LIMIT:
        raise ValueError(f"unwrap needs |phase| <= 2**40 rad, got {peak!r}")
    d = np.diff(x)
    if np.all((d > -math.pi) & (d <= math.pi)):
        return x.copy()
    k = np.ceil((d - math.pi) / _TWO_PI)
    w = d - _TWO_PI * k
    # guard the half-open branch against rounding at the +-pi boundary
    w = np.where(w > math.pi, w - _TWO_PI, w)
    w = np.where(w <= -math.pi, w + _TWO_PI, w)
    out = np.empty_like(x)
    out[0] = x[0]
    np.cumsum(w, out=out[1:])
    out[1:] += x[0]
    # Differencing the sums again can round a step of about +-pi out of the
    # branch, and a second unwrap would then shift the rest by 2*pi.  Move
    # each such sample by a few ulps so that every step is in the branch.
    d = np.diff(out)
    bad = np.flatnonzero((d > math.pi) | (d <= -math.pi))
    if bad.size:
        vals = out.tolist()
        for i in range(int(bad[0]), len(vals) - 1):
            step = vals[i + 1] - vals[i]
            if step > math.pi or step <= -math.pi:
                vals[i + 1] = _step_into_branch(vals[i], vals[i + 1])
        out = np.array(vals)
    return out


def phase_spectrum(model, beta, pair, omegas):
    """Unwrapped arg T along a frequency sweep, with singular samples gapped out.

    The caller owns grid density: true phase increments between neighbors
    must stay below pi for the unwrap to be faithful.  Steps at or beyond
    0.9*pi set the ``undersampled`` flag instead of failing.
    """
    w = _check_axis("omega array", omegas)
    if np.any(np.diff(w) <= 0.0):
        raise ValueError("omegas must be strictly increasing")
    t = transfer_line(model, w, beta, pair)
    abs_t = np.sqrt(t.real * t.real + t.imag * t.imag)
    singular = abs_t < SINGULAR_TOL
    if bool(singular.all()):
        raise PostselectionNull("postselection null everywhere on the sweep")
    wrapped = np.arctan2(t.imag, t.real)
    phase = np.full(w.shape, math.nan)
    undersampled = False
    live = np.flatnonzero(~singular)
    run_starts = np.flatnonzero(np.diff(live) > 1) + 1
    for run in np.split(live, run_starts):
        seg = unwrap(wrapped[run])
        if seg.size > 1 and float(np.max(np.abs(np.diff(seg)))) \
                >= _UNDERSAMPLED_FRACTION * math.pi:
            undersampled = True
        phase[run] = seg
    w = w.copy()
    for arr in (w, phase, singular):
        arr.setflags(write=False)
    return PhaseSpectrum(w, phase, singular, undersampled)


def _t_and_numerator(model, omega, beta, pair):
    """(re, im) of T and of the weak-value numerator N at one point."""
    phi_te, phi_tm = phases(model, omega)
    tau_te, tau_tm = group_delays(model, omega)
    cte, ste = math.cos(phi_te), math.sin(phi_te)
    ctm, stm = math.cos(phi_tm), math.sin(phi_tm)
    weights = _weights(beta, pair)
    return (_bilinear(cte, ste, ctm, stm, *weights),
            _bilinear(tau_te * cte, tau_te * ste, tau_tm * ctm, tau_tm * stm, *weights))


def _null_check(tre, tim, omega, beta):
    """|T|^2, after refusing a null postselection: |T| below ``SINGULAR_TOL``."""
    den = tre * tre + tim * tim
    abs_t = math.sqrt(den)
    if abs_t < SINGULAR_TOL:
        raise PostselectionNull(
            f"|T| = {abs_t:.3e} below singular tolerance {SINGULAR_TOL:g} "
            f"at omega={omega!r}, beta={beta!r}")
    return den


def _delay(tre, tim, nre, nim, den):
    """Re(N / T) = Re(N T*) / |T|^2, the group delay, on Python floats or arrays alike."""
    return (nre * tre + nim * tim) / den


def weak_flight_value(model, omega, beta, pair):
    """Weak value of the time-of-flight operator.

    The real part is the group delay d(arg T)/d(omega); the negated imaginary
    part is the log-magnitude slope d(ln |T|)/d(omega).
    """
    (tre, tim), (nre, nim) = _t_and_numerator(model, omega, beta, pair)
    den = _null_check(tre, tim, omega, beta)
    return complex(_delay(tre, tim, nre, nim, den), (nim * tre - nre * tim) / den)


def group_delay(model, omega, beta, pair, method="analytic", h=NUMERIC_H):
    """Group delay at one point, in normalized time units.

    ``method="analytic"`` evaluates the weak-value expression exactly.
    ``method="numeric"`` central-differences arg T with step ``h`` after
    locally unwrapping the three stencil phases, mirroring how the delay is
    extracted from measured phase spectra.
    """
    if method == "analytic":
        (tre, tim), (nre, nim) = _t_and_numerator(model, omega, beta, pair)
        return _delay(tre, tim, nre, nim, _null_check(tre, tim, omega, beta))
    if method == "numeric":
        h = _positive("step h", h)
        stencil = np.empty(3)
        for i, w in enumerate((omega - h, omega, omega + h)):
            t = transfer(model, w, beta, pair)
            _null_check(t.real, t.imag, w, beta)
            stencil[i] = math.atan2(t.imag, t.real)
        ph = unwrap(stencil)
        return (ph[2] - ph[0]) / (2.0 * h)
    raise ValueError(f"unknown method {method!r}; expected 'analytic' or 'numeric'")


_COLUMNS = ("omega", "beta", "re_t", "im_t", "abs_t", "arg_t", "group_delay", "singular")


class SampleTable(Sequence):
    """Read-only sweep samples held as columns; items are TransferSamples.

    Each column is a flat read-only array in row-major order over ``shape``:
    ``omega``, ``beta``, ``re_t``, ``im_t``, ``abs_t``, ``arg_t`` and
    ``group_delay`` (NaN where singular) as floats, ``singular`` as bools.
    Indexing a one-dimensional table builds the TransferSample at that
    position; indexing a two-dimensional table gives the table of one row,
    and a slice gives a table of the selected rows.
    """

    __slots__ = ("shape",) + _COLUMNS

    def __init__(self, shape, columns):
        self.shape = tuple(shape)
        for name in _COLUMNS:
            col = columns[name]
            col.setflags(write=False)
            setattr(self, name, col)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        if not isinstance(key, slice):
            key = range(self.shape[0])[key]
            if len(self.shape) == 1:
                singular = bool(self.singular[key])
                return TransferSample(float(self.omega[key]), float(self.beta[key]),
                                      complex(self.re_t[key], self.im_t[key]),
                                      float(self.abs_t[key]), float(self.arg_t[key]),
                                      None if singular else float(self.group_delay[key]),
                                      singular)
        cols = {name: getattr(self, name).reshape(self.shape)[key] for name in _COLUMNS}
        return SampleTable(cols["omega"].shape,
                           {name: col.ravel() for name, col in cols.items()})


def _delays(tre, tim, nre, nim):
    """|T|, the singular mask and the group delay (NaN where singular) from T and the numerator.

    The arithmetic follows ``weak_flight_value`` and the null check operation
    for operation, so every value matches the scalar path bitwise.
    """
    den = tre * tre + tim * tim
    abs_t = np.sqrt(den)
    singular = abs_t < SINGULAR_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        gd = _delay(tre, tim, nre, nim, den)
    gd[singular] = math.nan
    return abs_t, singular, gd


def _sample_table(shape, omega, beta, tre, tim, nre, nim):
    """Columns from flat T and weak-value numerator arrays.

    ``abs_t``, ``group_delay`` and ``singular`` come from ``_delays``, so
    every column matches the scalar path bitwise.  ``arg_t`` stays libm
    atan2 per element: unlike its cos and sin, numpy's arctan2 is its own
    and differs from ``math.atan2`` in the last ulp (on 154,749 of 2,000,000
    uniform points of the unit box with numpy 2.4.6).
    """
    n = tre.shape[0]
    abs_t, arg_t, gd = np.empty(n), np.empty(n), np.empty(n)
    singular = np.empty(n, dtype=bool)
    for start in range(0, n, _SLICE):
        part = slice(start, min(start + _SLICE, n))
        abs_t[part], singular[part], gd[part] = _delays(tre[part], tim[part], nre[part], nim[part])
        arg_t[part] = np.fromiter(map(math.atan2, tim[part].tolist(), tre[part].tolist()),
                                  float, part.stop - start)
    return SampleTable(shape, {
        "omega": omega, "beta": beta, "re_t": tre, "im_t": tim, "abs_t": abs_t,
        "arg_t": arg_t, "group_delay": gd, "singular": singular})


def sweep_angle(model, omega, betas, pair):
    """Samples at fixed omega, one per beta in input order: the one row of a contour grid."""
    return contour_grid(model, [omega], betas, pair)[0]


def contour_grid(model, omegas, betas, pair):
    """Row-major SampleTable: grid[i][j] evaluated at (omegas[i], betas[j])."""
    omegas, betas, tre, tim, nre, nim = _grids(model, omegas, betas, pair, with_delay=True)
    nw, nb = omegas.size, betas.size
    return _sample_table((nw, nb), np.repeat(omegas, nb), np.tile(betas, nw),
                         tre.ravel(), tim.ravel(), nre.ravel(), nim.ravel())


def find_singularities(model, omega_range, beta_range, pair, scan=101, tol=1e-10):
    """Locate the zeros of T inside a closed rectangular (omega, beta) window.

    T = p1 e^{i phi_te} + p2 e^{i phi_tm} vanishes exactly where the weight
    gap |p1|^2 - |p2|^2 is zero and phi_te - phi_tm + arg p1 - arg p2 is pi
    modulo 2*pi, so the search is two one-dimensional root problems: the
    beta roots of the gap on a ``scan``-point beta grid, then at each of them
    the omega roots of cos((phi_te - phi_tm + arg p1 - arg p2)/2) on a
    ``scan``-point omega grid.  The offset arg p1 - arg p2 is reduced to
    (-pi, pi], and beta roots with the same offset, such as the two of a
    V/V search (offset 0), share one omega scan.  Each sign change between
    two nodes is narrowed by false position to adjacent doubles, and a node
    within rounding of a root is taken as it is; a point is kept when
    |T| < tol there.  Roots that leave two adjacent scan nodes with the same
    sign, a tangential root or two roots in one cell, are missed.

    Zeros that form lines instead of points raise PostselectionNull: a gap
    within rounding of zero on the whole beta scan (crossed pairs), or a
    beta root with |p1| + |p2| < tol, where |T| < tol at every omega.  The
    result is sorted by (omega, beta).  Both ranges need finite, increasing
    ends, ``scan`` is an integer >= 2 and ``tol`` is finite and > 0.
    """
    tol = _positive("tol", tol)
    omegas = _scan("omega_range", omega_range, scan)
    betas = _scan("beta_range", beta_range, scan)
    phase_te, phase_tm = phase_arrays(model, omegas)
    gaps = _gap(*_beta_weights(betas, pair))
    if np.all(np.abs(gaps) <= _ROUNDING):
        raise PostselectionNull(
            "|p1| = |p2| on the whole beta scan: the zeros of T in the window, "
            "if any, form lines, not points")

    found = []
    # omega roots per offset reduced to (-pi, pi], where a linear pair's
    # offsets of 0.0 and +-2*pi meet; -0.0 and 0.0 are one key, and
    # cos(-x) = cos(x) gives them the same roots
    omega_roots = {}
    for b in _scan_roots(lambda b: _gap(*_weights(b, pair)), betas, gaps, _ROUNDING):
        p1re, p1im, p2re, p2im = _weights(b, pair)
        # abs of a complex is libm's hypot, which math.hypot is not
        if abs(complex(p1re, p1im)) + abs(complex(p2re, p2im)) < tol:
            raise PostselectionNull(
                f"p1 = p2 = 0 at beta={b!r}: |T| < tol at every omega there")
        offset = math.remainder(math.atan2(p1im, p1re) - math.atan2(p2im, p2re), math.tau)
        if offset == -math.pi:
            offset = math.pi
        if offset not in omega_roots:
            omega_roots[offset] = _half_wave_roots(model, omegas, phase_te, phase_tm, offset)
        for w in omega_roots[offset]:
            t = transfer(model, w, b, pair)
            residual = math.sqrt(t.real * t.real + t.imag * t.imag)
            if residual < tol:
                found.append(Singularity(w, b, residual))
    found.sort(key=lambda s: (s.omega, s.beta))
    return found


def _closed_form_seed(pair, phi, tau, tau_measured, lo, hi):
    """The one beta in [lo, hi] where the analytic group delay is ``tau_measured``, or None.

    ``phi`` and ``tau`` are the model's phases and group delays at the fixed
    omega.  For real weights p1 + p2 = c = <psi_f|psi_in> at every beta, so
    with a = e^{i phi_te} and b = e^{i phi_tm}, T = p1 (a - b) + c b and the
    weak-value numerator N = p1 (tau_te a - tau_tm b) + c tau_tm b are affine
    in p1.  The delay is tau_measured exactly where Re(N T*) - tau_measured
    |T|^2 = 0, a quadratic in the real p1; with u = 1 - cos(phi_te - phi_tm)
    and s = tau_te + tau_tm - 2 tau_measured it reads

        s u p1^2 + c (tau_te - tau_tm - s u) p1 + c^2 (tau_tm - tau_measured) = 0.

    As 2 p1 = c + k1 cos 2beta + k2 sin 2beta, each root gives beta modulo pi
    through one acos.  None when the weights are complex (elliptical states),
    when the bracket is pi or wider, or when not exactly one of these betas
    lies in [lo, hi].
    """
    terms = _pair(pair)[2]
    if terms is None or hi - lo >= math.pi:
        return None
    c, k1, k2, radius, theta = terms
    tau_te, tau_tm = tau
    # u as 2 sin^2(d/2), which keeps its digits where cos d is near 1
    u = 2.0 * math.sin(0.5 * (phi[0] - phi[1])) ** 2
    q2 = (tau_te + tau_tm - 2.0 * tau_measured) * u
    q1 = c * (tau_te - tau_tm - q2)
    q0 = c * c * (tau_tm - tau_measured)
    if q2 == 0.0:
        roots = [-q0 / q1] if q1 != 0.0 else []
    else:
        disc = q1 * q1 - 4.0 * q2 * q0
        if disc < 0.0:
            return None
        q = -0.5 * (q1 + math.copysign(math.sqrt(disc), q1))
        roots = [q / q2] + ([q0 / q] if q != 0.0 else [])
    seeds = []
    for p1 in roots:
        v = (2.0 * p1 - c) / radius
        if not -1.0 <= v <= 1.0:
            continue
        turn = math.acos(v)
        for half in (0.5 * (theta + turn), 0.5 * (theta - turn)):
            # the bracket is narrower than pi: at most one turn of each lands in it
            beta = half + math.pi * math.ceil((lo - half) / math.pi)
            if lo <= beta <= hi:
                seeds.append(beta)
    return seeds[0] if len(seeds) == 1 else None


def _polish(fun, seed, lo, hi, f_lo, f_hi):
    """A root of fun in [lo, hi] near ``seed``, to adjacent doubles.

    fun(lo) = f_lo and fun(hi) = f_hi have opposite signs.  The bracket starts
    at seed +- 4 ulps and widens 16-fold, within [lo, hi], until its ends
    straddle zero; ``_bisect_root`` then halves it.
    """
    step = 4.0 * math.ulp(seed)
    while True:
        a, b = max(lo, seed - step), min(hi, seed + step)
        fa = f_lo if a == lo else fun(a)
        if fa == 0.0:
            return a
        fb = f_hi if b == hi else fun(b)
        if fb == 0.0:
            return b
        if (fa < 0.0) != (fb < 0.0):
            return _bisect_root(fun, a, b, fa)
        step *= 16.0


def estimate_beta(model, omega, pair, tau_measured, bracket):
    """Invert the plate angle from a measured group delay.

    The delay-versus-angle map is two-to-one globally, so the caller-supplied
    bracket is the disambiguation contract: it must sit strictly on one side
    of any singularity, with the delay strictly monotonic across it.  A
    64-point scan validates this.  For a linear selection pair the angle then
    comes in closed form (``_closed_form_seed``: a quadratic in the weight
    p1, then one acos) and is polished by bisection on a few-ulp bracket
    around it.  Elliptical pairs, and the rare bracket where the closed form
    does not give exactly one angle, narrow the whole bracket by false
    position (``_refine_root``).  Either way the result is a bracket end of
    an adjacent-doubles sign change of ``group_delay - tau_measured``, or a
    beta where it is exactly zero.
    """
    tau_measured = _finite("tau_measured", tau_measured)
    try:
        lo, hi = _ends("bracket", bracket)
    except ValueError as exc:
        raise BadBracket(str(exc)) from None
    if not lo < hi:
        raise BadBracket(f"bracket ({lo!r}, {hi!r}) is not an increasing interval")

    # The scan is the one row of a single-omega grid.  The scalar omega check
    # runs first, then _grids checks the phases and then the betas, as 64
    # group_delay calls would: a bad omega or the NaN betas of an
    # overflowing bracket raise the scalar path's message.
    w = [_check_omega(model, omega)]
    with np.errstate(over="ignore", invalid="ignore"):
        betas = _linspace(lo, hi, 64)
    _, _, tre, tim, nre, nim = _grids(model, w, betas, pair, with_delay=True)
    _, singular, scanned = _delays(tre[0], tim[0], nre[0], nim[0])
    if singular.any():
        i = int(np.argmax(singular))
        raise BadBracket(f"bracket contains a postselection null near beta={float(betas[i])!r}")
    diffs = scanned[1:] - scanned[:-1]
    # a NaN delay makes min and max NaN, and fails the test as all(diffs > 0) would
    if not (diffs.min() > 0.0 or diffs.max() < 0.0):
        raise BadBracket(
            "group delay is not monotonic on the bracket "
            f"[{lo!r}, {hi!r}]; 64-point scan spans "
            f"[{float(scanned.min())!r}, {float(scanned.max())!r}] with "
            f"{int(np.sum(diffs > 0))} rising and {int(np.sum(diffs < 0))} "
            "falling steps")
    g_lo, g_hi = float(scanned[0]), float(scanned[-1])
    if not (min(g_lo, g_hi) <= tau_measured <= max(g_lo, g_hi)):
        raise BadBracket(
            f"target delay {tau_measured!r} outside the bracket's delay range "
            f"[{min(g_lo, g_hi)!r}, {max(g_lo, g_hi)!r}]")

    f_lo = g_lo - tau_measured
    if f_lo == 0.0:
        return lo
    f_hi = g_hi - tau_measured
    if f_hi == 0.0:
        return hi

    def fun(b):
        return group_delay(model, omega, b, pair) - tau_measured

    seed = _closed_form_seed(pair, phases(model, omega), group_delays(model, omega),
                             tau_measured, lo, hi)
    if seed is None:
        return _refine_root(fun, lo, hi, f_lo, f_hi)
    return _polish(fun, seed, lo, hi, f_lo, f_hi)
