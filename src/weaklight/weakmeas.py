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

import numpy as np

from . import backends
from .crystal import (
    delay_arrays,
    domain,
    group_delays,
    phase_arrays,
    phases,
)
from .errors import BadBracket, PostselectionNull
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
    """A zero of the transfer function located to machine level."""

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
    """Complex pair (p1, p2) with T = p1 e^{i phi_te} + p2 e^{i phi_tm}.

    Rotating both selection states into the crystal frame turns the
    conjugated evolution operator into a diagonal one, leaving a weight per
    crystal axis.
    """
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    c = math.cos(beta)
    s = math.sin(beta)
    v1 = c * pair.psi_in.a1 + s * pair.psi_in.a2
    v2 = c * pair.psi_in.a2 - s * pair.psi_in.a1
    w1 = c * pair.psi_f.a1 + s * pair.psi_f.a2
    w2 = c * pair.psi_f.a2 - s * pair.psi_f.a1
    return (w1.conjugate() * v1, w2.conjugate() * v2)


def _combine(p1, p2, are, aim, bre, bim):
    # Same operation order as backends.bilinear_grid, so scalar and grid
    # evaluations of the same point agree bitwise.
    re = p1.real * are - p1.imag * aim + p2.real * bre - p2.imag * bim
    im = p1.real * aim + p1.imag * are + p2.real * bim + p2.imag * bre
    return complex(re, im)


def transfer(model, omega, beta, pair):
    """Post-selected complex response T(omega, beta); |T| <= 1 always."""
    phi_te, phi_tm = phases(model, omega)
    p1, p2 = _weights(beta, pair)
    return _combine(p1, p2, math.cos(phi_te), math.sin(phi_te),
                    math.cos(phi_tm), math.sin(phi_tm))


def _cos_sin_table(values):
    # libm cos/sin per element, matching the scalar path bitwise; numpy's
    # vectorized trig may differ in the last ulp, so it is avoided here.
    n = values.shape[0]
    items = values.tolist()
    return (np.fromiter(map(math.cos, items), float, n),
            np.fromiter(map(math.sin, items), float, n))


def _beta_weights(betas, pair):
    p1, p2 = np.array([_weights(b, pair) for b in betas.tolist()], dtype=complex).T
    return (np.ascontiguousarray(p1.real), np.ascontiguousarray(p1.imag),
            np.ascontiguousarray(p2.real), np.ascontiguousarray(p2.imag))


def _grids(model, omegas, betas, pair, with_delay=False):
    """T (and optionally the weak-value numerator) on betas x omegas.

    Returns float arrays of shape (len(betas), len(omegas)).
    """
    omegas = np.ascontiguousarray(omegas, dtype=float)
    betas = np.ascontiguousarray(betas, dtype=float)
    if omegas.size == 0 or betas.size == 0:
        raise ValueError("sweep axes must be nonempty")
    if not np.all(np.isfinite(betas)):
        raise ValueError("beta values must be finite")
    pte, ptm = phase_arrays(model, omegas)
    cte, ste = _cos_sin_table(pte)
    ctm, stm = _cos_sin_table(ptm)
    p1re, p1im, p2re, p2im = _beta_weights(betas, pair)
    shape = (betas.shape[0], omegas.shape[0])
    tre = np.empty(shape)
    tim = np.empty(shape)
    backends.bilinear_grid(cte, ste, ctm, stm, p1re, p1im, p2re, p2im, tre, tim)
    if not with_delay:
        return tre, tim
    dte, dtm = delay_arrays(model, omegas)
    nre = np.empty(shape)
    nim = np.empty(shape)
    backends.bilinear_grid(dte * cte, dte * ste, dtm * ctm, dtm * stm,
                           p1re, p1im, p2re, p2im, nre, nim)
    return tre, tim, nre, nim


def transfer_line(model, omegas, beta, pair):
    """Complex T along an ascendingly ordered omega array at fixed beta."""
    tre, tim = _grids(model, omegas, np.array([float(beta)]), pair)
    out = np.empty(tre.shape[1], dtype=np.complex128)
    out.real = tre[0]
    out.imag = tim[0]
    return out


def transfer_grid(model, omegas, betas, pair):
    """Complex T on the product grid, shape (len(omegas), len(betas))."""
    tre, tim = _grids(model, omegas, betas, pair)
    out = np.empty((tre.shape[1], tre.shape[0]), dtype=np.complex128)
    out.real = tre.T
    out.imag = tim.T
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
    comes back unchanged.
    """
    x = np.asarray(phases_in, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("unwrap needs a nonempty one-dimensional array")
    if not np.all(np.isfinite(x)):
        raise ValueError("unwrap needs finite phases")
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
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("omegas must be a nonempty one-dimensional array")
    if w.size > 1 and np.any(np.diff(w) <= 0.0):
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
    phi_te, phi_tm = phases(model, omega)
    tau_te, tau_tm = group_delays(model, omega)
    p1, p2 = _weights(beta, pair)
    cte, ste = math.cos(phi_te), math.sin(phi_te)
    ctm, stm = math.cos(phi_tm), math.sin(phi_tm)
    t = _combine(p1, p2, cte, ste, ctm, stm)
    num = _combine(p1, p2, tau_te * cte, tau_te * ste, tau_tm * ctm, tau_tm * stm)
    return t, num


def _null_check(t, omega, beta):
    abs_t = math.sqrt(t.real * t.real + t.imag * t.imag)
    if abs_t < SINGULAR_TOL:
        raise PostselectionNull(
            f"|T| = {abs_t:.3e} below singular tolerance {SINGULAR_TOL:g} "
            f"at omega={omega!r}, beta={beta!r}")


def weak_flight_value(model, omega, beta, pair):
    """Weak value of the time-of-flight operator.

    The real part is the group delay d(arg T)/d(omega); the negated imaginary
    part is the log-magnitude slope d(ln |T|)/d(omega).
    """
    t, num = _t_and_numerator(model, omega, beta, pair)
    _null_check(t, omega, beta)
    den = t.real * t.real + t.imag * t.imag
    return complex((num.real * t.real + num.imag * t.imag) / den,
                   (num.imag * t.real - num.real * t.imag) / den)


def group_delay(model, omega, beta, pair, method="analytic", h=NUMERIC_H):
    """Group delay at one point, in normalized time units.

    ``method="analytic"`` evaluates the weak-value expression exactly.
    ``method="numeric"`` central-differences arg T with step ``h`` after
    locally unwrapping the three stencil phases, mirroring how the delay is
    extracted from measured phase spectra.
    """
    if method == "analytic":
        return weak_flight_value(model, omega, beta, pair).real
    if method == "numeric":
        h = float(h)
        if not (h > 0.0 and math.isfinite(h)):
            raise ValueError(f"step h must be positive and finite, got {h!r}")
        stencil = np.empty(3)
        for i, w in enumerate((omega - h, omega, omega + h)):
            t = transfer(model, w, beta, pair)
            _null_check(t, w, beta)
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


def _sample_table(shape, omega, beta, tre, tim, nre, nim):
    """Columns from flat T and weak-value numerator arrays.

    The arithmetic follows the scalar path (weak_flight_value and the null
    check) operation for operation, so every column matches it bitwise.
    ``arg_t`` stays libm atan2 per element: numpy's arctan2 may differ from
    it in the last ulp.
    """
    den = tre * tre + tim * tim
    abs_t = np.sqrt(den)
    singular = abs_t < SINGULAR_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        gd = (nre * tre + nim * tim) / den
    gd[singular] = math.nan
    arg_t = np.fromiter(map(math.atan2, tim.tolist(), tre.tolist()), float, tre.shape[0])
    return SampleTable(shape, {
        "omega": omega, "beta": beta, "re_t": tre, "im_t": tim, "abs_t": abs_t,
        "arg_t": arg_t, "group_delay": gd, "singular": singular})


def sweep_angle(model, omega, betas, pair):
    """Samples at fixed omega, one per beta in input order, as a SampleTable."""
    betas = np.array(betas, dtype=float)
    tre, tim, nre, nim = _grids(model, np.array([float(omega)]), betas, pair,
                                with_delay=True)
    n = betas.shape[0]
    return _sample_table((n,), np.full(n, float(omega)), betas,
                         tre.ravel(), tim.ravel(), nre.ravel(), nim.ravel())


def contour_grid(model, omegas, betas, pair):
    """Row-major SampleTable: grid[i][j] evaluated at (omegas[i], betas[j])."""
    omegas = np.asarray(omegas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    tre, tim, nre, nim = _grids(model, omegas, betas, pair, with_delay=True)
    nw, nb = omegas.shape[0], betas.shape[0]
    return _sample_table((nw, nb), np.repeat(omegas, nb), np.tile(betas, nw),
                         *(a.T.ravel() for a in (tre, tim, nre, nim)))


def _refine_zero(objective, w, b, step_w, step_b, bounds, tol):
    """Compass search on |T|^2: derivative-free, steps shrink by halving.

    |T| is cone-like (non-smooth) at its zero, which defeats gradient
    methods exactly where precision matters; coordinate moves do not care.
    """
    f = objective(w, b)
    tol_sq = tol * tol
    w_lo, w_hi, b_lo, b_hi = bounds
    for _ in range(20000):
        if f < tol_sq:
            break
        best_f = f
        best_w = w
        best_b = b
        for dw, db in ((step_w, 0.0), (-step_w, 0.0), (0.0, step_b), (0.0, -step_b)):
            w1 = w + dw
            b1 = b + db
            if not (w_lo <= w1 <= w_hi and b_lo <= b1 <= b_hi):
                continue
            f1 = objective(w1, b1)
            if f1 < best_f:
                best_f, best_w, best_b = f1, w1, b1
        if best_f < f:
            f, w, b = best_f, best_w, best_b
        else:
            step_w *= 0.5
            step_b *= 0.5
            if step_w < 1e-14 and step_b < 1e-14:
                break
    return w, b, math.sqrt(f)


def find_singularities(model, omega_range, beta_range, pair, scan=101, tol=1e-10):
    """Locate the zeros of T inside a rectangular (omega, beta) window.

    A coarse |T|^2 scan promotes local minima below an automatic threshold;
    each is refined by compass search until |T| < tol or the step underflows
    1e-14.  Refined points within 1e-6 of each other merge (smallest residual
    wins) and the result is sorted by (omega, beta).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    scan = int(scan)
    if scan < 2:
        raise ValueError("scan density must be at least 2")
    w_lo, w_hi = (float(omega_range[0]), float(omega_range[1]))
    b_lo, b_hi = (float(beta_range[0]), float(beta_range[1]))
    if not (w_lo < w_hi and b_lo < b_hi):
        raise ValueError("omega and beta ranges must be nonempty")
    omegas = np.linspace(w_lo, w_hi, scan)
    betas = np.linspace(b_lo, b_hi, scan)
    tre, tim = _grids(model, omegas, betas, pair)
    f_sq = tre * tre + tim * tim

    # Promotion threshold: |T| changes at most ~(dtau/2 + 2) per unit of
    # (omega, beta) motion (common phase drops out of the magnitude), so a
    # zero hiding within one cell keeps its grid neighbors below this.
    dte, dtm = delay_arrays(model, omegas)
    dtau = float(np.max(np.abs(dte - dtm)))
    step_w = (w_hi - w_lo) / (scan - 1)
    step_b = (b_hi - b_lo) / (scan - 1)
    promote = min(0.5, 2.0 * (0.5 * dtau + 2.0) * math.hypot(step_w, step_b))

    padded = np.pad(f_sq, 1, constant_values=np.inf)
    is_min = np.ones(f_sq.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            nb = padded[1 + di:padded.shape[0] - 1 + di,
                        1 + dj:padded.shape[1] - 1 + dj]
            is_min &= f_sq <= nb
    is_min &= f_sq < promote * promote

    dom_lo, dom_hi = domain(model)
    bounds = (max(w_lo - step_w, dom_lo), min(w_hi + step_w, dom_hi),
              b_lo - step_b, b_hi + step_b)

    def objective(w, b):
        t = transfer(model, w, b, pair)
        return t.real * t.real + t.imag * t.imag

    found = []
    for bi, wi in np.argwhere(is_min):
        w, b, residual = _refine_zero(objective, float(omegas[wi]), float(betas[bi]),
                                      step_w, step_b, bounds, tol)
        if residual < tol:
            found.append(Singularity(w, b, residual))

    merged = []
    for cand in sorted(found, key=lambda s: s.residual_abs_t):
        if any(abs(cand.omega - kept.omega) <= 1e-6
               and abs(cand.beta - kept.beta) <= 1e-6 for kept in merged):
            continue
        merged.append(cand)
    merged.sort(key=lambda s: (s.omega, s.beta))
    return merged


def estimate_beta(model, omega, pair, tau_measured, bracket):
    """Invert the plate angle from a measured group delay by bisection.

    The delay-versus-angle map is two-to-one globally, so the caller-supplied
    bracket is the disambiguation contract: it must sit strictly on one side
    of any singularity, with the delay strictly monotonic across it.  A
    64-point scan validates this before bisecting to |dbeta| < 1e-12.
    """
    tau_measured = float(tau_measured)
    lo, hi = (float(bracket[0]), float(bracket[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BadBracket(f"bracket ({lo!r}, {hi!r}) is not an increasing interval")

    def delay(b):
        return group_delay(model, omega, b, pair)

    # One sweep_angle scan gives the same delays as 64 group_delay calls.  The
    # checks those calls make first run here in their order, so a bad omega
    # or an overflowing bracket raises as a per-point scan would.
    phases(model, omega)
    group_delays(model, omega)
    grid = np.linspace(lo, hi, 64)
    if math.isnan(grid[0]):
        raise ValueError(f"beta must be finite, got {float(grid[0])!r}")
    table = sweep_angle(model, omega, grid, pair)
    if table.singular.any():
        i = int(np.argmax(table.singular))
        raise BadBracket(f"bracket contains a postselection null near beta={float(grid[i])!r}")
    scanned = table.group_delay
    diffs = np.diff(scanned)
    increasing = bool(np.all(diffs > 0.0))
    decreasing = bool(np.all(diffs < 0.0))
    if not (increasing or decreasing):
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
    if g_hi - tau_measured == 0.0:
        return hi
    a, b = lo, hi
    fa = f_lo
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        fm = delay(mid) - tau_measured
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)
