"""Dispersion models for the birefringent plate and the operators they generate.

Units are normalized: frequency in units of the default model's first
half-wave frequency, time in its inverse.  The default linear model carries
TE/TM phase slopes of 10*pi and 9*pi with zero offsets, so the TE-TM phase
difference is pi*omega and the plate acts as a half-wave plate exactly at
omega = 1, 3, 5, ...  TE is the slow axis by convention; swapping the axes is
a model-parameter change, not a code change.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.interpolate import PchipInterpolator

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


def _finite(name, value):
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


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
    interpolant, so phases and delays stay mutually consistent.  Arrays are
    evaluated by scipy; single frequencies by ``_piece``, which repeats
    scipy's arithmetic on the same coefficients without its per-call cost.
    """

    omega_samples: np.ndarray
    phi_te_samples: np.ndarray
    phi_tm_samples: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega_samples, dtype=float).copy()
        te = np.asarray(self.phi_te_samples, dtype=float).copy()
        tm = np.asarray(self.phi_tm_samples, dtype=float).copy()
        if w.ndim != 1 or te.ndim != 1 or tm.ndim != 1:
            raise ValueError("sample arrays must be one-dimensional")
        if w.size < 2:
            raise ValueError("need at least 2 samples")
        if te.size != w.size or tm.size != w.size:
            raise ValueError("sample arrays must have equal length")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(te))
                and np.all(np.isfinite(tm))):
            raise ValueError("sample arrays must be finite")
        if np.any(np.diff(w) <= 0.0):
            raise ValueError("omega samples must be strictly increasing")
        for arr in (w, te, tm):
            arr.setflags(write=False)
        object.__setattr__(self, "omega_samples", w)
        object.__setattr__(self, "phi_te_samples", te)
        object.__setattr__(self, "phi_tm_samples", tm)
        pte = PchipInterpolator(w, te)
        ptm = PchipInterpolator(w, tm)
        object.__setattr__(self, "_phi_te", pte)
        object.__setattr__(self, "_phi_tm", ptm)
        dte = pte.derivative()
        dtm = ptm.derivative()
        object.__setattr__(self, "_dphi_te", dte)
        object.__setattr__(self, "_dphi_tm", dtm)
        object.__setattr__(self, "_knots", pte.x.tolist())
        object.__setattr__(self, "_phi_coeffs", (_intervals(pte), _intervals(ptm)))
        object.__setattr__(self, "_dphi_coeffs", (_intervals(dte), _intervals(dtm)))


def _intervals(pp):
    """A PPoly's coefficients as one list per interval, lowest power first."""
    return pp.c[::-1].T.tolist()


DispersionModel = Union[LinearDispersion, TabulatedDispersion]

DEFAULT_MODEL = LinearDispersion()


def domain(model):
    """Valid omega interval; linear models cover all omega >= 0."""
    if isinstance(model, TabulatedDispersion):
        return (float(model.omega_samples[0]), float(model.omega_samples[-1]))
    return (0.0, math.inf)


def _check_omega(model, omega):
    omega = _finite("omega", omega)
    lo, hi = domain(model)
    if omega < lo or omega > hi:
        if isinstance(model, TabulatedDispersion):
            raise ValueError(
                f"omega {omega!r} outside tabulated range [{lo:g}, {hi:g}]")
        raise ValueError(f"omega must be nonnegative, got {omega!r}")
    return omega


def _piece(knots, coeffs, omega):
    """Each piecewise polynomial of ``coeffs`` at one in-domain omega, as scipy's PPoly computes it.

    The interval search is scipy's ``find_interval`` (knots[i] <= omega <
    knots[i + 1], the last interval closed on the right) and the sum follows
    its ``evaluate_poly1`` term by term, so the result matches the array path
    bitwise.
    """
    i = min(bisect_right(knots, omega), len(knots) - 1) - 1
    s = omega - knots[i]
    out = []
    for c in coeffs:
        res = 0.0
        z = 1.0
        for ck in c[i]:
            res = res + ck * z
            z = z * s
        out.append(res)
    return tuple(out)


def phases(model, omega):
    """(phi_te, phi_tm) at a single frequency."""
    omega = _check_omega(model, omega)
    if isinstance(model, LinearDispersion):
        return (model.tau_te * omega + model.phi0_te,
                model.tau_tm * omega + model.phi0_tm)
    return _piece(model._knots, model._phi_coeffs, omega)


def phase_arrays(model, omegas):
    """Vectorized phases(); same domain rules, returns two float arrays."""
    w = np.asarray(omegas, dtype=float)
    if w.size == 0:
        raise ValueError("omega array must be nonempty")
    if not np.all(np.isfinite(w)):
        raise ValueError("omega array must be finite")
    lo, hi = domain(model)
    wmin, wmax = float(w.min()), float(w.max())
    if wmin < lo or wmax > hi:
        if isinstance(model, TabulatedDispersion):
            raise ValueError(
                f"omega range [{wmin:g}, {wmax:g}] outside tabulated "
                f"range [{lo:g}, {hi:g}]")
        raise ValueError(f"omega must be nonnegative, got minimum {wmin!r}")
    if isinstance(model, LinearDispersion):
        return (model.tau_te * w + model.phi0_te,
                model.tau_tm * w + model.phi0_tm)
    return (np.asarray(model._phi_te(w), dtype=float),
            np.asarray(model._phi_tm(w), dtype=float))


def group_delays(model, omega):
    """(tau_te, tau_tm) at a single frequency: the eigen-delays of the plate."""
    if isinstance(model, LinearDispersion):
        _check_omega(model, omega)
        return (model.tau_te, model.tau_tm)
    omega = _finite("omega", omega)
    lo, hi = domain(model)
    if not lo < omega < hi:
        raise ValueError(
            f"group delays need omega strictly inside the tabulated range "
            f"({lo:g}, {hi:g}); got {omega!r}")
    return _piece(model._knots, model._dphi_coeffs, omega)


def delay_arrays(model, omegas):
    """Vectorized eigen-delays on the model's closed domain."""
    w = np.asarray(omegas, dtype=float)
    if isinstance(model, LinearDispersion):
        return (np.full(w.shape, model.tau_te), np.full(w.shape, model.tau_tm))
    return (np.asarray(model._dphi_te(w), dtype=float),
            np.asarray(model._dphi_tm(w), dtype=float))


def _bisect_root(fun, a, b, fa, tol=1e-10):
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def half_wave_frequencies(model, omega_range, scan=1000):
    """All omega in the range where phi_te - phi_tm is pi modulo 2*pi.

    Roots of cos((phi_te - phi_tm)/2) are bracketed on a scan grid and
    bisected to 1e-10; tangential (double) roots that never change sign on
    the scan grid are not detected.
    """
    lo = _finite("omega_range[0]", omega_range[0])
    hi = _finite("omega_range[1]", omega_range[1])
    if not lo < hi:
        raise ValueError(f"empty omega range [{lo!r}, {hi!r}]")
    dom_lo, dom_hi = domain(model)
    if lo < dom_lo or hi > dom_hi:
        raise ValueError(
            f"omega range [{lo:g}, {hi:g}] outside model domain "
            f"[{dom_lo:g}, {dom_hi:g}]")
    scan = int(scan)
    if scan < 2:
        raise ValueError("scan density must be at least 2")

    def fun(w):
        pte, ptm = phases(model, w)
        return math.cos(0.5 * (pte - ptm))

    grid = np.linspace(lo, hi, scan)
    vals = [fun(w) for w in grid]
    roots = []
    for i in range(scan - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(_bisect_root(fun, float(grid[i]), float(grid[i + 1]),
                                      vals[i]))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


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
