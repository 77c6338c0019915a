"""Spectral-method pulse propagation through the post-selected system.

Fields are complex analytic envelopes on a frequency window around
``omega_center``; no carrier is represented, since the observable of
interest is arrival time.  The spectral/temporal pair uses the symmetric
transform normalization, so ``sum |S|^2 domega == sum |u|^2 dt`` (Parseval)
holds for every field.

Near a transfer-function zero the pulse reshapes and "arrival time" becomes
estimator-dependent, which is why the report carries both the interpolated
intensity peak and the intensity centroid.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PostselectionNull, _finite, _positive, _power_of_two
from .fourier import dft_forward, dft_inverse
from .weakmeas import SINGULAR_TOL, group_delay, transfer_line

__all__ = [
    "SpectralGrid",
    "PulseField",
    "PropagationReport",
    "gaussian_pulse",
    "propagate",
    "peak_time",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform frequency grid: n samples spanning omega_span around omega_center;
    n is an integer power of two >= 64, and omega_center and omega_span > 0 are finite."""

    n: int
    omega_center: float
    omega_span: float

    def __post_init__(self):
        object.__setattr__(self, "n", _power_of_two("sample count", self.n, 64))
        object.__setattr__(self, "omega_center", _finite("omega_center", self.omega_center))
        object.__setattr__(self, "omega_span", _positive("omega_span", self.omega_span))

    @property
    def delta_omega(self):
        return self.omega_span / self.n

    @property
    def time_step(self):
        return 2.0 * math.pi / self.omega_span

    def omegas(self):
        return self.omega_center + (np.arange(self.n) - self.n // 2) * self.delta_omega

    def times(self):
        return (np.arange(self.n) - self.n // 2) * self.time_step


def _sum_squares(z):
    return float(np.sum(z.real**2 + z.imag**2))


def _scaled_sum_squares(x, shift):
    """Sum of squares of the float array x times 2**shift.

    A numpy reduction, not ``np.dot``: BLAS dot products go multi-threaded
    on long vectors, and waking the threads costs more than the sum.
    """
    y = np.ldexp(x, shift)
    np.square(y, out=y)
    return float(y.sum())


def _half_shift(x):
    return np.roll(x, x.shape[0] // 2)


def _synthesis(grid, spectral):
    y = dft_forward(_half_shift(spectral))
    return _half_shift(y) * (grid.delta_omega / _SQRT_TWO_PI)


def _analysis(grid, temporal):
    y = dft_inverse(_half_shift(temporal))
    return _half_shift(y) * (grid.n * grid.time_step / _SQRT_TWO_PI)


@dataclass(frozen=True, eq=False)
class PulseField:
    """Paired spectral/temporal samples on a SpectralGrid; immutable.

    Build through ``from_spectral``/``from_temporal`` (or ``gaussian_pulse``);
    the constructor checks the Parseval pairing rather than recomputing it.
    Arrays the caller passes in are copied, so the field never aliases them.
    """

    grid: SpectralGrid
    spectral: np.ndarray
    temporal: np.ndarray

    def __post_init__(self):
        self._adopt(np.array(self.spectral, dtype=np.complex128),
                    np.array(self.temporal, dtype=np.complex128))

    @classmethod
    def _owning(cls, grid, spectral, temporal):
        """A field that takes over complex arrays no one else holds, without copying them."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        field._adopt(spectral, temporal)
        return field

    def _adopt(self, spectral, temporal):
        """Check the pair and keep the arrays as the field's read-only samples."""
        if spectral.shape != (self.grid.n,) or temporal.shape != (self.grid.n,):
            raise ValueError("spectral and temporal arrays must have grid length")
        # compare the energies of the samples times 2**shift, a power of two
        # that brings the largest part near 1: exact, and no square of the
        # samples that carry the energy goes subnormal or overflows
        parts = [a.view(np.float64) for a in (spectral, temporal)]
        peak = max(max(float(x.max()), -float(x.min())) for x in parts)
        if peak > 0.0:
            shift = -math.frexp(peak)[1]
            e_spec, e_temp = (_scaled_sum_squares(x, shift) * step for x, step in
                              zip(parts, (self.grid.delta_omega, self.grid.time_step)))
            if abs(e_spec - e_temp) > 1e-9 * max(e_spec, e_temp):
                with np.errstate(over="ignore"):
                    e_spec, e_temp = (float(np.ldexp(e, -2 * shift)) for e in (e_spec, e_temp))
                raise ValueError(
                    f"spectral/temporal pair violates Parseval: {e_spec!r} vs {e_temp!r}")
        spectral.setflags(write=False)
        temporal.setflags(write=False)
        object.__setattr__(self, "spectral", spectral)
        object.__setattr__(self, "temporal", temporal)

    @property
    def time_step(self):
        return self.grid.time_step

    @cached_property
    def intensity(self):
        """Temporal intensity |u|^2, computed on first use; read-only."""
        inten = self.temporal.real**2 + self.temporal.imag**2
        inten.setflags(write=False)
        return inten

    def spectral_energy(self):
        return _sum_squares(self.spectral) * self.grid.delta_omega

    def temporal_energy(self):
        return _sum_squares(self.temporal) * self.grid.time_step

    @classmethod
    def from_spectral(cls, grid, spectral):
        return cls._from_own_spectral(grid, np.array(spectral, dtype=np.complex128))

    @classmethod
    def _from_own_spectral(cls, grid, spectral):
        # spectral is a complex array no one else holds; the synthesis is fresh too
        return cls._owning(grid, spectral, _synthesis(grid, spectral))

    @classmethod
    def from_temporal(cls, grid, temporal):
        temporal = np.array(temporal, dtype=np.complex128)
        return cls._owning(grid, _analysis(grid, temporal), temporal)


@dataclass(frozen=True)
class PropagationReport:
    """Arrival-time bookkeeping for one propagation.

    ``peak_shift`` moves with the interpolated intensity maximum,
    ``centroid_shift`` with the intensity first moment; they diverge near a
    singularity, which is the fast-light caveat made visible.
    ``predicted_group_delay`` is None when the carrier sits on a null.
    """

    peak_shift: float
    centroid_shift: float
    energy_transmission: float
    predicted_group_delay: float | None


def gaussian_pulse(grid, sigma_omega):
    """Unit-energy Gaussian spectral envelope with temporal peak at t = 0.

    Requires omega_span >= 12*sigma_omega so the spectrum is negligible at
    the grid edges; temporal intensity FWHM is sqrt(2 ln 2)/sigma_omega.
    """
    sigma = _positive("sigma_omega", sigma_omega)
    if grid.omega_span < 12.0 * sigma:
        raise ValueError(
            f"omega_span {grid.omega_span:g} below the 12-sigma rule for "
            f"sigma_omega {sigma:g} (needs >= {12.0 * sigma:g})")
    nu = grid.omegas() - grid.omega_center
    amp = np.exp(-(nu * nu) / (4.0 * sigma * sigma))
    del nu
    amp /= math.sqrt(float(np.sum(amp * amp)) * grid.delta_omega)
    spectral = amp.astype(np.complex128)
    del amp
    return PulseField._from_own_spectral(grid, spectral)


def peak_time(field):
    """Arrival time of the intensity maximum, refined by parabolic interpolation.

    Falls back to the raw maximum sample at the array edges or on a flat top.
    """
    inten = field.intensity
    if not np.any(inten > 0.0):
        raise ValueError("field is identically zero")
    k = int(np.argmax(inten))
    # grid.times()[k], bit for bit
    t_k = (k - field.grid.n // 2) * field.time_step
    if 0 < k < inten.shape[0] - 1:
        f_lo, f_mid, f_hi = inten[k - 1], inten[k], inten[k + 1]
        denom = f_lo - 2.0 * f_mid + f_hi
        if denom != 0.0:
            delta = 0.5 * (f_lo - f_hi) / denom
            return float(t_k + delta * field.time_step)
    return t_k


def _centroid_time(field, times):
    """Intensity first moment of field; ``times`` is ``field.grid.times()``.

    Called only after ``peak_time`` has refused a field with no positive
    intensity, so the total, at least its largest term, is not zero.
    """
    inten = field.intensity
    return float(np.sum(times * inten)) / float(np.sum(inten))


def propagate(model, beta, pair, pulse):
    """Filter a pulse by T(omega, beta) and report arrival-time shifts.

    Output spectrum is T(omega_k) times the input spectrum bin by bin; the
    temporal profile follows by the in-artifact inverse transform.  Raises
    PostselectionNull only when T is null across the entire grid support.
    """
    grid = pulse.grid
    t = transfer_line(model, grid.omegas(), beta, pair)
    abs_t = np.sqrt(t.real * t.real + t.imag * t.imag)
    if bool(np.all(abs_t < SINGULAR_TOL)):
        raise PostselectionNull(
            "transfer function is null across the entire grid support")
    del abs_t
    spectral = t * pulse.spectral
    del t
    out = PulseField._from_own_spectral(grid, spectral)
    try:
        predicted = group_delay(model, grid.omega_center, beta, pair)
    except PostselectionNull:
        predicted = None
    times = grid.times()
    report = PropagationReport(
        peak_shift=peak_time(out) - peak_time(pulse),
        centroid_shift=_centroid_time(out, times) - _centroid_time(pulse, times),
        energy_transmission=out.spectral_energy() / pulse.spectral_energy(),
        predicted_group_delay=predicted,
    )
    return out, report
