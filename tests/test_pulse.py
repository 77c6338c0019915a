import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weaklight import (
    DEFAULT_MODEL,
    PostselectionNull,
    PulseField,
    SelectionPair,
    SpectralGrid,
    gaussian_pulse,
    peak_time,
    propagate,
    selection,
    transfer_line,
)
from conftest import flight_expectation, orthogonal_state, random_pair
from weaklight.fourier import dft_forward, dft_inverse
from weaklight.pulse import _analysis, _synthesis
from weaklight.weakmeas import SINGULAR_TOL, _grids

PI = math.pi
VV = selection("V", "V")
GRID = SpectralGrid(4096, 1.0, 0.64)


def intensity(field):
    return field.temporal.real**2 + field.temporal.imag**2


def fwhm(field):
    inten = intensity(field)
    t = field.grid.times()
    half = float(inten.max()) / 2.0
    above = np.flatnonzero(inten >= half)
    lo, hi = above[0], above[-1]
    # linear interpolation across the half-maximum crossings
    left = t[lo - 1] + (half - inten[lo - 1]) / (inten[lo] - inten[lo - 1]) \
        * field.time_step
    right = t[hi] + (inten[hi] - half) / (inten[hi] - inten[hi + 1]) \
        * field.time_step
    return float(right - left)


class TestSpectralGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            SpectralGrid(1000, 1.0, 0.64)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="64"):
            SpectralGrid(32, 1.0, 0.64)

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            SpectralGrid(64, 1.0, 0.0)

    def test_axes(self):
        g = SpectralGrid(64, 1.0, 0.64)
        w = g.omegas()
        t = g.times()
        assert w.size == 64 and t.size == 64
        assert w[32] == 1.0 and t[32] == 0.0
        assert g.time_step == pytest.approx(2 * PI / 0.64, abs=0)


# spectrum samples: zero, or of a magnitude whose square is a normal double;
# energies in the subnormal range keep too few digits for a 1e-9 comparison
samples = st.one_of(st.just(0j), st.complex_numbers(
    min_magnitude=1e-100, max_magnitude=1e6, allow_nan=False, allow_infinity=False))


class TestTransformPair:
    def test_round_trip(self):
        rng = np.random.default_rng(61)
        spec = rng.normal(size=GRID.n) + 1j * rng.normal(size=GRID.n)
        back = _analysis(GRID, _synthesis(GRID, spec))
        assert np.max(np.abs(back - spec)) / np.max(np.abs(spec)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), bits=st.integers(1, 12),
           span=st.floats(1e-3, 1e3, allow_subnormal=False))
    def test_parseval_on_random_fields(self, data, bits, span):
        n = 2 ** bits
        values = data.draw(arrays(np.complex128, n, elements=samples))
        # the transform pair at every size: sum |X|^2 = n sum |x|^2
        energy = float(np.sum(np.abs(values) ** 2))
        for transformed, factor in ((dft_forward(values), n), (dft_inverse(values), 1.0 / n)):
            assert abs(float(np.sum(np.abs(transformed) ** 2)) - factor * energy) \
                <= 1e-9 * factor * energy
        if n < 64:
            return   # the smallest SpectralGrid
        grid = SpectralGrid(n, 1.0, span)
        for field in (PulseField.from_spectral(grid, values),
                      PulseField.from_temporal(grid, values)):
            e_spec, e_temp = field.spectral_energy(), field.temporal_energy()
            assert abs(e_spec - e_temp) <= 1e-9 * max(e_spec, e_temp)

    def test_mismatched_pair_rejected(self):
        rng = np.random.default_rng(63)
        spec = rng.normal(size=GRID.n) + 0j
        with pytest.raises(ValueError, match="Parseval"):
            PulseField(GRID, spec, 2.0 * _synthesis(GRID, spec))

    # squares of these samples are subnormal, zero or infinite as doubles
    EXTREME = [1e-158, 1e-160, 1e-170, 1e-200, 1e-300, 1e160, 1e200, 1e300]

    @pytest.mark.parametrize("magnitude", EXTREME)
    def test_extreme_magnitudes_pass(self, magnitude):
        grid = SpectralGrid(64, 1.0, 0.64)
        for make in (PulseField.from_spectral, PulseField.from_temporal):
            make(grid, np.full(64, magnitude, complex))

    @pytest.mark.parametrize("magnitude", EXTREME)
    def test_extreme_mismatch_rejected(self, magnitude):
        grid = SpectralGrid(64, 1.0, 0.64)
        spec = np.full(64, magnitude, complex)
        with pytest.raises(ValueError, match="Parseval"):
            PulseField(grid, spec, 2.0 * _synthesis(grid, spec))


class TestFieldArrays:
    def test_caller_arrays_are_never_aliased(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=GRID.n) + 1j * rng.normal(size=GRID.n)
        paired = _synthesis(GRID, values)
        fields = (PulseField(GRID, values, paired), PulseField.from_spectral(GRID, values),
                  PulseField.from_temporal(GRID, values))
        kept = [(f.spectral.copy(), f.temporal.copy()) for f in fields]
        for field in fields:
            for arr in (field.spectral, field.temporal):
                assert not arr.flags.writeable
                assert not np.shares_memory(arr, values) and not np.shares_memory(arr, paired)
        values[:] = 0.0
        paired[:] = 0.0
        for field, (spec, temp) in zip(fields, kept):
            assert np.array_equal(field.spectral, spec) and np.array_equal(field.temporal, temp)

    def test_intensity_is_computed_once(self):
        p = gaussian_pulse(GRID, 0.01)
        assert p.intensity is p.intensity
        assert not p.intensity.flags.writeable
        assert p.intensity.tobytes() == intensity(p).tobytes()

    def test_peak_time_reads_the_time_axis(self):
        out, _ = propagate(DEFAULT_MODEL, 0.253 * PI, VV, gaussian_pulse(GRID, 0.005))
        t = GRID.times()
        k = int(np.argmax(intensity(out)))
        f_lo, f_mid, f_hi = intensity(out)[k - 1:k + 2]
        delta = 0.5 * (f_lo - f_hi) / (f_lo - 2.0 * f_mid + f_hi)
        assert peak_time(out) == float(t[k] + delta * GRID.time_step)


class TestGaussianPulse:
    def test_unit_energy(self):
        p = gaussian_pulse(GRID, 0.01)
        assert p.spectral_energy() == pytest.approx(1.0, abs=1e-9)
        assert p.temporal_energy() == pytest.approx(1.0, rel=1e-9)

    def test_peak_at_origin(self):
        p = gaussian_pulse(GRID, 0.01)
        assert abs(peak_time(p)) < p.time_step

    def test_fwhm(self):
        # Fourier pair: intensity FWHM = 2 sqrt(2 ln 2) / (2 sigma)
        p = gaussian_pulse(GRID, 0.01)
        expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) / 0.02
        assert expected == pytest.approx(117.74, abs=0.01)
        assert fwhm(p) == pytest.approx(expected, rel=0.02)

    def test_span_rule(self):
        with pytest.raises(ValueError, match="12-sigma"):
            gaussian_pulse(GRID, 0.06)


class TestPeakTime:
    def test_delta_sample_exact(self):
        u = np.zeros(GRID.n, dtype=complex)
        u[100] = 2.0
        field = PulseField.from_temporal(GRID, u)
        assert peak_time(field) == GRID.times()[100]

    @pytest.mark.parametrize("k", [0, GRID.n - 1])
    def test_edge_peak_is_that_sample(self, k):
        # no neighbour on one side, so no parabolic refinement
        u = np.zeros(GRID.n, dtype=complex)
        u[k] = 2.0
        u[1 if k == 0 else k - 1] = 1.0
        field = PulseField.from_temporal(GRID, u)
        assert peak_time(field) == GRID.times()[k]

    def test_gaussian_between_samples(self):
        t = GRID.times()
        center = 0.5 * (t[2048] + t[2049])
        u = np.exp(-((t - center) ** 2) / (2.0 * 50.0**2)).astype(complex)
        field = PulseField.from_temporal(GRID, u)
        assert abs(peak_time(field) - center) < 1e-3 * GRID.time_step

    def test_translation_equivariance(self):
        p = gaussian_pulse(GRID, 0.01)
        shifted = PulseField.from_temporal(GRID, np.roll(p.temporal, 7))
        delta = peak_time(shifted) - peak_time(p)
        assert delta == pytest.approx(7 * GRID.time_step, rel=1e-3)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            peak_time(PulseField.from_temporal(GRID, np.zeros(GRID.n, complex)))


class TestPropagate:
    def test_pure_delay_on_axis(self):
        p = gaussian_pulse(GRID, 0.01)
        out, report = propagate(DEFAULT_MODEL, 0.0, VV, p)
        assert report.predicted_group_delay == pytest.approx(10 * PI, abs=1e-9)
        assert report.peak_shift == pytest.approx(10 * PI, rel=0.005)
        assert report.energy_transmission == pytest.approx(1.0, abs=1e-9)

    def test_distortion_free_on_axis(self):
        # undo the linear phase spectrally (an exact continuous-time shift)
        # and compare intensities pointwise
        p = gaussian_pulse(GRID, 0.01)
        out, _ = propagate(DEFAULT_MODEL, 0.0, VV, p)
        t_line = transfer_line(DEFAULT_MODEL, GRID.omegas(), 0.0, VV)
        aligned = PulseField.from_spectral(GRID, out.spectral * np.conjugate(t_line))
        assert np.max(np.abs(intensity(aligned) - intensity(p))) < 1e-9

    def test_superposition_shift_and_loss(self):
        p = gaussian_pulse(GRID, 0.005)
        out, report = propagate(DEFAULT_MODEL, PI / 8, VV, p)
        assert report.peak_shift == pytest.approx(report.predicted_group_delay,
                                                  rel=0.02)
        # |T(1)|^2 = cos^2(pi/4)
        assert report.energy_transmission == pytest.approx(0.5, rel=0.02)

    def test_fast_light_sign(self):
        p = gaussian_pulse(GRID, 0.002)
        out, report = propagate(DEFAULT_MODEL, 0.253 * PI, VV, p)
        assert report.peak_shift < 0.0
        assert report.predicted_group_delay < 0.0

    def test_narrowband_convergence(self):
        errors = []
        for sigma in (0.02, 0.01, 0.005):
            p = gaussian_pulse(GRID, sigma)
            _, report = propagate(DEFAULT_MODEL, PI / 8, VV, p)
            errors.append(abs(report.peak_shift - report.predicted_group_delay))
        assert errors[0] > errors[1] > errors[2]

    def test_energy_transmission_definition(self):
        p = gaussian_pulse(GRID, 0.01)
        out, report = propagate(DEFAULT_MODEL, 0.3, VV, p)
        t_line = transfer_line(DEFAULT_MODEL, GRID.omegas(), 0.3, VV)
        weights = np.abs(t_line) ** 2 * np.abs(p.spectral) ** 2
        want = float(np.sum(weights)) / float(np.sum(np.abs(p.spectral) ** 2))
        assert report.energy_transmission == pytest.approx(want, abs=1e-12)

    def test_singular_carrier_reports_no_prediction(self):
        p = gaussian_pulse(GRID, 0.01)
        out, report = propagate(DEFAULT_MODEL, PI / 4, VV, p)
        assert report.predicted_group_delay is None
        assert report.energy_transmission < 0.01

    def test_whole_grid_null_raises(self):
        p = gaussian_pulse(GRID, 0.01)
        with pytest.raises(PostselectionNull, match="entire grid"):
            propagate(DEFAULT_MODEL, 0.0, selection("V", "H"), p)

    def test_parseval_after_propagation(self):
        p = gaussian_pulse(GRID, 0.005)
        out, _ = propagate(DEFAULT_MODEL, 0.1, VV, p)
        assert out.spectral_energy() == pytest.approx(out.temporal_energy(),
                                                      rel=1e-9)


def weak_value_identities(pair, beta, carrier, sigma, n, span):
    """Both sides of the two weak-value identities of a Gaussian pulse run, and their scales.

    With the weight w = |T E|^2 on the pulse's omegas, and W = N/T (weight 0
    where T is singular), in the continuum:
    - ``propagate``'s centroid shift equals the w-weighted mean of Re W;
    - the spectral-centroid shift equals -2 sigma^2 times that of Im W.
    Returns ``((shift, mean Re W, time scale), (spectral shift, -2 sigma^2 mean
    Im W, frequency scale), edge)``.  A scale bounds the terms whose rounding
    a side carries; ``edge`` is the larger of the weight at the ends of the
    frequency window and the output intensity at the ends of the time window,
    each relative to its peak: what the windows cut off.
    """
    grid = SpectralGrid(n, carrier, span)
    pulse = gaussian_pulse(grid, sigma)
    out, report = propagate(DEFAULT_MODEL, beta, pair, pulse)
    omegas = grid.omegas()
    _, _, tre, tim, nre, nim = _grids(DEFAULT_MODEL, omegas, [beta], pair, with_delay=True)
    t = tre[:, 0] + 1j * tim[:, 0]
    live = np.abs(t) >= SINGULAR_TOL
    w = np.where(live, np.abs(t * pulse.spectral) ** 2, 0.0)
    weak = np.zeros(n, complex)
    weak[live] = (nre[live, 0] + 1j * nim[live, 0]) / t[live]
    mean_w = complex(np.sum(w * weak) / np.sum(w))
    mean_abs_w = float(np.sum(w * np.abs(weak)) / np.sum(w))

    nu = omegas - carrier

    def centroid(weights):
        return float(np.sum(nu * weights) / np.sum(weights))

    spectral_shift = (centroid(np.abs(out.spectral) ** 2)
                      - centroid(np.abs(pulse.spectral) ** 2))
    inten = out.intensity
    edge = max(max(w[0], w[-1]) / w.max(), max(inten[0], inten[-1]) / inten.max())
    return ((report.centroid_shift, mean_w.real, mean_abs_w + 1.0 / sigma),
            (spectral_shift, -2.0 * sigma**2 * mean_w.imag,
             2.0 * sigma**2 * mean_abs_w + sigma),
            float(edge))


def residual(side):
    """The gap between the two sides of an identity, relative to its scale."""
    got, want, scale = side
    return abs(got - want) / scale


# rounding allowance, in units of the scale, and window-cut allowance per unit edge weight
ROUNDING_ULPS = 256
EDGE_FACTOR = 4.0

seeded_pairs = st.integers(0, 2**32 - 1).map(lambda seed: random_pair(np.random.default_rng(seed)))
# carriers at 1, where a linear pair's spectral shift vanishes by symmetry, and off it
carriers = st.one_of(st.just(1.0), st.builds(lambda sign, d: 1.0 + sign * d,
                                             st.sampled_from([-1.0, 1.0]),
                                             st.floats(0.005, 0.1)))


class TestWeakValueMovesThePulse:
    """The time shift follows Re W and the frequency shift follows Im W (Jozsa 2007)."""

    @settings(max_examples=60, deadline=None)
    @given(pair=seeded_pairs, beta=st.floats(0.0, PI), carrier=carriers,
           sigma=st.floats(0.003, 0.02), bits=st.integers(8, 16),
           window=st.floats(12.0, 48.0))
    def test_shifts_are_weighted_means_of_the_weak_value(self, pair, beta, carrier, sigma,
                                                         bits, window):
        try:
            time_side, freq_side, edge = weak_value_identities(
                pair, beta, carrier, sigma, 1 << bits, window * sigma)
        except PostselectionNull:
            return
        tol = ROUNDING_ULPS * np.finfo(float).eps + EDGE_FACTOR * edge
        assert residual(time_side) <= tol, (time_side, edge)
        if carrier != 1.0:
            assert residual(freq_side) <= tol, (freq_side, edge)

    def test_residual_grows_with_the_window_edge_weight(self):
        # 64 samples, windows of 12 to 16 sigma: the cut-off tails, not the
        # rounding, set the residual, and it falls with the edge weight
        runs = [weak_value_identities(VV, 0.8, 0.97, 0.01, 64, k * 0.01)
                for k in (12.0, 13.0, 14.0, 16.0)]
        edges = [edge for _, _, edge in runs]
        assert edges == sorted(edges, reverse=True) and edges[0] > 1e-8
        for side in (0, 1):
            gaps = [residual(run[side]) for run in runs]
            assert gaps == sorted(gaps, reverse=True), gaps
            assert gaps[0] > 1e3 * ROUNDING_ULPS * np.finfo(float).eps, gaps
            assert all(gap <= EDGE_FACTOR * edge for gap, edge in zip(gaps, edges)), gaps


class TestPulseSumRule:
    """Through an orthogonal pair of analyzers, the energy-weighted centroid shifts
    sum to <psi_in|F|psi_in>: the energies sum to the input's, and the two output
    fields together carry the whole delayed vector field."""

    # 4096 samples over 40 sigma: the windows cut off tails far below rounding
    @settings(max_examples=40, deadline=None)
    @given(pair=seeded_pairs, beta=st.floats(0.0, PI),
           carrier=st.sampled_from([0.97, 1.0, 1.03]), sigma=st.floats(0.003, 0.02))
    def test_energy_weighted_centroid_shifts_sum_to_the_expectation(self, pair, beta, carrier,
                                                                    sigma):
        pulse = gaussian_pulse(SpectralGrid(4096, carrier, 40.0 * sigma), sigma)
        total = 0.0
        for psi_f in (pair.psi_f, orthogonal_state(pair.psi_f)):
            _, report = propagate(DEFAULT_MODEL, beta, SelectionPair(pair.psi_in, psi_f), pulse)
            total += report.energy_transmission * report.centroid_shift
        # the default model's delays, and so F, are the same at every omega
        want = flight_expectation(DEFAULT_MODEL, carrier, beta, pair.psi_in).real
        # the time side's scale in weak_value_identities: the delays and the pulse width
        scale = 10.0 * PI + 1.0 / sigma
        assert abs(total - want) <= 8 * np.finfo(float).eps * scale, (total, want)
