import cmath
import copy
import math
import pickle
import re
import tracemalloc
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import flight_expectation, orthogonal_state, random_pair, random_state
from weaklight import (
    DEFAULT_MODEL,
    BadBracket,
    LinearDispersion,
    PolarizationOperator,
    PolarizationState,
    PostselectionNull,
    PulseField,
    SelectionPair,
    SpectralGrid,
    apply,
    basis_state,
    contour_grid,
    estimate_beta,
    find_singularities,
    gaussian_pulse,
    group_delay,
    half_wave_frequencies,
    is_hermitian,
    is_unitary,
    linear_state,
    load_tabulated,
    phase_spectrum,
    phases,
    rotation,
    selection,
    sweep_angle,
    transfer,
    transfer_grid,
    transfer_line,
    unwrap,
    weak_flight_value,
)
from weaklight import crystal, fourier, weakmeas
from weaklight.crystal import phase_arrays
from weaklight.weakmeas import _grids

PI = math.pi
VV = selection("V", "V")

# TE - TM = pi at the knot omega = 1, so V/V has exact zeros at beta = pi/4, 3pi/4
TABLE = load_tabulated(Path(__file__).resolve().parent / "golden" / "disp.csv")

angles = st.floats(-PI, PI)
# any elliptical polarization, global phase included
states = st.builds(lambda theta, phi, chi: PolarizationState(
    cmath.rect(math.cos(theta), chi), cmath.rect(math.sin(theta), chi + phi)),
    st.floats(0.0, PI / 2), angles, angles)
pairs = st.builds(SelectionPair, states, states)
slopes = st.floats(-50.0, 50.0)
linear_models = st.tuples(slopes, slopes, angles, angles).filter(
    lambda a: a[0] != a[1]).map(lambda a: LinearDispersion(*a))
# the table is drawn on the interior of its omega domain
models_with_omegas = st.one_of(
    st.tuples(linear_models, st.lists(st.floats(0.0, 4.0), min_size=1, max_size=5)),
    st.tuples(st.just(TABLE),
              st.lists(st.floats(0.25, 1.75, exclude_min=True, exclude_max=True),
                       min_size=1, max_size=5)))
betas = st.lists(st.floats(-2 * PI, 2 * PI), min_size=1, max_size=5)


def closed_form_delay(beta):
    """(V, V) group delay at the half-wave frequency: 9.5*pi + 0.5*pi/cos(2*beta).

    Derived by hand from T = cos^2(b) e^{i phi_te} + sin^2(b) e^{i phi_tm}
    with e^{i phi_te} = +1 and e^{i phi_tm} = -1 at omega = 1.
    """
    return 9.5 * PI + 0.5 * PI / math.cos(2.0 * beta)


class TestTransfer:
    def test_unit_response_on_axis(self):
        assert transfer(DEFAULT_MODEL, 1.0, 0.0, VV) == pytest.approx(1.0 + 0.0j,
                                                                      abs=1e-12)

    def test_zero_at_singular_point(self):
        assert abs(transfer(DEFAULT_MODEL, 1.0, PI / 4, VV)) < 1e-12

    def test_half_frequency_value(self):
        # direct evaluation: (e^{i 5 pi} + e^{i 4.5 pi}) / 2 = (-1 + i) / 2
        t = transfer(DEFAULT_MODEL, 0.5, PI / 4, VV)
        assert t == pytest.approx(-0.5 + 0.5j, abs=1e-12)

    def test_vv_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            omega = rng.uniform(0.0, 3.0)
            beta = rng.uniform(-PI, 2 * PI)
            pte, ptm = 10 * PI * omega, 9 * PI * omega
            want = (math.cos(beta) ** 2 * cmath.exp(1j * pte)
                    + math.sin(beta) ** 2 * cmath.exp(1j * ptm))
            assert transfer(DEFAULT_MODEL, omega, beta, VV) == pytest.approx(
                want, abs=1e-12)

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            t = transfer(DEFAULT_MODEL, rng.uniform(0.0, 3.0),
                         rng.uniform(-PI, 2 * PI), random_pair(rng))
            assert abs(t) <= 1.0 + 1e-12

    def test_period_symmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            omega = rng.uniform(0.0, 3.0)
            beta = rng.uniform(-PI, PI)
            pair = random_pair(rng)
            assert transfer(DEFAULT_MODEL, omega, beta + PI, pair) == pytest.approx(
                transfer(DEFAULT_MODEL, omega, beta, pair), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(model_omegas=models_with_omegas, betas=betas, pair=pairs)
    def test_magnitude_bounded_drawn(self, model_omegas, betas, pair):
        model, omegas = model_omegas
        assert np.all(np.abs(transfer_grid(model, omegas, betas, pair)) <= 1.0 + 1e-12)
        for omega in omegas:
            for beta in betas:
                assert abs(transfer(model, omega, beta, pair)) <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(model_omegas=models_with_omegas, betas=betas, pair=pairs)
    def test_period_symmetry_drawn(self, model_omegas, betas, pair):
        model, omegas = model_omegas
        shifted = [beta + PI for beta in betas]
        grid = transfer_grid(model, omegas, betas, pair)
        assert np.all(np.abs(transfer_grid(model, omegas, shifted, pair) - grid) <= 1e-12)
        for omega in omegas:
            for beta, beta_pi in zip(betas, shifted):
                assert abs(transfer(model, omega, beta_pi, pair)
                           - transfer(model, omega, beta, pair)) <= 1e-12

    def test_axis_swap_symmetry(self):
        swapped = LinearDispersion(tau_te=9 * PI, tau_tm=10 * PI)
        rng = np.random.default_rng(34)
        for _ in range(300):
            omega = rng.uniform(0.0, 3.0)
            beta = rng.uniform(-PI, PI)
            assert transfer(swapped, omega, PI / 2 - beta, VV) == pytest.approx(
                transfer(DEFAULT_MODEL, omega, beta, VV), abs=1e-12)

    def test_selection_keeps_states(self):
        psi_in, psi_f = linear_state(0.3), PolarizationState(math.sqrt(0.5), 1j * math.sqrt(0.5))
        pair = selection(psi_in, psi_f)
        assert pair.psi_in is psi_in and pair.psi_f is psi_f

    def test_grid_matches_scalar_bitwise(self):
        omegas = np.linspace(0.3, 2.7, 23)
        betas = np.linspace(-1.0, 4.0, 19)
        pair = selection("D45", 0.3)
        grid = transfer_grid(DEFAULT_MODEL, omegas, betas, pair)
        for i in (0, 7, 22):
            for j in (0, 9, 18):
                assert grid[i, j] == transfer(DEFAULT_MODEL, float(omegas[i]),
                                              float(betas[j]), pair)


class TestUnwrap:
    def test_forward_jump(self):
        out = unwrap(np.array([0.0, 3.0, -3.0]))
        assert out == pytest.approx([0.0, 3.0, -3.0 + 2 * PI], abs=1e-12)

    def test_already_smooth(self):
        out = unwrap(np.array([0.1, 0.2, 0.3]))
        assert out == pytest.approx([0.1, 0.2, 0.3], abs=0)

    def test_backward_jump(self):
        out = unwrap(np.array([0.0, -3.0, 3.0]))
        assert out == pytest.approx([0.0, -3.0, 3.0 - 2 * PI], abs=1e-12)

    def test_differences_in_branch_and_idempotent(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            truth = np.cumsum(rng.uniform(-3.0, 3.0, size=200))
            wrapped = np.angle(np.exp(1j * truth))
            out = unwrap(wrapped)
            d = np.diff(out)
            assert np.all(d > -PI - 1e-12) and np.all(d <= PI + 1e-12)
            assert np.allclose(unwrap(out), out, atol=1e-9)
            # congruent to the input modulo 2 pi
            assert np.max(np.abs(np.angle(np.exp(1j * (out - wrapped))))) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(angles, st.floats(-1e3, 1e3)), min_size=1, max_size=64))
    def test_idempotent_bitwise_drawn(self, phases):
        once = unwrap(np.array(phases))
        assert unwrap(once).tobytes() == once.tobytes()

    def test_smooth_input_returned_unchanged(self):
        x = np.array([0.1, 0.2, 0.3, -2.5, 0.6])
        assert unwrap(x).tobytes() == x.tobytes()

    def test_step_of_minus_pi_is_settled(self):
        # the step is exactly -pi, which the branch maps to +pi; summed back
        # onto the first sample it rounds above pi, and a second unwrap used
        # to shift the last sample by -2 pi
        x = np.array([0.9549193422305247, -2.1866733113592685])
        once = unwrap(x)
        assert once[0] == x[0]
        assert -PI < once[1] - once[0] <= PI
        assert abs(once[1] - x[1] - 2 * PI) < 1e-12
        assert unwrap(once).tobytes() == once.tobytes()

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            unwrap(np.array([]))
        with pytest.raises(ValueError):
            unwrap(np.array([0.0, math.nan]))

    @pytest.mark.parametrize("phases", [[-1e308, 1e308], [-1e300, 1e300, -1e300],
                                        [-1e17, 1e17]])
    def test_rejects_phases_beyond_bound_without_warnings(self, phases):
        # their steps overflow or cancel, so no output is congruent mod 2 pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2\\*\\*40"):
                unwrap(np.array(phases))

    def test_phases_at_bound_stay_congruent(self):
        x = np.array([0.0, 2.0**40, -2.0**40])
        out = unwrap(x)
        d = np.diff(out)
        assert np.all(d > -PI) and np.all(d <= PI)
        # doubles near 2**40 are 2**-12 rad apart
        assert np.max(np.abs(np.angle(np.exp(1j * (out - x))))) < 1e-3


class TestPhaseSpectrum:
    def test_linear_phase_on_axis(self):
        omegas = np.linspace(0.1, 0.9, 81)
        ps = phase_spectrum(DEFAULT_MODEL, 0.0, VV, omegas)
        assert not ps.undersampled
        assert not ps.singular.any()
        assert np.max(np.abs(ps.phase - 10 * PI * omegas)) < 1e-12

    def test_nyquist_edge_grid_is_flagged(self):
        # nine points on [0.1, 0.9] put the true increments exactly at pi,
        # violating the caller-side density precondition; the warning flag
        # is the contract there, the values are branch-ambiguous
        ps = phase_spectrum(DEFAULT_MODEL, 0.0, VV, np.linspace(0.1, 0.9, 9))
        assert ps.undersampled

    def test_mean_delay_slope_at_quarter_turn(self):
        # T = e^{i 9.5 pi w} cos(0.5 pi w): the cosine is real positive on
        # this window, so the fitted phase slope is the mean delay 9.5*pi
        omegas = np.linspace(0.1, 0.9, 161)
        ps = phase_spectrum(DEFAULT_MODEL, PI / 4, VV, omegas)
        slope = np.polyfit(omegas, ps.phase, 1)[0]
        assert slope == pytest.approx(9.5 * PI, abs=1e-6)

    def test_singular_sample_flagged(self):
        omegas = np.linspace(0.5, 1.5, 11)  # contains 1.0 exactly
        ps = phase_spectrum(DEFAULT_MODEL, PI / 4, VV, omegas)
        assert ps.singular.sum() == 1
        assert ps.singular[5]
        assert math.isnan(ps.phase[5])
        assert np.all(np.isfinite(ps.phase[~ps.singular]))

    def test_all_null_raises(self):
        with pytest.raises(PostselectionNull, match="null everywhere"):
            phase_spectrum(DEFAULT_MODEL, 0.0, selection("V", "H"),
                           np.linspace(0.1, 0.9, 9))

    def test_undersampling_flag(self):
        # step 0.095 gives wrapped increments of 0.95*pi on the beta=0 line
        coarse = np.arange(0.1, 1.2, 0.095)
        assert phase_spectrum(DEFAULT_MODEL, 0.0, VV, coarse).undersampled
        fine = np.linspace(0.1, 0.9, 161)
        assert not phase_spectrum(DEFAULT_MODEL, 0.0, VV, fine).undersampled


class TestGroupDelay:
    def test_eigenstate_endpoints(self):
        assert group_delay(DEFAULT_MODEL, 1.0, 0.0, VV) == pytest.approx(
            10 * PI, abs=1e-9)
        assert group_delay(DEFAULT_MODEL, 1.0, PI / 2, VV) == pytest.approx(
            9 * PI, abs=1e-9)

    def test_outside_eigenvalue_range(self):
        gd = group_delay(DEFAULT_MODEL, 1.0, PI / 8, VV)
        assert gd == pytest.approx(closed_form_delay(PI / 8), abs=1e-12)
        assert gd > 10 * PI

    def test_extreme_values_both_signs(self):
        slow = group_delay(DEFAULT_MODEL, 1.0, 0.24 * PI, VV)
        fast = group_delay(DEFAULT_MODEL, 1.0, 0.253 * PI, VV)
        assert slow == pytest.approx(closed_form_delay(0.24 * PI), abs=1e-9)
        assert fast == pytest.approx(closed_form_delay(0.253 * PI), abs=1e-9)
        assert slow == pytest.approx(54.8616, abs=1e-3)
        assert fast == pytest.approx(-53.4931, abs=1e-3)

    def test_balanced_superposition_mean_delay(self):
        assert group_delay(DEFAULT_MODEL, 0.7, PI / 4, VV) == pytest.approx(
            9.5 * PI, abs=1e-9)

    def test_numeric_matches_analytic(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            omega = rng.uniform(0.4, 1.6)
            beta = rng.uniform(0.0, PI)
            if abs(transfer(DEFAULT_MODEL, omega, beta, VV)) < 1e-2:
                continue
            ga = group_delay(DEFAULT_MODEL, omega, beta, VV)
            gn = group_delay(DEFAULT_MODEL, omega, beta, VV, method="numeric")
            assert gn == pytest.approx(ga, abs=1e-6)

    def test_numeric_second_order(self):
        # near-singular point has sizable third phase derivative, making the
        # truncation term dominate roundoff; halving h divides it by ~4
        omega, beta = 0.99, 0.245 * PI
        ga = group_delay(DEFAULT_MODEL, omega, beta, VV)
        e1 = abs(group_delay(DEFAULT_MODEL, omega, beta, VV, method="numeric",
                             h=1e-5) - ga)
        e2 = abs(group_delay(DEFAULT_MODEL, omega, beta, VV, method="numeric",
                             h=5e-6) - ga)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_eigenstate_reduction(self):
        # aligning both selections with the rotated TE axis collapses the
        # weak value onto the eigen-delay
        rng = np.random.default_rng(52)
        for _ in range(200):
            omega = rng.uniform(0.1, 2.9)
            beta = rng.uniform(-PI, PI)
            a1, a2 = apply(rotation(beta), basis_state("V"))
            rotated = PolarizationState(a1, a2)
            pair = SelectionPair(rotated, rotated)
            assert group_delay(DEFAULT_MODEL, omega, beta, pair) == pytest.approx(
                10 * PI, abs=1e-12)

    def test_null_postselection_raises(self):
        with pytest.raises(PostselectionNull):
            group_delay(DEFAULT_MODEL, 0.7, 0.0, selection("V", "H"))
        with pytest.raises(PostselectionNull):
            group_delay(DEFAULT_MODEL, 1.0, PI / 4, VV, method="numeric")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            group_delay(DEFAULT_MODEL, 1.0, 0.1, VV, method="magic")


class TestWeakFlightValue:
    def test_eigenstate_is_eigenvalue(self):
        w = weak_flight_value(DEFAULT_MODEL, 1.0, 0.0, VV)
        assert w == pytest.approx(10 * PI + 0j, abs=1e-12)

    def test_imaginary_part_is_log_magnitude_slope(self):
        # oracle: centered difference of ln |T|
        omega, beta, h = 0.9, PI / 8, 1e-6
        w = weak_flight_value(DEFAULT_MODEL, omega, beta, VV)
        lo = math.log(abs(transfer(DEFAULT_MODEL, omega - h, beta, VV)))
        hi = math.log(abs(transfer(DEFAULT_MODEL, omega + h, beta, VV)))
        assert w.imag == pytest.approx(-(hi - lo) / (2 * h), abs=1e-5)

    def test_real_part_is_group_delay(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            omega = rng.uniform(0.1, 2.9)
            beta = rng.uniform(-PI, PI)
            pair = random_pair(rng)
            try:
                w = weak_flight_value(DEFAULT_MODEL, omega, beta, pair)
            except PostselectionNull:
                continue
            assert w.real == group_delay(DEFAULT_MODEL, omega, beta, pair)

    def test_orthogonal_selection_raises(self):
        with pytest.raises(PostselectionNull):
            weak_flight_value(DEFAULT_MODEL, 0.3, 0.0, selection("V", "H"))


class TestExpectationBound:
    def test_rayleigh_quotient_bounded_but_weak_value_not(self):
        from weaklight import flight_operator

        rng = np.random.default_rng(54)
        for _ in range(1000):
            psi = random_state(rng)
            op = flight_operator(DEFAULT_MODEL, rng.uniform(0.1, 2.9),
                                 rng.uniform(-PI, PI))
            out = apply(op, psi)
            val = (psi.a1.conjugate() * out[0] + psi.a2.conjugate() * out[1]).real
            assert 9 * PI - 1e-12 <= val <= 10 * PI + 1e-12
        # contrast: a weak value escapes the eigenvalue interval
        assert group_delay(DEFAULT_MODEL, 1.0, PI / 8, VV) > 10 * PI


class TestOppositeSignExtremes:
    def test_signs_and_growth(self):
        deltas = [0.005 * PI, 0.002 * PI, 0.001 * PI]
        slow_prev = fast_prev = 0.0
        for d in deltas:
            slow = group_delay(DEFAULT_MODEL, 1.0, PI / 4 - d, VV)
            fast = group_delay(DEFAULT_MODEL, 1.0, PI / 4 + d, VV)
            assert slow > 0.0 and fast < 0.0
            assert slow > slow_prev and -fast > fast_prev
            slow_prev, fast_prev = slow, -fast


class TestSweepAngle:
    def test_fig3_structure(self):
        betas = np.linspace(0.0, PI / 2, 181)
        samples = sweep_angle(DEFAULT_MODEL, 1.0, betas, VV)
        assert len(samples) == 181
        assert [s.beta for s in samples] == pytest.approx(list(betas), abs=0)
        assert samples[0].group_delay == pytest.approx(10 * PI, abs=1e-9)
        assert samples[-1].group_delay == pytest.approx(9 * PI, abs=1e-9)
        singular = [s for s in samples if s.singular]
        assert len(singular) == 1
        assert singular[0].beta == pytest.approx(PI / 4, abs=1e-12)
        assert singular[0].group_delay is None
        delays = [s.group_delay for s in samples if not s.singular]
        assert max(delays) > 10 * PI and min(delays) < 0.0
        # spot-check against the direct scalar evaluation
        k = 60
        assert samples[k].group_delay == pytest.approx(
            group_delay(DEFAULT_MODEL, 1.0, float(betas[k]), VV), abs=1e-12)

    def test_sample_invariants(self):
        samples = sweep_angle(DEFAULT_MODEL, 0.8, np.linspace(0, PI, 50), VV)
        for s in samples:
            assert abs(s.abs_t - abs(s.t)) < 1e-12
            assert s.abs_t <= 1.0 + 1e-12
            assert -PI < s.arg_t <= PI


class TestContourGrid:
    def test_low_magnitude_cells_hug_singularities(self):
        omegas = np.linspace(0.5, 1.5, 101)
        betas = np.linspace(0.0, PI, 181)
        grid = contour_grid(DEFAULT_MODEL, omegas, betas, VV)
        lows = [(s.omega, s.beta) for row in grid for s in row if s.abs_t < 1e-3]
        assert len(lows) > 0
        for omega, beta in lows:
            near_first = abs(omega - 1.0) <= 0.01 and abs(beta - PI / 4) <= PI / 180
            near_second = abs(omega - 1.0) <= 0.01 and abs(beta - 3 * PI / 4) <= PI / 180
            assert near_first or near_second

    def test_single_cell_branch_representative(self):
        grid = contour_grid(DEFAULT_MODEL, [0.5], [0.0], VV)
        assert len(grid) == 1 and len(grid[0]) == 1
        assert grid[0][0].arg_t == pytest.approx(PI, abs=1e-12)

    def test_warm_peak_memory(self):
        # the table's T and numerator columns are the kernel's omega-major
        # grids themselves, not copies of them
        omegas = np.linspace(0.5, 1.5, 501)
        betas = np.linspace(0.0, PI, 501)
        contour_grid(DEFAULT_MODEL, omegas, betas, VV)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            grid = contour_grid(DEFAULT_MODEL, omegas, betas, VV)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (501, 501)
        assert peak <= 12 * 8 * 501 * 501

    def test_deterministic(self):
        omegas = np.linspace(0.5, 1.5, 11)
        betas = np.linspace(0.0, PI, 13)
        a = contour_grid(DEFAULT_MODEL, omegas, betas, VV)
        b = contour_grid(DEFAULT_MODEL, omegas, betas, VV)
        for ra, rb in zip(a, b):
            for sa, sb in zip(ra, rb):
                assert sa.t == sb.t and sa.arg_t == sb.arg_t
                assert sa.group_delay == sb.group_delay


class TestFindSingularities:
    def test_default_window(self):
        hits = find_singularities(DEFAULT_MODEL, (0.5, 1.5), (0.0, PI), VV)
        assert len(hits) == 2
        assert hits[0].omega == pytest.approx(1.0, abs=1e-6)
        assert hits[0].beta == pytest.approx(PI / 4, abs=1e-6)
        assert hits[1].omega == pytest.approx(1.0, abs=1e-6)
        assert hits[1].beta == pytest.approx(3 * PI / 4, abs=1e-6)
        assert all(h.residual_abs_t < 1e-10 for h in hits)

    def test_window_without_zero(self):
        assert find_singularities(DEFAULT_MODEL, (0.5, 1.5), (0.0, 0.2 * PI),
                                  VV) == []

    def test_diagonal_selection_against_brute_force(self):
        pair = selection("D45", "D45")
        hits = find_singularities(DEFAULT_MODEL, (0.5, 1.5), (0.0, PI), pair)
        # brute-force oracle: slab-wise 2000 x 2000 |T| scan of the window
        omegas = np.linspace(0.5, 1.5, 2000)
        betas = np.linspace(0.0, PI, 2000)
        cells = []
        for k in range(0, betas.size, 250):
            slab = betas[k:k + 250]
            mag = np.abs(transfer_grid(DEFAULT_MODEL, omegas, slab, pair))
            for i, j in zip(*np.nonzero(mag < 2e-3)):
                cells.append((float(omegas[i]), float(slab[j])))
        assert len(hits) == 3
        step = (PI - 0.0) / 1999
        for h in hits:
            assert any(abs(h.omega - w) <= 2 * step and abs(h.beta - b) <= 2 * step
                       for w, b in cells)
        for w, b in cells:
            assert any(abs(h.omega - w) <= 2 * step and abs(h.beta - b) <= 2 * step
                       for h in hits)

    def test_off_grid_zero_is_refined(self):
        # scan grid deliberately misses omega = 1 and beta = pi/4
        hits = find_singularities(DEFAULT_MODEL, (0.45, 1.55), (0.1, 1.0), VV,
                                  scan=64, tol=1e-10)
        assert len(hits) == 1
        assert hits[0].omega == pytest.approx(1.0, abs=1e-6)
        assert hits[0].beta == pytest.approx(PI / 4, abs=1e-6)
        assert hits[0].residual_abs_t < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            find_singularities(DEFAULT_MODEL, (1.5, 0.5), (0.0, PI), VV)
        with pytest.raises(ValueError):
            find_singularities(DEFAULT_MODEL, (0.5, 1.5), (0.0, PI), VV, tol=0.0)

    def test_overflowing_phase_raises(self):
        # not [] from a scan of NaN phases
        with pytest.raises(ValueError, match="phase is not finite at omega"):
            find_singularities(DEFAULT_MODEL, (1e306, 1e308), (0.0, PI), VV)

    @pytest.mark.parametrize("omega_range, beta_range, scan, zeros, most", [
        # the README's search: both zeros lie on scan nodes
        ((0.5, 1.5), (0.0, PI), 101, 2, 60),
        # zeros between the nodes of both scans, where whole-cell bisection
        # took 93 and 96 evaluations; the second is the window of the
        # singularities_degrees golden file
        ((0.45, 1.55), (0.1, 1.0), 64, 1, 14),
        ((0.5, 1.5), (math.radians(10.0), math.radians(170.0)), 61, 2, 14),
    ])
    def test_root_evaluation_budget(self, monkeypatch, omega_range, beta_range, scan, zeros,
                                    most):
        calls = []
        refine = crystal._refine_root

        def counting(fun, a, b, fa, fb):
            def counted(x):
                calls.append(x)
                return fun(x)
            return refine(counted, a, b, fa, fb)

        monkeypatch.setattr(crystal, "_refine_root", counting)
        hits = find_singularities(DEFAULT_MODEL, omega_range, beta_range, VV, scan=scan)
        assert len(hits) == zeros
        assert len(calls) <= most

    @pytest.mark.parametrize("pair, beta_range, signs, scans", [
        # V/V: both beta roots give the offset 0.0
        (VV, (0.0, PI), (1.0, 1.0), 1),
        # the lower beta root gives the offset -0.0, the upper one 0.0
        (selection(-2.0, 3.0), (-PI, 0.0), (-1.0, 1.0), 1),
        # elliptical in, V out: offsets of about +-0.28, one scan each
        (SelectionPair(PolarizationState(math.cos(0.3), cmath.rect(math.sin(0.3), 0.5)),
                       VV.psi_f), (0.0, PI), (1.0, -1.0), 2),
    ])
    def test_omega_roots_scanned_once_per_offset(self, monkeypatch, pair, beta_range, signs,
                                                 scans):
        calls = []
        half_wave_roots = weakmeas._half_wave_roots

        def recording(model, omegas, phase_te, phase_tm, offset):
            calls.append(offset)
            return half_wave_roots(model, omegas, phase_te, phase_tm, offset)

        monkeypatch.setattr(weakmeas, "_half_wave_roots", recording)
        hits = find_singularities(DEFAULT_MODEL, (0.5, 1.5), beta_range, pair, scan=61)
        monkeypatch.undo()
        betas = sorted({h.beta for h in hits})
        offsets = []
        for b in betas:
            p1, p2 = complex_weights(b, pair)
            offsets.append(cmath.phase(p1) - cmath.phase(p2))
        assert len(betas) == 2
        assert [math.copysign(1.0, o) for o in offsets] == list(signs)
        assert len(set(offsets)) == scans
        assert len(calls) == scans
        # the same omegas as one scan per beta root
        omegas = np.linspace(0.5, 1.5, 61)
        arrays = phase_arrays(DEFAULT_MODEL, omegas)
        for b, offset in zip(betas, offsets):
            assert [h.omega for h in hits if h.beta == b] == \
                half_wave_roots(DEFAULT_MODEL, omegas, *arrays, offset)

    def test_linear_pair_offsets_share_one_scan(self, monkeypatch):
        # arg p1 - arg p2 is 0.0, +2*pi or -2*pi by the quadrant of the beta
        # root; unreduced, the -2*pi scan found omega 0.9999999999999996 for
        # the zero line that the others put at 1.0000000000000004
        calls = []
        half_wave_roots = weakmeas._half_wave_roots

        def recording(model, omegas, phase_te, phase_tm, offset):
            calls.append(offset)
            return half_wave_roots(model, omegas, phase_te, phase_tm, offset)

        monkeypatch.setattr(weakmeas, "_half_wave_roots", recording)
        pair = selection(0.0, 2.0)
        hits = find_singularities(DEFAULT_MODEL, (0.5, 3.5), (-3.0, 6.0), pair)
        raw = {cmath.phase(p1) - cmath.phase(p2)
               for p1, p2 in (complex_weights(h.beta, pair) for h in hits)}
        assert raw == {2.0 * PI, 0.0, -2.0 * PI}
        assert calls == [0.0]
        assert len(hits) == 12
        lines = {}
        for h in hits:
            lines.setdefault(round(h.omega), set()).add(h.omega)
        assert lines == {1: {1.0000000000000004}, 3: {3.0000000000000027}}


def complex_weights(beta, pair):
    """The weights (p1, p2) at beta as complex numbers."""
    p1re, p1im, p2re, p2im = weakmeas._weights(beta, pair)
    return complex(p1re, p1im), complex(p2re, p2im)


def reduced_offset(beta, pair):
    """arg p1 - arg p2 at beta, reduced to (-pi, pi] as find_singularities reduces it."""
    p1, p2 = complex_weights(beta, pair)
    offset = math.remainder(cmath.phase(p1) - cmath.phase(p2), 2.0 * PI)
    return PI if offset == -PI else offset


def closed_form_zeros(theta_in, theta_f, omega_range, beta_range):
    """The omegas and the betas of the zeros of T on DEFAULT_MODEL in a closed window.

    For linear selections, with a = theta_in - beta and b = theta_f - beta,
    the weights are p1 = cos a cos b and p2 = sin a sin b, so |p1|^2 - |p2|^2
    = cos(a + b) cos(a - b): for a pair that is not crossed it vanishes at
    beta = (theta_in + theta_f)/2 + pi/4 (mod pi/2), where p1 = p2.  T is
    then p1 (e^{i phi_te} + e^{i phi_tm}), zero at the odd half-wave
    frequencies omega = 1, 3, 5, ...  The zeros are every (omega, beta) pair.
    """
    w_lo, w_hi = omega_range
    b_lo, b_hi = beta_range
    omegas = [float(k) for k in range(1, 9, 2) if w_lo <= k <= w_hi]
    beta0 = 0.5 * (theta_in + theta_f) + 0.25 * PI
    ks = range(math.ceil((b_lo - beta0) / (0.5 * PI)) - 1,
               math.floor((b_hi - beta0) / (0.5 * PI)) + 2)
    betas = [beta0 + 0.5 * PI * k for k in ks if b_lo <= beta0 + 0.5 * PI * k <= b_hi]
    return omegas, betas


def near_edge(x, lo, hi):
    return min(abs(x - lo), abs(x - hi)) <= 1e-9


# omega windows stay within [0, 4], where the phases are below 40*pi and their
# rounding keeps |T| at a zero under 1e-14
omega_windows = st.builds(lambda lo, width: (lo, min(lo + width, 4.0)),
                          st.floats(0.0, 3.9), st.floats(0.1, 4.0))
beta_windows = st.builds(lambda lo, width: (lo, lo + width),
                         st.floats(-4.0, 4.0), st.floats(0.1, 4.0))
# linear pairs kept away from crossed ones, whose zeros form lines
uncrossed_pairs = st.tuples(angles, angles).filter(
    lambda a: abs(math.cos(a[0] - a[1])) >= 0.2)


def scalar_gap(pair):
    """The weight gap |p1|^2 - |p2|^2 at one beta, in the arithmetic of the beta scan."""
    return lambda b: weakmeas._gap(*weakmeas._weights(b, pair))


def assert_node_or_sign_change(fun, x, grid):
    """x is a node of ``grid``, a zero of fun or an end of an adjacent-doubles sign change."""
    if x in grid:
        return
    here = fun(x)
    assert here == 0.0 or any(
        fun(n) != 0.0 and (fun(n) < 0.0) != (here < 0.0)
        for n in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))), x


class TestZerosAsRootProblems:
    @settings(max_examples=200, deadline=None)
    @given(thetas=uncrossed_pairs, omega_range=omega_windows, beta_range=beta_windows)
    def test_linear_pairs_match_closed_form(self, thetas, omega_range, beta_range):
        # no zero within 1e-9 of an edge, on either side of it
        (w_lo, w_hi), (b_lo, b_hi) = omega_range, beta_range
        omegas, betas = closed_form_zeros(*thetas, (w_lo - 1e-9, w_hi + 1e-9),
                                          (b_lo - 1e-9, b_hi + 1e-9))
        assume(not any(near_edge(w, *omega_range) for w in omegas))
        assume(not any(near_edge(b, *beta_range) for b in betas))
        omegas, betas = closed_form_zeros(*thetas, omega_range, beta_range)
        assert half_wave_frequencies(DEFAULT_MODEL, omega_range) == \
            pytest.approx(omegas, rel=0.0, abs=1e-12)
        want = [(w, b) for w in omegas for b in betas]
        hits = find_singularities(DEFAULT_MODEL, omega_range, beta_range,
                                  selection(*thetas))
        assert len(hits) == len(want)
        for w, b in want:
            assert sum(abs(h.omega - w) <= 1e-12 and abs(h.beta - b) <= 1e-12
                       for h in hits) == 1
        for h in hits:
            assert h.residual_abs_t <= 1e-14
            assert omega_range[0] <= h.omega <= omega_range[1]
            assert beta_range[0] <= h.beta <= beta_range[1]

    @settings(max_examples=100, deadline=None)
    @given(model=st.one_of(linear_models, st.just(TABLE)), pair=pairs,
           start=st.floats(0.0, 0.9), width=st.floats(0.05, 1.0),
           beta_range=beta_windows, scan=st.integers(2, 120))
    def test_refined_roots_are_sign_changes(self, model, pair, start, width, beta_range, scan):
        # windows in [0, 4] for linear models, in the table's domain for the table
        lo, hi = (0.25, 1.75) if model is TABLE else (0.0, 4.0)
        omega_range = (lo + start * (hi - lo), lo + min(start + width, 1.0) * (hi - lo))
        omegas = np.linspace(*omega_range, scan)

        def half_wave(offset):
            def f(w):
                pte, ptm = phases(model, w)
                return math.cos(0.5 * (pte - ptm + offset))
            return f

        for w in half_wave_frequencies(model, omega_range, scan):
            assert_node_or_sign_change(half_wave(0.0), w, omegas)
        try:
            hits = find_singularities(model, omega_range, beta_range, pair, scan=scan)
        except PostselectionNull:
            return
        betas = np.linspace(*beta_range, scan)
        for h in hits:
            assert_node_or_sign_change(scalar_gap(pair), h.beta, betas)
            assert_node_or_sign_change(half_wave(reduced_offset(h.beta, pair)), h.omega,
                                       omegas)

    @pytest.mark.parametrize("labels", [("V", "H"), ("D45", "A135")])
    def test_crossed_pairs_raise(self, labels):
        with pytest.raises(PostselectionNull, match="lines"):
            find_singularities(DEFAULT_MODEL, (0.5, 2.5), (0.05, PI - 0.05),
                               selection(*labels))

    def test_nearly_crossed_pair_raises(self):
        # |p1| + |p2| = |cos(theta_in - theta_f)| < tol on the gap's roots
        pair = selection(0.3, 0.3 + 0.5 * PI - 1e-12)
        with pytest.raises(PostselectionNull, match="p1 = p2 = 0"):
            find_singularities(DEFAULT_MODEL, (0.5, 2.5), (0.05, PI - 0.05), pair)


class TestEstimateBeta:
    def test_round_trip(self):
        tau = group_delay(DEFAULT_MODEL, 1.0, 0.24 * PI, VV)
        beta = estimate_beta(DEFAULT_MODEL, 1.0, VV, tau, (0.20 * PI, 0.249 * PI))
        assert beta == pytest.approx(0.24 * PI, abs=1e-8)

    def test_endpoint_eigenvalue(self):
        beta = estimate_beta(DEFAULT_MODEL, 1.0, VV, 10 * PI, (0.0, 0.01))
        assert beta == pytest.approx(0.0, abs=1e-10)

    def test_bracket_straddling_singularity(self):
        with pytest.raises(BadBracket, match="monotonic"):
            estimate_beta(DEFAULT_MODEL, 1.0, VV, 54.86, (0.2 * PI, 0.3 * PI))

    def test_v_shaped_bracket_rejected(self):
        # the delay has a minimum at beta = 0, so a bracket spanning it is
        # not monotonic and the validation scan must reject it
        with pytest.raises(BadBracket, match="monotonic"):
            estimate_beta(DEFAULT_MODEL, 1.0, VV, 10 * PI, (-0.01, 0.01))

    def test_target_outside_range(self):
        with pytest.raises(BadBracket, match="outside"):
            estimate_beta(DEFAULT_MODEL, 1.0, VV, 9.0 * PI, (0.0, 0.1))

    def test_null_in_bracket(self):
        # 64-point scan lands exactly on the null at pi/4
        d = 0.001
        lo, hi = PI / 4 - 31 * d, PI / 4 + 32 * d
        with pytest.raises(BadBracket, match="null"):
            estimate_beta(DEFAULT_MODEL, 1.0, VV, 40.0, (lo, hi))

    def test_decreasing_branch(self):
        tau = group_delay(DEFAULT_MODEL, 1.0, 0.3 * PI, VV)
        beta = estimate_beta(DEFAULT_MODEL, 1.0, VV, tau, (0.26 * PI, 0.4 * PI))
        assert beta == pytest.approx(0.3 * PI, abs=1e-8)

    @pytest.mark.parametrize("beta, bracket", [(0.6, (0.3, 1.2)), (1.0, (0.3, 1.2)),
                                               (0.4, (0.35, 1.5))])
    def test_elliptical_pair_refines_the_whole_bracket(self, monkeypatch, beta, bracket):
        # circular in, V out: no closed-form seed, so the whole bracket is
        # refined, where bisecting it took 49 to 54 group_delay calls
        pair = SelectionPair(PolarizationState(math.sqrt(0.5), 1j * math.sqrt(0.5)), VV.psi_f)
        tau = group_delay(DEFAULT_MODEL, 1.0, beta, pair)
        calls = []

        def counted(*args):
            calls.append(args)
            return group_delay(*args)

        monkeypatch.setattr(weakmeas, "group_delay", counted)
        got = estimate_beta(DEFAULT_MODEL, 1.0, pair, tau, bracket)
        assert abs(got - beta) <= 1e-8
        assert len(calls) <= 24

        assert_node_or_sign_change(
            lambda b: group_delay(DEFAULT_MODEL, 1.0, b, pair) - tau, got, ())


class TestTransferLine:
    def test_matches_scalar(self):
        omegas = np.linspace(0.2, 1.8, 33)
        line = transfer_line(DEFAULT_MODEL, omegas, 0.3, VV)
        for i in (0, 16, 32):
            assert line[i] == transfer(DEFAULT_MODEL, float(omegas[i]), 0.3, VV)


def _raises(name, call, match):
    return pytest.param(call, match, id=name)


def _refused(name, call, match):
    """A ``_raises`` row that also fails on any warning, such as numpy's RuntimeWarning."""
    return pytest.param(call, match, id=name, marks=pytest.mark.filterwarnings("error"))


def _shape(name, shape):
    """The message part of ``_check_axis`` that names an axis and its shape."""
    return re.escape(f"got {name} with shape {shape}")


GRID = SpectralGrid(64, 1.0, 0.64)


class TestArgumentChecks:
    @pytest.mark.parametrize("call, match", [
        _raises("contour-no-omegas", lambda: contour_grid(DEFAULT_MODEL, [], [0.5], VV),
                "sweep axes must be nonempty"),
        _raises("contour-no-betas", lambda: contour_grid(DEFAULT_MODEL, [1.0], [], VV),
                "sweep axes must be nonempty"),
        _raises("transfer-grid-no-omegas", lambda: transfer_grid(DEFAULT_MODEL, [], [0.5], VV),
                "sweep axes must be nonempty"),
        _raises("transfer-grid-no-betas", lambda: transfer_grid(DEFAULT_MODEL, [1.0], [], VV),
                "sweep axes must be nonempty"),
        _raises("sweep-angle-no-betas", lambda: sweep_angle(DEFAULT_MODEL, 1.0, [], VV),
                "sweep axes must be nonempty"),
        _raises("contour-nan-beta",
                lambda: contour_grid(DEFAULT_MODEL, [1.0], [0.5, math.nan], VV),
                "beta must be finite"),
        _raises("transfer-grid-inf-beta",
                lambda: transfer_grid(DEFAULT_MODEL, [1.0], [math.inf], VV),
                "beta must be finite"),
        _raises("sweep-angle-nan-beta",
                lambda: sweep_angle(DEFAULT_MODEL, 1.0, [math.nan, 0.5], VV),
                "beta must be finite"),
        _raises("contour-nan-omega",
                lambda: contour_grid(DEFAULT_MODEL, [1.0, math.nan], [0.5], VV),
                "omega array must be finite"),
        _raises("transfer-grid-nan-omega",
                lambda: transfer_grid(DEFAULT_MODEL, [math.nan], [0.5], VV),
                "omega array must be finite"),
        _raises("sweep-angle-nan-omega",
                lambda: sweep_angle(DEFAULT_MODEL, math.nan, [0.5], VV),
                "omega array must be finite"),
        _raises("spectrum-empty", lambda: phase_spectrum(DEFAULT_MODEL, 0.3, VV, []),
                "nonempty one-dimensional"),
        _raises("spectrum-2d", lambda: phase_spectrum(DEFAULT_MODEL, 0.3, VV, [[0.5, 1.0]]),
                "nonempty one-dimensional"),
        _raises("spectrum-repeated",
                lambda: phase_spectrum(DEFAULT_MODEL, 0.3, VV, [0.5, 1.0, 1.0]),
                "strictly increasing"),
        _raises("spectrum-decreasing",
                lambda: phase_spectrum(DEFAULT_MODEL, 0.3, VV, [1.0, 0.5]),
                "strictly increasing"),
        *(_raises(f"numeric-delay-h={h!r}",
                  lambda h=h: group_delay(DEFAULT_MODEL, 1.0, 0.3, VV, "numeric", h),
                  "step h must be positive and finite")
          for h in (0.0, -1e-5, math.inf, math.nan)),
        _raises("singularities-scan-1",
                lambda: find_singularities(DEFAULT_MODEL, (0.5, 1.5), (0.0, PI), VV, scan=1),
                "scan density must be at least 2"),
        # 0-d and 2-D axes are refused by name, before any kernel runs
        _raises("contour-0d-omegas", lambda: contour_grid(DEFAULT_MODEL, 1.0, [0.5], VV),
                _shape("omega array", ())),
        _raises("contour-2d-omegas",
                lambda: contour_grid(DEFAULT_MODEL, [[1.0, 1.1]], [0.5], VV),
                _shape("omega array", (1, 2))),
        _raises("contour-0d-betas", lambda: contour_grid(DEFAULT_MODEL, [1.0], 0.5, VV),
                _shape("beta", ())),
        _raises("contour-2d-betas",
                lambda: contour_grid(DEFAULT_MODEL, [1.0], [[0.5], [0.6]], VV),
                _shape("beta", (2, 1))),
        _raises("transfer-grid-0d-axes", lambda: transfer_grid(DEFAULT_MODEL, 1.0, 0.5, VV),
                _shape("omega array", ())),
        _raises("transfer-grid-0d-betas",
                lambda: transfer_grid(DEFAULT_MODEL, [1.0], 0.5, VV), _shape("beta", ())),
        _raises("transfer-grid-2d-omegas",
                lambda: transfer_grid(DEFAULT_MODEL, [[1.0], [1.1]], [0.5], VV),
                _shape("omega array", (2, 1))),
        _raises("transfer-grid-2d-betas",
                lambda: transfer_grid(DEFAULT_MODEL, [1.0], [[0.5, 0.6]], VV),
                _shape("beta", (1, 2))),
        _raises("transfer-line-0d-omegas", lambda: transfer_line(DEFAULT_MODEL, 1.0, 0.5, VV),
                _shape("omega array", ())),
        _raises("transfer-line-2d-omegas",
                lambda: transfer_line(DEFAULT_MODEL, [[1.0, 1.1]], 0.5, VV),
                _shape("omega array", (1, 2))),
        _raises("sweep-angle-0d-betas", lambda: sweep_angle(DEFAULT_MODEL, 1.0, 0.5, VV),
                _shape("beta", ())),
        _raises("sweep-angle-2d-betas",
                lambda: sweep_angle(DEFAULT_MODEL, 1.0, [[0.5, 0.6]], VV),
                _shape("beta", (1, 2))),
        _raises("spectrum-0d", lambda: phase_spectrum(DEFAULT_MODEL, 0.3, VV, 1.0),
                _shape("omega array", ())),
        _raises("spectrum-2d-named",
                lambda: phase_spectrum(DEFAULT_MODEL, 0.3, VV, [[0.5], [1.0]]),
                _shape("omega array", (2, 1))),
        # raises of the other modules that no other test reaches
        _raises("linear-state-not-an-angle", lambda: linear_state("x"),
                re.escape("theta must be finite, got 'x'")),
        _raises("rotation-not-an-angle", lambda: rotation("x"),
                re.escape("beta must be finite, got 'x'")),
        _raises("hermitian-tol-0", lambda: is_hermitian(rotation(0.3), tol=0.0),
                "tol must be positive"),
        _raises("pulse-field-short-arrays",
                lambda: PulseField(GRID, np.zeros(GRID.n - 1), np.zeros(GRID.n - 1)),
                "must have grid length"),
        _raises("gaussian-sigma-0", lambda: gaussian_pulse(GRID, 0.0),
                "sigma_omega must be positive"),
        _raises("dft-2d", lambda: fourier.dft_forward(np.zeros((2, 2))),
                "expected a one-dimensional array"),
        # scalar arguments: each rule has one check, which names the argument
        # and refuses a value that it would otherwise truncate or overflow
        *(_refused(f"singularities-tol={tol!r}",
                   lambda tol=tol: find_singularities(DEFAULT_MODEL, (0.5, 1.5), (0.0, PI), VV,
                                                      tol=tol),
                   "tol must be positive and finite")
          for tol in (math.nan, math.inf, "x")),
        *(_refused(f"singularities-scan={scan!r}",
                   lambda scan=scan: find_singularities(DEFAULT_MODEL, (0.5, 1.5), (0.0, PI), VV,
                                                        scan=scan),
                   "scan density must be at least 2 and an integer")
          for scan in (2.7, "101")),
        *(_refused(f"half-wave-scan={scan!r}",
                   lambda scan=scan: half_wave_frequencies(DEFAULT_MODEL, (0.0, 4.0), scan=scan),
                   "scan density must be at least 2 and an integer")
          for scan in (2.7, "101")),
        _refused("singularities-inf-omega-end",
                 lambda: find_singularities(DEFAULT_MODEL, (0.5, math.inf), (0.0, PI), VV),
                 re.escape("omega_range[1] must be finite, got inf")),
        _refused("singularities-nan-omega-end",
                 lambda: find_singularities(DEFAULT_MODEL, (math.nan, 1.5), (0.0, PI), VV),
                 re.escape("omega_range[0] must be finite, got nan")),
        _refused("singularities-inf-beta-end",
                 lambda: find_singularities(DEFAULT_MODEL, (0.5, 1.5), (-math.inf, 0.0), VV),
                 re.escape("beta_range[0] must be finite, got -inf")),
        _refused("singularities-nan-beta-end",
                 lambda: find_singularities(DEFAULT_MODEL, (0.5, 1.5), (0.0, math.nan), VV),
                 re.escape("beta_range[1] must be finite, got nan")),
        _refused("singularities-overflowing-width",
                 lambda: find_singularities(DEFAULT_MODEL, (0.5, 1.5), (-1e308, 1e308), VV),
                 "beta_range width must be finite, got inf"),
        _refused("half-wave-overflowing-width",
                 lambda: half_wave_frequencies(DEFAULT_MODEL, (-1e308, 1e308)),
                 "omega_range width must be finite, got inf"),
        # a value float() cannot convert is named; a numpy scalar prints as its float
        _refused("singularities-string-omega-end",
                 lambda: find_singularities(DEFAULT_MODEL, ("x", 1.5), (0.0, 3.0), VV),
                 re.escape("omega_range[0] must be finite, got 'x'")),
        _refused("half-wave-none-omega-end",
                 lambda: half_wave_frequencies(DEFAULT_MODEL, (None, 1.0)),
                 re.escape("omega_range[0] must be finite, got None")),
        _refused("transfer-numpy-nan-beta",
                 lambda: transfer(DEFAULT_MODEL, 1.0, np.float64("nan"), VV),
                 re.escape("beta must be finite, got nan")),
        _refused("transfer-huge-int-omega", lambda: transfer(DEFAULT_MODEL, 10 ** 400, 0.3, VV),
                 "omega must be finite, got 1000"),
        _refused("phases-numpy-inf-omega", lambda: phases(DEFAULT_MODEL, np.float64("inf")),
                 re.escape("omega must be finite, got inf")),
        _refused("unitary-tol-numpy-nan", lambda: is_unitary(rotation(0.3), np.float64("nan")),
                 re.escape("tol must be positive and finite, got nan")),
        _refused("unitary-tol-nan", lambda: is_unitary(rotation(0.3), math.nan),
                 "tol must be positive and finite"),
        _refused("hermitian-tol-nan", lambda: is_hermitian(rotation(0.3), tol=math.nan),
                 "tol must be positive and finite"),
        _refused("spectral-grid-fractional-n", lambda: SpectralGrid(64.9, 1.0, 0.64),
                 re.escape("sample count must be a power of two >= 64, got 64.9")),
        _refused("spectral-grid-string-n", lambda: SpectralGrid("64", 1.0, 0.64),
                 re.escape("sample count must be a power of two >= 64, got '64'")),
        # every input goes through the one check of its kind: an axis value
        # numpy cannot convert, and a scalar float() cannot, are named
        _refused("contour-string-omega",
                 lambda: contour_grid(DEFAULT_MODEL, ["x", 1.0], [0.5], VV),
                 "omega array must hold real numbers"),
        _refused("contour-ragged-betas",
                 lambda: contour_grid(DEFAULT_MODEL, [1.0], [[0.5], [0.5, 0.6]], VV),
                 "beta must hold real numbers"),
        _refused("contour-huge-int-omega",
                 lambda: contour_grid(DEFAULT_MODEL, [10 ** 400], [0.5], VV),
                 "omega array must hold real numbers"),
        _refused("transfer-line-string-beta",
                 lambda: transfer_line(DEFAULT_MODEL, [1.0], "x", VV),
                 "beta must hold real numbers"),
        _refused("transfer-line-object-beta",
                 lambda: transfer_line(DEFAULT_MODEL, [1.0], object(), VV),
                 "beta must hold real numbers"),
        _refused("transfer-line-array-beta",
                 lambda: transfer_line(DEFAULT_MODEL, [1.0], np.array([0.3]), VV),
                 _shape("beta", (1, 1))),
        _refused("sweep-angle-complex-omega",
                 lambda: sweep_angle(DEFAULT_MODEL, 1j, [0.5], VV),
                 "omega array must hold real numbers"),
        _refused("unwrap-strings", lambda: unwrap(["a", "b"]), "phases must hold real numbers"),
        _refused("estimate-beta-string-tau",
                 lambda: estimate_beta(DEFAULT_MODEL, 1.0, VV, "x", (0.6, 0.78)),
                 re.escape("tau_measured must be finite, got 'x'")),
        _refused("estimate-beta-none-tau",
                 lambda: estimate_beta(DEFAULT_MODEL, 1.0, VV, None, (0.6, 0.78)),
                 "tau_measured must be finite, got None"),
        # numpy casts a complex array to floats with only a ComplexWarning
        _refused("contour-complex-numpy-omegas",
                 lambda: contour_grid(DEFAULT_MODEL, np.array([1 + 1j]), [0.5], VV),
                 "omega array must hold real numbers, got complex128 values"),
        _refused("sweep-angle-complex-numpy-betas",
                 lambda: sweep_angle(DEFAULT_MODEL, 1.0, np.array([0.5 + 0j]), VV),
                 "beta must hold real numbers, got complex128 values"),
        # a list's numpy complex scalars are found in the dtype numpy converts it to
        _refused("contour-complex-scalar-omegas",
                 lambda: contour_grid(DEFAULT_MODEL, [np.complex128(1 + 1j)], [0.5], VV),
                 "omega array must hold real numbers, got complex128 values"),
        _refused("sweep-angle-complex-scalar-betas",
                 lambda: sweep_angle(DEFAULT_MODEL, 1.0, [np.complex128(0.5 + 0j)], VV),
                 "beta must hold real numbers, got complex128 values"),
        _refused("unwrap-complex-scalars",
                 lambda: unwrap([np.complex128(1 + 1j), 2.0]),
                 "phases must hold real numbers, got complex128 values"),
        # numpy converts None to NaN, datetimes and timedeltas to counts of their unit
        _refused("contour-none-omega",
                 lambda: contour_grid(DEFAULT_MODEL, [None, 1.0], [0.5], VV),
                 "omega array must hold real numbers, got None"),
        _refused("check-axis-datetime-scalars",
                 lambda: crystal._check_axis("beta", [np.datetime64("2020-01-01")]),
                 re.escape("beta must hold real numbers, got datetime64[D] values")),
        _refused("sweep-angle-datetime-betas",
                 lambda: sweep_angle(DEFAULT_MODEL, 1.0,
                                     np.array(["2020-01-01"], dtype="datetime64[D]"), VV),
                 re.escape("beta must hold real numbers, got datetime64[D] values")),
        _refused("transfer-grid-timedelta-omegas",
                 lambda: transfer_grid(DEFAULT_MODEL, np.array([1, 2], dtype="timedelta64[s]"),
                                       [0.5], VV),
                 re.escape("omega array must hold real numbers, got timedelta64[s] values")),
        # a range is exactly a pair
        _refused("singularities-three-omega-ends",
                 lambda: find_singularities(DEFAULT_MODEL, (0.5, 1.5, 9.0), (0.0, PI), VV),
                 re.escape("omega_range must be a pair (lo, hi), got (0.5, 1.5, 9.0)")),
        _refused("half-wave-none-range",
                 lambda: half_wave_frequencies(DEFAULT_MODEL, None),
                 re.escape("omega_range must be a pair (lo, hi), got None")),
        # a component complex() cannot convert is named, as a non-finite one is
        _refused("state-string-a1", lambda: PolarizationState("x", 0),
                 re.escape("a1 must be finite, got 'x'")),
        _refused("operator-none-m11", lambda: PolarizationOperator(None, 0, 0, 1),
                 "m11 must be finite, got None"),
        # a phase that overflows is refused in the words of the grid path
        *(_refused(f"{name}-overflowing-phase", call,
                   re.escape("phase is not finite at omega 1e+308"))
          for name, call in [
              ("transfer", lambda: transfer(DEFAULT_MODEL, 1e308, 0.3, VV)),
              ("group-delay", lambda: group_delay(DEFAULT_MODEL, 1e308, 0.3, VV)),
              ("numeric-delay",
               lambda: group_delay(DEFAULT_MODEL, 1e308, 0.3, VV, method="numeric")),
              ("weak-flight-value", lambda: weak_flight_value(DEFAULT_MODEL, 1e308, 0.3, VV)),
              ("evolution-operator",
               lambda: crystal.evolution_operator(DEFAULT_MODEL, 1e308, 0.3)),
              ("phases", lambda: phases(DEFAULT_MODEL, 1e308))]),
    ])
    def test_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("bracket, match", [
        (("x", 0.78), "bracket[0] must be finite, got 'x'"),
        ((0.6, None), "bracket[1] must be finite, got None"),
        ((0.6, math.nan), "bracket[1] must be finite, got nan"),
        # a bracket is exactly a pair
        ((0.6, 0.78, "junk"), "bracket must be a pair (lo, hi), got (0.6, 0.78, 'junk')"),
        (None, "bracket must be a pair (lo, hi), got None"),
        ((0.6,), "bracket must be a pair (lo, hi), got (0.6,)")])
    def test_unusable_bracket_end(self, bracket, match):
        # an end float() cannot convert is a bad bracket, as a non-finite end is
        with pytest.raises(BadBracket, match=re.escape(match)):
            estimate_beta(DEFAULT_MODEL, 1.0, VV, 30.0, bracket)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega", [-1.0, 1e308])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda w: contour_grid(DEFAULT_MODEL, [w], [math.nan], VV), id="contour"),
        pytest.param(lambda w: transfer_grid(DEFAULT_MODEL, [w], [math.nan], VV),
                     id="transfer-grid"),
        pytest.param(lambda w: transfer_line(DEFAULT_MODEL, [w], math.nan, VV),
                     id="transfer-line"),
        pytest.param(lambda w: sweep_angle(DEFAULT_MODEL, w, [math.nan], VV),
                     id="sweep-angle")])
    def test_bad_omega_is_named_before_a_nan_beta(self, omega, call):
        # the grid paths check in the scalar order: the omega, its domain and
        # phases, then the betas (-1.0 is out of the domain, 1e308's phase overflows)
        with pytest.raises(ValueError) as scalar:
            transfer(DEFAULT_MODEL, omega, math.nan, VV)
        assert "omega" in str(scalar.value)
        with pytest.raises(ValueError) as grid:
            call(omega)
        assert str(grid.value) == str(scalar.value)

    def test_selection_pair_needs_states(self):
        with pytest.raises(TypeError, match="PolarizationState"):
            SelectionPair("V", "V")

    def test_booleans_are_numbers(self):
        # as errors._finite takes them
        assert crystal._check_axis("beta", [True, False]).tolist() == [1.0, 0.0]


def hexes(values):
    """The float.hex of every number in nested tuples and arrays: equal when the bits are."""
    if isinstance(values, (tuple, list)):
        return tuple(hexes(v) for v in values)
    if isinstance(values, np.ndarray):
        return tuple(float(v).hex() for v in values.ravel())
    if isinstance(values, complex):
        return values.real.hex(), values.imag.hex()
    return None if values is None else float(values).hex()


class TestNothingKeptBetweenCalls:
    """Every value is computed per call; a pair holds its two states and nothing else.

    Models, pairs and omegas that compare equal can differ in a signed zero,
    so each must get its own values, bit for bit those of a fresh evaluation.
    """

    def test_equal_models_and_omegas_keep_their_own_records(self):
        # phases (0.0, 0.0), but (-0.0, -0.0) on the second model at omega -0.0
        models = (LinearDispersion(), LinearDispersion(phi0_te=-0.0, phi0_tm=-0.0))
        assert models[0] == models[1] and hash(models[0]) == hash(models[1])
        # at beta -0.0 this pair carries the sign of the phases into Im T and Im N
        pair = SelectionPair(PolarizationState(0.6, 0.8),
                             PolarizationState(-0.6, complex(-0.8, -0.0)))
        points = [(model, omega) for model in models for omega in (0.0, -0.0)]

        def evaluate(model, omega):
            return hexes((weakmeas._t_and_numerator(model, omega, -0.0, pair),
                          group_delay(model, omega, -0.0, pair),
                          weak_flight_value(model, omega, -0.0, pair)))

        want = [evaluate(*point) for point in points]
        # the results differ, so a value shared between points would show
        assert want[0] != want[3]
        for order in (range(4), range(3, -1, -1)):
            for i in [*order, *order]:
                assert evaluate(*points[i]) == want[i], (i, list(order))

    def test_equal_pairs_keep_their_own_rows(self):
        a2s = (0, complex(-0.0, 0.0))

        def build(a2):
            return SelectionPair(PolarizationState(1, 0), PolarizationState(1, a2))

        pairs = [build(a2) for a2 in a2s]
        assert pairs[0] == pairs[1] and hash(pairs[0]) == hash(pairs[1])
        betas = np.array([0.0, -0.0, 0.3, PI / 2, -PI, 2.0])
        tau = closed_form_delay(0.2 * PI)

        def evaluate(pair):
            return hexes((weakmeas._beta_weights(betas, pair),
                          estimate_beta(DEFAULT_MODEL, 1.0, pair, tau, (0.15 * PI, 0.24 * PI))))

        want = [evaluate(build(a2)) for a2 in a2s]
        # the weights differ in the sign of zeros, so rows shared between pairs would show
        assert want[0][0] != want[1][0]
        for i in (0, 1, 0, 1, 1, 0, 0):
            assert evaluate(pairs[i]) == want[i], i

    def test_any_pair_type_gives_the_selection_pairs_results(self):
        # any object with psi_in and psi_f serves as a pair
        pair = namedtuple("Pair", "psi_in psi_f")(VV.psi_in, VV.psi_f)
        betas = np.array([0.0, -0.0, 0.3, PI / 2, -PI, 2.0])
        assert hexes(weakmeas._beta_weights(betas, pair)) \
            == hexes(weakmeas._beta_weights(betas, VV))
        assert estimate_beta(DEFAULT_MODEL, 1.0, pair, 54.86, (0.6, 0.78)) \
            == estimate_beta(DEFAULT_MODEL, 1.0, VV, 54.86, (0.6, 0.78))
        assert group_delay(DEFAULT_MODEL, 1.0, 0.7, pair) \
            == group_delay(DEFAULT_MODEL, 1.0, 0.7, VV)

    def test_a_used_pair_holds_only_its_states(self):
        pair = selection("V", "V")
        contour_grid(DEFAULT_MODEL, [0.9, 1.0], [0.3, 0.6], pair)
        assert estimate_beta(DEFAULT_MODEL, 1.0, pair, 54.86, (0.6, 0.78)) \
            == estimate_beta(DEFAULT_MODEL, 1.0, VV, 54.86, (0.6, 0.78))
        assert vars(pair) == {"psi_in": pair.psi_in, "psi_f": pair.psi_f}
        for twin in (pickle.loads(pickle.dumps(pair)), copy.copy(pair)):
            assert twin == pair and vars(twin) == vars(pair)


# each sum rule holds within this many ulps of its scale: 1 for the
# probabilities, the larger eigen-delay for conj(T) N
SUM_ULPS = 8


def assert_sum_rules(model, omegas, betas, pair):
    """Both weak-value sum rules over the orthogonal analyzer pair, at each point of omegas x betas.

    With f_perp orthogonal to psi_f, |T_f|^2 + |T_f_perp|^2 = 1 and
    conj(T_f) N_f + conj(T_f_perp) N_f_perp = <psi_in|F|psi_in>, since T_f =
    <f|U|psi_in> and N_f = <f|U F|psi_in>.  p_f W_f = conj(T_f) N_f stays
    finite where T_f vanishes.  Checked on the scalar path and the grid path.
    """
    pairs = (pair, SelectionPair(pair.psi_in, orthogonal_state(pair.psi_f)))
    grids = [_grids(model, omegas, betas, p, with_delay=True)[2:] for p in pairs]
    eps = np.finfo(float).eps
    for i, omega in enumerate(omegas):
        # an eigen-delay that is subnormal rounds to the smallest normal's ulps
        scale = max(*map(abs, crystal.group_delays(model, omega)), np.finfo(float).tiny)
        for j, beta in enumerate(betas):
            want = flight_expectation(model, omega, beta, pair.psi_in)
            scalar = [weakmeas._t_and_numerator(model, omega, beta, p) for p in pairs]
            grid = [((tre[i, j], tim[i, j]), (nre[i, j], nim[i, j]))
                    for tre, tim, nre, nim in grids]
            for path, terms in (("scalar", scalar), ("grid", grid)):
                prob = sum(tre * tre + tim * tim for (tre, tim), _ in terms)
                mean = sum(complex(*t).conjugate() * complex(*n) for t, n in terms)
                where = (path, omega, beta)
                assert abs(prob - 1.0) <= SUM_ULPS * eps, (where, prob)
                assert abs(mean - want) <= SUM_ULPS * eps * scale, (where, mean, want)


class TestSumRules:
    """The weak values of an orthogonal pair of post-selections average to the expectation."""

    @settings(max_examples=200, deadline=None)
    @given(models_with_omegas, betas, pairs)
    def test_sum_rules_hold_on_both_paths(self, model_omegas, beta_values, pair):
        model, omegas = model_omegas
        assert_sum_rules(model, omegas, beta_values, pair)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([DEFAULT_MODEL, TABLE]), pairs)
    @example(DEFAULT_MODEL, VV)
    @example(TABLE, VV)
    def test_sum_rules_hold_on_the_zeros(self, model, pair):
        try:
            zeros = find_singularities(model, (0.3, 1.7), (0.0, PI), pair)
        except PostselectionNull:
            return
        for s in zeros:
            assert_sum_rules(model, [s.omega], [s.beta], pair)
