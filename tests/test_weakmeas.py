import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pair, random_state
from weaklight import (
    DEFAULT_MODEL,
    BadBracket,
    LinearDispersion,
    PolarizationState,
    PostselectionNull,
    SelectionPair,
    apply,
    basis_state,
    contour_grid,
    estimate_beta,
    find_singularities,
    group_delay,
    load_tabulated,
    phase_spectrum,
    rotation,
    selection,
    sweep_angle,
    transfer,
    transfer_grid,
    transfer_line,
    unwrap,
    weak_flight_value,
)

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


class TestTransferLine:
    def test_matches_scalar(self):
        omegas = np.linspace(0.2, 1.8, 33)
        line = transfer_line(DEFAULT_MODEL, omegas, 0.3, VV)
        for i in (0, 16, 32):
            assert line[i] == transfer(DEFAULT_MODEL, float(omegas[i]), 0.3, VV)
