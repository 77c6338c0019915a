import math
from pathlib import Path

import numpy as np
import pytest

from conftest import max_entry_diff, op_matrix
from weaklight import (
    DEFAULT_MODEL,
    LinearDispersion,
    TabulatedDispersion,
    evolution_operator,
    flight_operator,
    group_delays,
    half_wave_frequencies,
    hermitian_eigenvalues,
    is_hermitian,
    is_unitary,
    load_tabulated,
    phases,
)
from weaklight.crystal import delay_arrays, phase_arrays

PI = math.pi

RAMP = TabulatedDispersion(np.array([0.0, 2.0]), np.array([0.0, 4.0]),
                           np.array([0.0, 2.0]))

TABLE = load_tabulated(Path(__file__).resolve().parent / "golden" / "disp.csv")


def error_message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestPhases:
    def test_default_at_one(self):
        assert phases(DEFAULT_MODEL, 1.0) == (10 * PI, 9 * PI)

    def test_default_at_zero(self):
        assert phases(DEFAULT_MODEL, 0.0) == (0.0, 0.0)

    def test_offsets(self):
        model = LinearDispersion(phi0_te=0.25, phi0_tm=-0.5)
        pte, ptm = phases(model, 0.0)
        assert pte == 0.25 and ptm == -0.5

    def test_tabulated_ramp_midpoint(self):
        # two-sample table: the monotone cubic degenerates to the straight
        # line, so the independent oracle is plain linear interpolation
        pte, ptm = phases(RAMP, 1.0)
        assert pte == pytest.approx(2.0, abs=1e-12)
        assert ptm == pytest.approx(1.0, abs=1e-12)

    def test_tabulated_range_rejection(self):
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            phases(RAMP, 2.5)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            phases(DEFAULT_MODEL, -0.1)


class TestGroupDelays:
    def test_constant_slopes(self):
        assert group_delays(DEFAULT_MODEL, 1.0) == (10 * PI, 9 * PI)
        assert group_delays(DEFAULT_MODEL, 0.37) == (31.41592653589793,
                                                     28.274333882308138)

    def test_tabulated_ramp_slope(self):
        # oracle: central finite difference of phases() on the interpolant
        h = 1e-5
        for idx in (0, 1):
            fd = (phases(RAMP, 1.0 + h)[idx] - phases(RAMP, 1.0 - h)[idx]) / (2 * h)
            assert group_delays(RAMP, 1.0)[idx] == pytest.approx(fd, abs=1e-9)
        assert group_delays(RAMP, 1.0) == pytest.approx((2.0, 1.0), abs=1e-9)

    def test_tabulated_closed_domain(self):
        # the domain rule of phases(): the table's end knots are inside
        for omega in (0.0, 2.0):
            assert group_delays(RAMP, omega) == tuple(
                float(d[0]) for d in delay_arrays(RAMP, [omega]))
        for omega in (np.nextafter(0.0, -1.0), np.nextafter(2.0, 3.0)):
            with pytest.raises(ValueError, match="outside tabulated range"):
                group_delays(RAMP, omega)

    def test_delay_arrays_domain(self):
        # the rules of phase_arrays(): nonempty, finite, inside the closed
        # table range or nonnegative; no extrapolated delays
        lo, hi = 0.25, 1.75
        te, tm = delay_arrays(TABLE, [lo, hi])
        assert list(zip(te.tolist(), tm.tolist())) == [group_delays(TABLE, lo),
                                                       group_delays(TABLE, hi)]
        for model, omegas, words in (
                (TABLE, [5.0, -1.0], "outside tabulated range"),
                (TABLE, [1.0, np.nextafter(hi, 2.0)], "outside tabulated range"),
                (TABLE, [np.nextafter(lo, 0.0)], "outside tabulated range"),
                (DEFAULT_MODEL, [1.0, -0.5], "nonnegative"),
                (DEFAULT_MODEL, [1.0, math.nan], "finite"),
                (TABLE, [math.inf, 1.0], "finite"),
                (DEFAULT_MODEL, [], "nonempty"),
                (TABLE, [], "nonempty")):
            message = error_message(delay_arrays, model, omegas)
            assert words in message
            assert message == error_message(phase_arrays, model, omegas)

    def test_fd_slope_matches(self):
        h = 1e-5
        table = TabulatedDispersion(
            np.linspace(0.0, 2.0, 41),
            10.5 * PI * np.linspace(0.0, 2.0, 41) + 0.3 * np.sin(PI * np.linspace(0.0, 2.0, 41)),
            9.2 * PI * np.linspace(0.0, 2.0, 41) - 0.2 * np.sin(PI * np.linspace(0.0, 2.0, 41)),
        )
        for model in (DEFAULT_MODEL, table):
            for omega in (0.31, 0.87, 1.5):
                fd_te = (phases(model, omega + h)[0] - phases(model, omega - h)[0]) / (2 * h)
                fd_tm = (phases(model, omega + h)[1] - phases(model, omega - h)[1]) / (2 * h)
                te, tm = group_delays(model, omega)
                assert abs(te - fd_te) < 1e-6
                assert abs(tm - fd_tm) < 1e-6


class TestHalfWaveFrequencies:
    def test_default_odd_integers(self):
        roots = half_wave_frequencies(DEFAULT_MODEL, (0.0, 4.0))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(1.0, abs=1e-10)
        assert roots[1] == pytest.approx(3.0, abs=1e-10)

    def test_empty_window(self):
        assert half_wave_frequencies(DEFAULT_MODEL, (0.2, 0.8)) == []

    def test_offset_model(self):
        # oracle: pi*omega + pi/2 = pi (mod 2 pi)  =>  omega = 0.5 + 2k
        model = LinearDispersion(phi0_te=PI / 2)
        roots = half_wave_frequencies(model, (0.0, 3.0))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.5, abs=1e-10)
        assert roots[1] == pytest.approx(2.5, abs=1e-10)

    def test_mod_two_pi_residual(self):
        for root in half_wave_frequencies(DEFAULT_MODEL, (0.0, 8.0)):
            pte, ptm = phases(DEFAULT_MODEL, root)
            residual = math.remainder(pte - ptm - PI, 2.0 * PI)
            assert abs(residual) < 1e-9

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            half_wave_frequencies(DEFAULT_MODEL, (1.0, 1.0))


class TestEvolutionOperator:
    def test_phase_wrap_at_one(self):
        assert max_entry_diff(evolution_operator(DEFAULT_MODEL, 1.0, 0.0),
                              [[1, 0], [0, -1]]) < 1e-12

    def test_half_wave_at_quarter_turn(self):
        # hand product: R(pi/4) diag(1, -1) R(-pi/4) = [[0, 1], [1, 0]]
        assert max_entry_diff(evolution_operator(DEFAULT_MODEL, 1.0, PI / 4),
                              [[0, 1], [1, 0]]) < 1e-12

    def test_unitary_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            omega = rng.uniform(0.0, 3.0)
            beta = rng.uniform(-PI, 2 * PI)
            assert is_unitary(evolution_operator(DEFAULT_MODEL, omega, beta), 1e-12)


class TestFlightOperator:
    def test_diagonal_at_zero(self):
        assert max_entry_diff(flight_operator(DEFAULT_MODEL, 1.0, 0.0),
                              [[10 * PI, 0], [0, 9 * PI]]) < 1e-12

    def test_quarter_turn_matrix(self):
        # oracle: independent conjugation with numpy
        r = np.array([[math.cos(PI / 4), -math.sin(PI / 4)],
                      [math.sin(PI / 4), math.cos(PI / 4)]])
        ref = r @ np.diag([10 * PI, 9 * PI]) @ r.T
        assert max_entry_diff(flight_operator(DEFAULT_MODEL, 1.0, PI / 4), ref) < 1e-12
        assert max_entry_diff(flight_operator(DEFAULT_MODEL, 1.0, PI / 4),
                              [[9.5 * PI, 0.5 * PI], [0.5 * PI, 9.5 * PI]]) < 1e-12

    def test_spectrum_angle_independent(self):
        lo, hi = hermitian_eigenvalues(flight_operator(DEFAULT_MODEL, 1.0, 1.1))
        assert lo == pytest.approx(9 * PI, abs=1e-12)
        assert hi == pytest.approx(10 * PI, abs=1e-12)
        rng = np.random.default_rng(22)
        for _ in range(1000):
            op = flight_operator(DEFAULT_MODEL, rng.uniform(0.0, 3.0),
                                 rng.uniform(-PI, 2 * PI))
            assert is_hermitian(op, 1e-12)
            lo, hi = hermitian_eigenvalues(op)
            assert abs(lo - 9 * PI) < 1e-12
            assert abs(hi - 10 * PI) < 1e-12

    def test_commutes_with_evolution(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            omega = rng.uniform(0.0, 3.0)
            beta = rng.uniform(-PI, 2 * PI)
            u = op_matrix(evolution_operator(DEFAULT_MODEL, omega, beta))
            a = op_matrix(flight_operator(DEFAULT_MODEL, omega, beta))
            assert np.max(np.abs(u @ a - a @ u)) < 1e-12


class TestModelValidation:
    def test_equal_slopes_rejected(self):
        with pytest.raises(ValueError, match="half-wave"):
            LinearDispersion(tau_te=5.0, tau_tm=5.0)

    def test_default_model_parameters(self):
        assert DEFAULT_MODEL.tau_te == 10 * PI
        assert DEFAULT_MODEL.tau_tm == 9 * PI
        assert DEFAULT_MODEL.phi0_te == 0.0 and DEFAULT_MODEL.phi0_tm == 0.0

    def test_tabulated_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            TabulatedDispersion(np.array([1.0]), np.array([0.0]), np.array([0.0]))

    def test_tabulated_needs_increasing_omega(self):
        with pytest.raises(ValueError, match="increasing"):
            TabulatedDispersion(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(3))

    def test_tabulated_immutable(self):
        with pytest.raises(ValueError):
            RAMP.omega_samples[0] = 5.0


class TestLoadTabulated:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_good_file(self, tmp_path):
        p = self._write(tmp_path / "d.csv",
                        "# comment\nomega,phi_te,phi_tm\n0,0,0\n2,4,2\n")
        model = load_tabulated(p)
        assert model.omega_samples.size == 2
        assert phases(model, 1.0) == pytest.approx((2.0, 1.0), abs=1e-12)

    def test_non_increasing_reports_line(self, tmp_path):
        p = self._write(tmp_path / "d.csv",
                        "omega,phi_te,phi_tm\n0,0,0\n1,1,1\n1,2,2\n")
        with pytest.raises(ValueError, match="non-increasing omega at line 4"):
            load_tabulated(p)

    def test_single_row_rejected(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "omega,phi_te,phi_tm\n0,0,0\n")
        with pytest.raises(ValueError, match="need at least 2 samples"):
            load_tabulated(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = self._write(tmp_path / "d.csv",
                        "omega,phi_te,phi_tm\n0,0,0\n1,x,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_tabulated(p)

    def test_missing_header(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "0,0,0\n1,1,1\n")
        with pytest.raises(ValueError, match="header"):
            load_tabulated(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tabulated(str(tmp_path / "absent.csv"))
