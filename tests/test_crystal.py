import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from weaklight.crystal import (
    _bisect_root,
    _linspace,
    _refine_root,
    delay_arrays,
    domain,
    phase_arrays,
)

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

    @pytest.mark.parametrize("omegas", [1.0, [[0.5, 1.0]], np.ones((2, 1))])
    def test_arrays_refuse_0d_and_nd_omegas(self, omegas):
        message = error_message(delay_arrays, DEFAULT_MODEL, omegas)
        assert f"got omega array with shape {np.shape(omegas)}" in message
        assert message == error_message(phase_arrays, DEFAULT_MODEL, omegas)

    def test_overflowing_phase_arrays_raise(self):
        # math.cos of an infinite phase raises where np.cos gives NaN, so the
        # phase arrays refuse it, naming the first such omega, without
        # warnings, and scalar phases refuse it in the same words
        steep = LinearDispersion(tau_te=1e300, tau_tm=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (error_message(phase_arrays, steep, [1.0, 1e9, 1e10])
                    == "phase is not finite at omega 1000000000.0"
                    == error_message(phases, steep, 1e9))
            assert (error_message(phase_arrays, DEFAULT_MODEL, [1.0, 1e308])
                    == "phase is not finite at omega 1e+308")
            te, tm = phase_arrays(steep, [1.0, 1e8])
            assert te.tolist() == [1e300, 1e300 * 1e8] and tm.tolist() == [1.0, 1e8]

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


class TestLinspace:
    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(allow_nan=False, allow_infinity=False),
           hi=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(2, 300))
    def test_bitwise_equal_to_numpy(self, lo, hi, n):
        assume(lo < hi)
        with np.errstate(all="ignore"):
            want = np.linspace(lo, hi, n)
            got = _linspace(lo, hi, n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lo, hi, n", [
        # steps that underflow to zero take numpy's other path
        (0.0, 5e-324, 64), (-5e-324, 5e-324, 3), (0.0, 1e-320, 101),
        # a width that overflows, and the widest finite ranges
        (-1e308, 1e308, 64), (0.0, 1.7976931348623157e308, 64),
        (-1.7976931348623157e308, 1.7976931348623157e308, 2),
        (0.1, 0.7, 64), (-3.0, 2.0, 101)])
    def test_edge_ranges(self, lo, hi, n):
        with np.errstate(all="ignore"):
            want = np.linspace(lo, hi, n)
            got = _linspace(lo, hi, n)
        assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("model, omega_range", [
        (RAMP, (0.0, 2.5)), (RAMP, (-0.5, 1.0)), (DEFAULT_MODEL, (-1.0, 1.0))])
    def test_range_outside_domain_rejected(self, model, omega_range):
        # one check words every refusal: the scan says of the end that leaves
        # the domain what phases() and phase_arrays() say of it
        with pytest.raises(ValueError, match="outside tabulated range|must be nonnegative"):
            half_wave_frequencies(model, omega_range)
        lo, hi = omega_range
        end = lo if lo < domain(model)[0] else hi
        assert error_message(half_wave_frequencies, model, omega_range) \
            == error_message(phases, model, end) \
            == error_message(phase_arrays, model, np.linspace(lo, hi, 7))

    @pytest.mark.parametrize("scan", [1, 0, -3])
    def test_scan_below_two_rejected(self, scan):
        with pytest.raises(ValueError, match="scan density must be at least 2"):
            half_wave_frequencies(DEFAULT_MODEL, (0.0, 4.0), scan=scan)


def sign_noise(x):
    """A deterministic pseudo-random value in [-1e-13, 1e-13) for each double x."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    mixed = (bits * 0x9E3779B97F4A7C15) % 2 ** 64
    return 1e-13 * ((mixed >> 11) / 2.0 ** 52 - 1.0)


# (name, fun, a, b): fun(a) and fun(b) have opposite signs
PATHOLOGICAL_BRACKETS = [
    ("step without a zero", lambda x: -1.0 if x < 0.3 else 1.0, 0.1, 0.8),
    ("ninth power", lambda x: (x - 0.3) ** 9, -1.0, 2.0),
    ("steep expm1", lambda x: math.expm1(200.0 * (x - 0.3)), 0.0, 1.0),
    ("steep tanh at 0", lambda x: math.tanh(1e6 * x), -0.3, 0.7),
    ("values near 1e-300", lambda x: 1e-300 * (x * x - 0.09), 0.1, 0.8),
    ("sign noise of 1e-13", lambda x: (x - 0.3) + sign_noise(x), 0.1, 0.8),
]


class TestRefineRoot:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("name, fun, a, b", PATHOLOGICAL_BRACKETS,
                             ids=[case[0] for case in PATHOLOGICAL_BRACKETS])
    def test_pathological_brackets(self, name, fun, a, b, sign):
        def f(x):
            return sign * fun(x)

        calls = []

        def recorded(x):
            # only strictly inside the bracket, and a cap stands in for a hang
            assert a < x < b, x
            calls.append(x)
            assert len(calls) <= 10_000
            return f(x)

        fa, fb = f(a), f(b)
        assert (fa < 0.0) != (fb < 0.0) and fa != 0.0 and fb != 0.0
        root = _refine_root(recorded, a, b, fa, fb)
        refined = len(calls)

        # an exact zero, or an end of an adjacent-doubles sign change
        here = f(root)
        assert a <= root <= b
        assert here == 0.0 or any(
            a <= n <= b and f(n) != 0.0 and (f(n) < 0.0) != (here < 0.0)
            for n in (math.nextafter(root, -math.inf), math.nextafter(root, math.inf))), root

        calls.clear()
        _bisect_root(recorded, a, b, fa)
        assert refined <= 2 * len(calls) + 4, (refined, len(calls))

    @pytest.mark.parametrize("fun, a, b, root, most", [
        (math.cos, 1.0, 2.0, 0.5 * PI, 10),
        # convex: unweighted false position keeps replacing the left end
        # (34 evaluations with the same bisection steps, 54 by bisection)
        (lambda x: math.expm1(200.0 * (x - 0.3)), 0.0, 1.0, 0.3, 24),
    ])
    def test_smooth_root_takes_few_evaluations(self, fun, a, b, root, most):
        calls = []

        def f(x):
            calls.append(x)
            return fun(x)

        got = _refine_root(f, a, b, fun(a), fun(b))
        assert abs(got - root) <= math.ulp(root)
        assert len(calls) <= most


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

    @pytest.mark.parametrize("w, te, tm, match", [
        ([[0.0, 1.0]], [0.0, 1.0], [0.0, 1.0], "one-dimensional"),
        ([0.0, 1.0], [[0.0, 1.0]], [0.0, 1.0], "one-dimensional"),
        ([0.0, 1.0], [0.0, 1.0], 0.0, "one-dimensional"),
        ([0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0, 2.0], "equal length"),
        ([0.0, 1.0], [0.0, 1.0], [0.0, 1.0, 2.0], "equal length"),
        ([0.0, math.nan], [0.0, 1.0], [0.0, 1.0], "finite"),
        ([0.0, 1.0], [0.0, math.inf], [0.0, 1.0], "finite"),
        ([0.0, 1.0], [0.0, 1.0], [-math.inf, 1.0], "finite"),
    ])
    def test_tabulated_sample_arrays_checked(self, w, te, tm, match):
        with pytest.raises(ValueError, match=match):
            TabulatedDispersion(np.array(w), np.array(te), np.array(tm))

    @pytest.mark.parametrize("te, tm, name", [
        ([1.0, 1e308, -1e308], [0.0, 0.0, 0.0], "phi_te_samples"),
        ([0.0, 0.0, 0.0], [1.0, 1e308, -1e308], "phi_tm_samples"),
    ])
    def test_tabulated_interpolant_must_be_finite(self, te, tm, name):
        # the slope from 1e308 to -1e308 overflows: the table is refused as a
        # whole, without a numpy warning, not at an omega whose samples are finite
        with pytest.raises(ValueError, match=f"^{name} must give a finite interpolant$"):
            TabulatedDispersion(np.array([0.1, 0.2, 0.3]), np.array(te), np.array(tm))

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

    @pytest.mark.parametrize("row", ["1,1", "1,1,1,1", "1;1;1", "1,1,"])
    def test_row_without_three_numbers_reports_line(self, tmp_path, row):
        p = self._write(tmp_path / "d.csv", f"omega,phi_te,phi_tm\n0,0,0\n{row}\n")
        with pytest.raises(ValueError, match=f"malformed row at line 3: {row!r}"):
            load_tabulated(p)

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n\n# another\n"])
    def test_file_without_header(self, tmp_path, text):
        p = self._write(tmp_path / "d.csv", text)
        with pytest.raises(ValueError, match="missing header 'omega,phi_te,phi_tm'"):
            load_tabulated(p)

    def test_missing_header(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "0,0,0\n1,1,1\n")
        with pytest.raises(ValueError, match="header"):
            load_tabulated(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tabulated(str(tmp_path / "absent.csv"))
