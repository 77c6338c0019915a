"""The in-package PCHIP interpolant against scipy's, and estimate_beta's array scan.

``TabulatedDispersion`` builds its PCHIP coefficients with numpy alone, and
``phases``/``group_delays`` (one omega) and ``phase_arrays``/``delay_arrays``
(arrays) evaluate them.  The coefficients, the derivative coefficients and
every value must be the bits scipy's ``PchipInterpolator`` gives, on the
golden table and on drawn tables: monotone, turning back, with flat steps
and with two knots.  ``estimate_beta`` validates its bracket with one
array scan; it must raise exactly what the former scan of 64 scalar
``group_delay`` calls did, kept below as the reference, and return the same
bracket end.  An interior root it takes from a closed form and polishes to
adjacent doubles, where the reference bisected to |dbeta| < 1e-12, so there
the two agree to 1e-12, or to the delay's resolution where it is flat in
beta, and the result must be a sign change of the delay.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from weaklight import (
    DEFAULT_MODEL,
    BadBracket,
    PolarizationState,
    PostselectionNull,
    SelectionPair,
    TabulatedDispersion,
    estimate_beta,
    group_delay,
    group_delays,
    load_tabulated,
    phases,
    selection,
)
from weaklight import weakmeas
from weaklight.crystal import delay_arrays, phase_arrays

PI = math.pi
VV = selection("V", "V")

# TE - TM = pi at the knot omega = 1, so V/V has exact zeros at beta = pi/4, 3pi/4
TABLE = load_tabulated(Path(__file__).resolve().parent / "golden" / "disp.csv")


def same(a, b):
    """Bitwise float equality (tells 0.0 from -0.0)."""
    return float(a).hex() == float(b).hex()


def probe_points(w, fractions):
    """Every knot, both float neighbours of each knot, and interior points."""
    lo, hi = float(w[0]), float(w[-1])
    pts = set(w.tolist())
    pts.update(np.nextafter(w, -np.inf).tolist())
    pts.update(np.nextafter(w, np.inf).tolist())
    pts.update(min(max(lo + f * (hi - lo), lo), hi) for f in fractions)
    return sorted(x for x in pts if lo <= x <= hi)


def same_array(a, b):
    """Bitwise equality of float arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_scalar_matches_scipy(model, fractions):
    w = model.omega_samples
    te = PchipInterpolator(w, model.phi_te_samples)
    tm = PchipInterpolator(w, model.phi_tm_samples)
    dte, dtm = te.derivative(), tm.derivative()
    for got, want in zip(model._phi_table + model._dphi_table, (te, tm, dte, dtm)):
        assert same_array(got, want.c[::-1])
    pts = probe_points(w, fractions)
    assert pts[0] == w[0] and pts[-1] == w[-1]
    x = np.array(pts)
    want_phase = (te(x), tm(x))
    want_delay = (dte(x), dtm(x))
    assert all(map(same_array, phase_arrays(model, x), want_phase))
    assert all(map(same_array, delay_arrays(model, x), want_delay))
    for k, omega in enumerate(pts):
        got = phases(model, omega)
        assert same(got[0], want_phase[0][k]) and same(got[1], want_phase[1][k]), omega
        got = group_delays(model, omega)
        assert same(got[0], want_delay[0][k]) and same(got[1], want_delay[1][k]), omega


fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


@st.composite
def monotone_tables(draw):
    """Strictly increasing omegas and phases, 2 to 40 knots."""
    n = draw(st.integers(2, 40))
    steps = st.lists(st.floats(1e-6, 1.0), min_size=n - 1, max_size=n - 1)
    start = draw(st.floats(0.0, 2.0))
    w = np.cumsum([start] + draw(steps))
    te = np.cumsum([draw(st.floats(-10.0, 10.0))] + draw(steps))
    tm = np.cumsum([draw(st.floats(-10.0, 10.0))] + draw(steps))
    return TabulatedDispersion(w, te, tm)


@st.composite
def shaped_tables(draw):
    """Phases that turn back and have flat steps (repeated values), 2 to 40 knots.

    These reach the branches monotone tables miss: a zero slope at a knot
    between slopes of opposite sign, and the end slopes that are set to 0
    or to three times the end interval's slope.
    """
    n = draw(st.sampled_from([2, 3]) | st.integers(2, 40))
    steps = st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1)
    w = np.cumsum([draw(st.floats(0.0, 2.0))] + draw(steps))
    levels = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 3.0]) | st.floats(-10.0, 10.0)
    te = draw(st.lists(levels, min_size=n, max_size=n))
    tm = draw(st.lists(levels, min_size=n, max_size=n))
    return TabulatedDispersion(w, np.array(te), np.array(tm))


class TestScalarPchip:
    @settings(max_examples=50, deadline=None)
    @given(fractions=fractions)
    def test_golden_table(self, fractions):
        assert_scalar_matches_scipy(TABLE, fractions)

    # scipy's reference warns when a subnormal slope overflows its harmonic mean
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(model=monotone_tables() | shaped_tables(), fractions=fractions)
    def test_drawn_table(self, model, fractions):
        assert_scalar_matches_scipy(model, fractions)

    def test_domain_rules_unchanged(self):
        lo, hi = 0.25, 1.75
        assert phases(TABLE, lo) and phases(TABLE, hi)
        for omega in (np.nextafter(lo, 0.0), np.nextafter(hi, 2.0)):
            with pytest.raises(ValueError, match="outside tabulated range"):
                phases(TABLE, omega)
        for omega in (lo, hi):
            delays = tuple(float(d[0]) for d in delay_arrays(TABLE, [omega]))
            assert all(map(same, group_delays(TABLE, omega), delays))
        for omega in (np.nextafter(lo, 0.0), np.nextafter(hi, 2.0)):
            with pytest.raises(ValueError, match="outside tabulated range"):
                group_delays(TABLE, omega)
        with pytest.raises(ValueError, match="finite"):
            phases(TABLE, math.nan)


def estimate_beta_reference(model, omega, pair, tau_measured, bracket):
    """estimate_beta as it was with a scan of 64 scalar group_delay calls."""
    tau_measured = float(tau_measured)
    lo, hi = (float(bracket[0]), float(bracket[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BadBracket(f"bracket ({lo!r}, {hi!r}) is not an increasing interval")

    def delay(b):
        return group_delay(model, omega, b, pair)

    # an overflowing bracket scans NaN betas, which group_delay refuses;
    # estimate_beta silences linspace's warnings for them the same way
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo, hi, 64)
    scanned = np.empty(64)
    for i in range(64):
        try:
            scanned[i] = delay(float(grid[i]))
        except PostselectionNull:
            raise BadBracket(
                f"bracket contains a postselection null near beta={float(grid[i])!r}") from None
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


def outcome(fn, *args):
    """The bits of the result, or the exception's type and message."""
    try:
        return ("value", float(fn(*args)).hex())
    except Exception as exc:   # noqa: BLE001 - the comparison is the point
        return (type(exc), str(exc))


def assert_delay_sign_change(model, omega, pair, tau, beta):
    """group_delay - tau is 0 at beta, or changes sign between beta and an adjacent double."""
    def f(b):
        return group_delay(model, omega, b, pair) - tau

    here = f(beta)
    assert here == 0.0 or any((f(math.nextafter(beta, to)) < 0.0) != (here < 0.0)
                              for to in (-math.inf, math.inf)), beta


def delay_resolution(model, omega, pair, tau, beta, bracket):
    """The span of beta over which the delay near beta moves by 32 ulps of tau.

    Where the delay is flat in beta (near its extremes) its rounding noise
    leaves sign changes of group_delay - tau up to about this far apart.
    """
    lo, hi = max(bracket[0], beta - 1e-6), min(bracket[1], beta + 1e-6)
    slope = (group_delay(model, omega, hi, pair) - group_delay(model, omega, lo, pair)) \
        / (hi - lo)
    return 32.0 * math.ulp(tau) / abs(slope) if slope else math.inf


def assert_same_outcome(model, omega, pair, tau, bracket):
    """The reference's exception and message, or its bracket end, bit for bit.

    For an interior root: a sign change of the delay within 1e-12 of the
    reference's answer, or within the delay's resolution where it is flat.
    """
    args = (model, omega, pair, tau, bracket)
    want = outcome(estimate_beta_reference, *args)
    got = outcome(estimate_beta, *args)
    lo, hi = float(bracket[0]), float(bracket[1])
    if want[0] != "value" or float.fromhex(want[1]) in (lo, hi):
        assert got == want
        return want
    assert got[0] == "value"
    beta = float.fromhex(got[1])
    assert abs(beta - float.fromhex(want[1])) \
        <= 1e-12 + delay_resolution(model, omega, pair, float(tau), beta, (lo, hi))
    assert_delay_sign_change(model, omega, pair, float(tau), beta)
    return got


class TestEstimateBetaMatchesScalarScan:
    def test_linear_rising_and_falling_branches(self):
        for beta, bracket in ((0.24 * PI, (0.20 * PI, 0.249 * PI)),
                              (0.3 * PI, (0.26 * PI, 0.4 * PI))):
            tau = group_delay(DEFAULT_MODEL, 1.0, beta, VV)
            kind, _ = assert_same_outcome(DEFAULT_MODEL, 1.0, VV, tau, bracket)
            assert kind == "value"

    def test_tabulated(self):
        tau = group_delay(TABLE, 0.95, 0.22 * PI, VV)
        kind, _ = assert_same_outcome(TABLE, 0.95, VV, tau, (0.47, 0.72))
        assert kind == "value"
        # at the knot omega = 1, where T has its zeros
        tau = group_delay(TABLE, 1.0, 0.5, VV)
        kind, _ = assert_same_outcome(TABLE, 1.0, VV, tau, (0.1, 0.7))
        assert kind == "value"

    def test_target_at_bracket_endpoint(self):
        kind, _ = assert_same_outcome(DEFAULT_MODEL, 1.0, VV, 10 * PI, (0.0, 0.01))
        assert kind == "value"

    def test_null_in_bracket_names_the_same_beta(self):
        # the scan lands exactly on the null at pi/4; on the tabulated table
        # the null is at the knot omega = 1
        d = 0.001
        for model in (DEFAULT_MODEL, TABLE):
            kind, message = assert_same_outcome(model, 1.0, VV, 40.0,
                                                (PI / 4 - 31 * d, PI / 4 + 32 * d))
            assert kind is BadBracket and "null near beta=" in message

    def test_first_of_two_nulls_is_named(self):
        # grid step pi/80: the scan hits the nulls at pi/4 and 3pi/4
        d = PI / 80
        for model in (DEFAULT_MODEL, TABLE):
            kind, message = assert_same_outcome(model, 1.0, VV, 40.0,
                                                (PI / 4 - 10 * d, PI / 4 + 53 * d))
            assert kind is BadBracket and "beta=0.785398" in message

    def test_non_monotone_bracket(self):
        for args in ((DEFAULT_MODEL, 1.0, VV, 54.86, (0.2 * PI, 0.3 * PI)),
                     (DEFAULT_MODEL, 1.0, VV, 10 * PI, (-0.01, 0.01)),
                     (TABLE, 0.95, VV, 36.87, (0.47, 0.75))):
            kind, message = assert_same_outcome(*args)
            assert kind is BadBracket and "not monotonic" in message

    def test_target_outside_range(self):
        kind, message = assert_same_outcome(DEFAULT_MODEL, 1.0, VV, 9.0 * PI, (0.0, 0.1))
        assert kind is BadBracket and "outside the bracket" in message

    def test_bad_omegas_raise_the_same_value_error(self):
        for model, omega in ((TABLE, 2.0), (DEFAULT_MODEL, -0.5),
                             (DEFAULT_MODEL, math.inf), (TABLE, math.nan)):
            kind, _ = assert_same_outcome(model, omega, VV, 30.0, (0.1, 0.5))
            assert kind is ValueError
        kind, message = assert_same_outcome(TABLE, np.nextafter(1.75, 2.0), VV, 30.0,
                                            (0.1, 0.5))
        assert "outside tabulated range" in message

    @pytest.mark.filterwarnings("error")
    def test_overflowing_bracket(self):
        # the bracket scans NaN betas; an omega whose phase overflows is
        # refused first, as the reference's first group_delay refuses it
        for omega, message in ((1.0, "beta must be finite, got nan"),
                               (1e308, "phase is not finite at omega 1e+308")):
            assert assert_same_outcome(DEFAULT_MODEL, omega, VV, 30.0, (-1e308, 1e308)) \
                == (ValueError, message)

    def test_invalid_bracket(self):
        kind, _ = assert_same_outcome(DEFAULT_MODEL, 1.0, VV, 30.0, (0.5, 0.1))
        assert kind is BadBracket

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from([DEFAULT_MODEL, TABLE]),
           omega=st.one_of(st.just(1.0), st.floats(0.3, 1.7)),
           psi=st.sampled_from([(0.0, 0.0), (0.3, 1.1), ("D45", "A135")]),
           lo=st.floats(-PI, PI), width=st.floats(1e-3, 1.0),
           where=st.floats(-0.1, 1.1))
    def test_random_inversions(self, model, omega, psi, lo, width, where):
        pair = selection(*psi)
        hi = lo + width
        try:
            tau = group_delay(model, omega, lo + where * width, pair)
        except PostselectionNull:
            tau = 30.0
        assert_same_outcome(model, omega, pair, tau, (lo, hi))

    @settings(max_examples=100, deadline=None)
    @given(model=st.sampled_from([DEFAULT_MODEL, TABLE]), omega=st.floats(0.3, 1.7),
           th_in=st.floats(0.0, PI), th_f=st.floats(0.0, PI), beta=st.floats(0.0, PI),
           width=st.floats(1e-3, 0.3), where=st.floats(0.0, 1.0),
           nudge=st.floats(-1e-12, 1e-12), rising=st.booleans())
    def test_linear_pairs_polish_the_closed_form(self, model, omega, th_in, th_f, beta,
                                                 width, where, nudge, rising):
        lo, hi = beta - where * width, beta + (1.0 - where) * width
        pair = selection(th_in, th_f)
        # mirroring every angle mirrors the delay curve: the other branch
        if (group_delay(model, omega, hi, pair) > group_delay(model, omega, lo, pair)) \
                != rising:
            th_in, th_f, beta, lo, hi = -th_in, -th_f, -beta, -hi, -lo
            pair = selection(th_in, th_f)
        tau = group_delay(model, omega, beta, pair) * (1.0 + nudge)
        assume(outcome(estimate_beta_reference, model, omega, pair, tau, (lo, hi))[0]
               == "value")
        assume((group_delay(model, omega, hi, pair) > group_delay(model, omega, lo, pair))
               == rising)
        assert_same_outcome(model, omega, pair, tau, (lo, hi))

    def test_elliptical_pair_bisects_the_bracket(self):
        # circular in, V out: |T| is 1/sqrt(2) at omega = 1 and the delay is
        # tau_te cos^2 beta + tau_tm sin^2 beta, falling on (0, pi/2)
        pair = SelectionPair(PolarizationState(math.sqrt(0.5), 1j * math.sqrt(0.5)),
                             selection("V", "V").psi_f)
        tau = group_delay(DEFAULT_MODEL, 1.0, 0.6, pair)
        assert weakmeas._closed_form_seed(pair, phases(DEFAULT_MODEL, 1.0),
                                          group_delays(DEFAULT_MODEL, 1.0),
                                          tau, 0.3, 1.2) is None
        beta = estimate_beta(DEFAULT_MODEL, 1.0, pair, tau, (0.3, 1.2))
        assert abs(beta - 0.6) <= 1e-8
        assert_delay_sign_change(DEFAULT_MODEL, 1.0, pair, tau, beta)
        assert_same_outcome(DEFAULT_MODEL, 1.0, pair, tau, (0.3, 1.2))

    def test_closed_form_falls_back(self):
        circular = PolarizationState(math.sqrt(0.5), 1j * math.sqrt(0.5))
        # (pair, omega, target, bracket, whether the scan lets estimate_beta
        # reach the closed form); the scan refuses the first two brackets,
        # since the delay has period pi in beta and a non-turning pair's is flat
        cases = [
            # a bracket of width pi
            (VV, 1.0, 30.0, (0.1, 0.1 + PI), False),
            # circular in and out: c = 1 and k1 = k2 = 0, the weights do not turn
            (SelectionPair(circular, circular), 1.0, 30.0, (0.1, 1.2), False),
            # a target one ulp above the delay's minimum at the bracket's low
            # end, where the discriminant of the quadratic rounds negative
            (VV, 1.2, 27.172731878814048, (0.9508615785592631, 1.2508615785592632), True),
        ]
        for pair, omega, tau, (lo, hi), reached in cases:
            assert weakmeas._closed_form_seed(pair, phases(DEFAULT_MODEL, omega),
                                              group_delays(DEFAULT_MODEL, omega),
                                              tau, lo, hi) is None, (omega, tau)
            kind, _ = assert_same_outcome(DEFAULT_MODEL, omega, pair, tau, (lo, hi))
            assert (kind == "value") == reached, (omega, tau, kind)

    def test_equal_phases_make_the_closed_form_linear(self):
        # at omega 0 on DEFAULT_MODEL phi_te = phi_tm = 0, so u = 0 and the
        # quadratic in p1 has no square term
        tau = group_delay(DEFAULT_MODEL, 0.0, 0.7, VV)
        assert weakmeas._closed_form_seed(VV, phases(DEFAULT_MODEL, 0.0),
                                          group_delays(DEFAULT_MODEL, 0.0),
                                          tau, 0.1, 1.4) is not None
        beta = estimate_beta(DEFAULT_MODEL, 0.0, VV, tau, (0.1, 1.4))
        assert_delay_sign_change(DEFAULT_MODEL, 0.0, VV, tau, beta)
