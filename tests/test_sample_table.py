"""Column-backed sweep results: the SampleTable returned by contour_grid and sweep_angle."""

import math
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pair
from weaklight import (
    DEFAULT_MODEL,
    PolarizationState,
    PostselectionNull,
    SelectionPair,
    TransferSample,
    contour_grid,
    group_delay,
    load_tabulated,
    selection,
    sweep_angle,
    transfer,
)
from weaklight import weakmeas
from weaklight.fourier import _tables
from weaklight.jones import SQRT_HALF
from weaklight.weakmeas import SampleTable, _beta_weights, _cos_sin_table, _weights

PI = math.pi
VV = selection("V", "V")

# TE - TM = pi at the knot omega = 1, so V/V has exact zeros at beta = pi/4, 3pi/4
TABLE = load_tabulated(Path(__file__).resolve().parent / "golden" / "disp.csv")


def same(a, b):
    """Bitwise float equality (tells 0.0 from -0.0)."""
    return float(a).hex() == float(b).hex()


def assert_matches_scalar(model, pair, s):
    t = transfer(model, s.omega, s.beta, pair)
    assert same(s.t.real, t.real) and same(s.t.imag, t.imag)
    assert same(s.abs_t, math.sqrt(t.real * t.real + t.imag * t.imag))
    assert same(s.arg_t, math.atan2(t.imag, t.real))
    if s.singular:
        assert s.group_delay is None
        with pytest.raises(PostselectionNull):
            group_delay(model, s.omega, s.beta, pair)
    else:
        assert same(s.group_delay, group_delay(model, s.omega, s.beta, pair))


def assert_table_matches_scalar(model, pair, omegas, betas):
    grid = contour_grid(model, omegas, betas, pair)
    assert len(grid) == len(omegas)
    for i, row in enumerate(grid):
        assert len(row) == len(betas)
        for j, s in enumerate(row):
            assert s.omega == omegas[i] and s.beta == betas[j]
            assert_matches_scalar(model, pair, s)
    line = sweep_angle(model, omegas[0], betas, pair)
    for j, s in enumerate(line):
        assert s == grid[0][j]


selection_angles = st.floats(-PI, PI, allow_nan=False)
# V/V at the listed omegas and betas puts exact zeros of T on the grid
pairs = st.one_of(st.just((0.0, 0.0)), st.tuples(selection_angles, selection_angles))
betas = st.lists(st.one_of(st.sampled_from([PI / 4, 3 * PI / 4, -PI / 4, 0.0]),
                           st.floats(-2 * PI, 2 * PI, allow_nan=False)),
                 min_size=1, max_size=5)


class TestScalarAgreement:
    @settings(max_examples=100, deadline=None)
    @given(pair=pairs, betas=betas,
           omegas=st.lists(st.one_of(st.sampled_from([1.0, 3.0]),
                                     st.floats(0.0, 4.0, allow_nan=False)),
                           min_size=1, max_size=5))
    def test_linear_model(self, pair, omegas, betas):
        assert_table_matches_scalar(DEFAULT_MODEL, selection(*pair), omegas, betas)

    # the closed tabulated domain, end knots included
    @settings(max_examples=100, deadline=None)
    @given(pair=pairs, betas=betas,
           omegas=st.lists(st.one_of(st.just(1.0), st.floats(0.25, 1.75)),
                           min_size=1, max_size=5))
    def test_tabulated_model(self, pair, omegas, betas):
        assert_table_matches_scalar(TABLE, selection(*pair), omegas, betas)

    def test_grid_hits_both_zeros(self):
        grid = contour_grid(DEFAULT_MODEL, [0.5, 1.0], [PI / 4, 3 * PI / 4], VV)
        assert [s.singular for s in grid[1]] == [True, True]
        assert not any(grid.singular[:2])
        assert all(math.isnan(x) for x in grid.group_delay[2:])


class TestSampleTable:
    def test_shape_rows_and_columns(self):
        grid = contour_grid(DEFAULT_MODEL, [0.5, 0.75, 1.0], [0.0, 0.1], VV)
        assert isinstance(grid, SampleTable) and grid.shape == (3, 2)
        assert grid.omega.tolist() == [0.5, 0.5, 0.75, 0.75, 1.0, 1.0]
        assert grid.beta.tolist() == [0.0, 0.1] * 3
        row = grid[-1]
        assert isinstance(row, SampleTable) and row.shape == (2,)
        assert isinstance(row[1], TransferSample)
        assert row[1] == grid[2][1] == list(grid)[2][-1]
        assert [s.beta for s in grid[1:][0]] == [0.0, 0.1]
        assert grid[::2].omega.tolist() == [0.5, 0.5, 1.0, 1.0]

    def test_read_only(self):
        line = sweep_angle(DEFAULT_MODEL, 1.0, np.linspace(0.0, 1.0, 4), VV)
        for name in ("omega", "beta", "re_t", "arg_t", "group_delay", "singular"):
            with pytest.raises(ValueError):
                getattr(line, name)[0] = 0
        with pytest.raises(TypeError):
            line[0] = line[1]

    def test_caller_arrays_stay_writable(self):
        betas = np.linspace(0.0, 1.0, 4)
        sweep_angle(DEFAULT_MODEL, 1.0, betas, VV)
        contour_grid(DEFAULT_MODEL, np.array([0.9, 1.1]), betas, VV)
        betas[0] = 0.5

    def test_index_errors(self):
        line = sweep_angle(DEFAULT_MODEL, 1.0, [0.0, 0.1], VV)
        grid = contour_grid(DEFAULT_MODEL, [0.9, 1.1], [0.0, 0.1], VV)
        for table in (line, grid):
            with pytest.raises(IndexError):
                table[2]
            with pytest.raises(TypeError):
                table[0.5]
        assert line[-2] == line[0]


class TestLibmTables:
    def test_cos_sin_table_matches_loop(self):
        values = np.concatenate([np.linspace(-50.0, 50.0, 1001), [0.0, -0.0, PI, 1e300]])
        cos_arr, sin_arr = _cos_sin_table(values)
        for i, x in enumerate(values.tolist()):
            assert same(cos_arr[i], math.cos(x)) and same(sin_arr[i], math.sin(x))

    def test_beta_weights_match_loop(self):
        betas = np.concatenate([np.linspace(-7.0, 7.0, 301), [PI / 4]])
        pair = selection(0.3, "D45")
        columns = _beta_weights(betas, pair)
        for i, b in enumerate(betas.tolist()):
            assert all(same(col[i], w) for col, w in zip(columns, _weights(b, pair)))
        assert all(col.flags.c_contiguous for col in columns)

    def test_beta_weights_bitwise_equal_to_weights(self, monkeypatch):
        # every basis and linear pair, elliptical pairs, and betas where the
        # products hit signed zeros (0, -0, multiples of pi/2)
        rng = np.random.default_rng(8)
        states = ["V", "H", "D45", "A135", 0.3, -1.1, 0.0, PI / 2]
        pairs = [selection(a, b) for a in states for b in states]
        pairs += [random_pair(rng) for _ in range(16)]
        betas = np.concatenate([[0.0, -0.0, PI / 4, PI / 2, -PI / 2, PI, -PI, 2 * PI,
                                 1e-300, -5e-324, 1e300],
                                np.linspace(-7.0, 7.0, 401), rng.normal(size=400) * 10])
        for pair in pairs:
            want = [_weights(b, pair) for b in betas.tolist()]
            # slices of 5 split the betas, and their signed zeros, across many passes
            for size in (weakmeas._SLICE, 5):
                monkeypatch.setattr(weakmeas, "_SLICE", size)
                columns = _beta_weights(betas, pair)
                for i, w in enumerate(want):
                    assert all(same(col[i], x) for col, x in zip(columns, w)), \
                        (pair, size, betas[i])

    def test_beta_weights_bitwise_on_signed_zero_parts(self):
        # Every unit-norm state with parts from {+-0, +-1, +-sqrt(1/2)}, and
        # states with +-0 and +-1e-200 parts, whose products with a tiny
        # sin(beta) underflow to a signed zero.  A float times a complex in
        # CPython subtracts 0.0*a.imag after rounding c*a.real; numpy's
        # complex product fuses the two where the CPU has FMA, and then
        # keeps the sign of an underflowed product that CPython drops.
        values = (0.0, -0.0, 1.0, -1.0, SQRT_HALF, -SQRT_HALF)
        units = [PolarizationState(complex(a, b), complex(c, d))
                 for a, b, c, d in product(values, repeat=4)
                 if abs(a * a + b * b + c * c + d * d - 1.0) < 1e-12]
        small = (0.0, -0.0, 1e-200, -1e-200)
        tiny = [PolarizationState(*(complex(a, b), one)[::flip])
                for a, b in product(small, repeat=2)
                for one in (1.0, complex(-1.0, -0.0), complex(-0.0, 1.0), complex(0.0, -1.0))
                for flip in (1, -1)]
        betas = np.array([0.0, -0.0, PI / 4, PI / 2, -PI / 2, PI, -PI,
                          1e-300, -1e-300, 1e-200, -5e-324])
        for states in (units, tiny):
            for psi_in, psi_f in product(states, repeat=2):
                pair = SelectionPair(psi_in, psi_f)
                want = np.array([_weights(b, pair) for b in betas.tolist()]).T
                got = _beta_weights(betas, pair)
                assert (got.view(np.uint64) == want.view(np.uint64)).all(), pair

    def test_beta_weights_peak_memory(self):
        # the result is 32 MB; whole-axis temporaries took the peak to 104 MB
        betas = np.linspace(0.0, 1.0, 1_000_001)
        tracemalloc.start()
        try:
            weights = _beta_weights(betas, selection(0.3, "D45"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weights.shape == (4, betas.size)
        assert peak <= 64e6

    # The grid path takes cos/sin from numpy and the scalar path from the math
    # module; they agree bitwise because numpy's float64 cos/sin call the C
    # library's.  These tests fail on a numpy build whose cos/sin are its own.

    def test_cos_sin_table_is_libm_on_a_seeded_corpus(self):
        rng = np.random.default_rng(12)
        k = np.arange(-3000, 3001)
        quarter = k * (PI / 4)
        exponents = rng.integers(-1074, 1024, 30000)
        values = np.concatenate([
            rng.uniform(-10.0, 10.0, 25000),
            rng.uniform(-1e3, 1e3, 25000),
            rng.uniform(-1e6, 1e6, 25000),
            # every binary exponent, subnormals included, both signs
            np.ldexp(rng.uniform(1.0, 2.0, 30000), exponents) * rng.choice([-1.0, 1.0], 30000),
            k * (PI / 2),
            quarter, np.nextafter(quarter, -np.inf), np.nextafter(quarter, np.inf),
            [0.0, -0.0, 1e308, -1e308]])
        assert values.size >= 10 ** 5 and np.all(np.isfinite(values))
        items = values.tolist()
        want_cos = np.fromiter(map(math.cos, items), float, len(items))
        want_sin = np.fromiter(map(math.sin, items), float, len(items))
        cos_arr, sin_arr = _cos_sin_table(values)
        assert cos_arr.tobytes() == want_cos.tobytes()
        assert sin_arr.tobytes() == want_sin.tobytes()
        cos_arr, sin_arr = _cos_sin_table(values[::7])
        assert cos_arr.tobytes() == want_cos[::7].tobytes()
        assert sin_arr.tobytes() == want_sin[::7].tobytes()

    def test_dft_twiddles_are_libm(self):
        for bits in range(1, 21):
            n = 1 << bits
            angles = (np.arange(n // 2) * (-2.0 * PI) / n).tolist()
            _, tw_re, tw_im = _tables.__wrapped__(n)
            assert tw_re.tobytes() == np.fromiter(map(math.cos, angles), float).tobytes(), n
            assert tw_im.tobytes() == np.fromiter(map(math.sin, angles), float).tobytes(), n

    def test_arg_t_stays_libm_atan2(self):
        # numpy's arctan2 is not libm's: on this corpus they differ in places,
        # and there arg_t must still be math.atan2
        rng = np.random.default_rng(13)
        table = sweep_angle(DEFAULT_MODEL, 0.83, rng.uniform(0.0, PI, 20000),
                            selection(0.3, 1.1))
        want = np.fromiter(map(math.atan2, table.im_t.tolist(), table.re_t.tolist()), float)
        differ = np.arctan2(table.im_t, table.re_t).view(np.int64) != want.view(np.int64)
        assert differ.sum() > 100
        assert table.arg_t.tobytes() == want.tobytes()
