import cmath
import math

import numpy as np
import pytest

from conftest import max_entry_diff, random_state
from weaklight import (
    PolarizationOperator,
    PolarizationState,
    apply,
    basis_state,
    hermitian_eigenvalues,
    inner,
    is_hermitian,
    is_unitary,
    linear_state,
    rotation,
)

SQRT_HALF = math.sqrt(0.5)


class TestBasisState:
    def test_v(self):
        s = basis_state("V")
        assert s.a1 == 1.0 + 0.0j and s.a2 == 0.0 + 0.0j

    def test_h(self):
        s = basis_state("H")
        assert s.a1 == 0.0 + 0.0j and s.a2 == 1.0 + 0.0j

    def test_d45(self):
        s = basis_state("D45")
        assert s.a1 == pytest.approx(0.7071067811865476, abs=0)
        assert s.a2 == pytest.approx(0.7071067811865476, abs=0)

    def test_a135(self):
        s = basis_state("A135")
        assert s.a2.real == pytest.approx(-SQRT_HALF, abs=1e-16)

    def test_unknown_label_reports_token(self):
        with pytest.raises(ValueError, match="D46"):
            basis_state("D46")


class TestLinearState:
    def test_zero_is_vertical(self):
        assert linear_state(0.0) == basis_state("V")

    def test_quarter_turn(self):
        s = linear_state(math.pi / 2)
        assert abs(s.a1) < 1e-15
        assert abs(s.a2 - 1.0) < 1e-15

    def test_eighth_turn(self):
        s = linear_state(math.pi / 4)
        assert s.a1.real == pytest.approx(0.7071067811865476, abs=1e-15)
        assert s.a2.real == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            linear_state(math.inf)


class TestStateNormalization:
    def test_small_error_renormalized(self):
        s = PolarizationState((1.0 + 1e-7) + 0.0j, 0.0j)
        assert abs(s.a1) ** 2 + abs(s.a2) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_large_error_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            PolarizationState(1.1 + 0.0j, 0.0j)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PolarizationState(complex(math.nan, 0.0), 0.0j)


class TestRotation:
    def test_identity(self):
        assert max_entry_diff(rotation(0.0), np.eye(2)) == 0.0

    def test_quarter_turn(self):
        assert max_entry_diff(rotation(math.pi / 2),
                              [[0, -1], [1, 0]]) < 1e-15

    def test_group_property(self):
        lhs = rotation(0.3) @ rotation(0.4)
        rhs = rotation(0.7)
        assert max_entry_diff(lhs, [[rhs.m11, rhs.m12], [rhs.m21, rhs.m22]]) < 1e-14

    def test_periodicity(self):
        rng = np.random.default_rng(11)
        for beta in rng.uniform(-6.0, 6.0, size=50):
            a = rotation(beta)
            b = rotation(beta + 2.0 * math.pi)
            assert max_entry_diff(a, [[b.m11, b.m12], [b.m21, b.m22]]) < 1e-12

    def test_always_unitary(self):
        rng = np.random.default_rng(12)
        for beta in rng.uniform(-10.0, 10.0, size=200):
            assert is_unitary(rotation(beta), 1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            rotation(math.nan)

    def test_product_with_a_non_operator_refused(self):
        # __matmul__ returns NotImplemented, so Python raises the TypeError
        with pytest.raises(TypeError):
            rotation(0.3) @ 2


class TestInner:
    def test_self_overlap(self):
        assert inner(basis_state("V"), basis_state("V")) == 1.0 + 0.0j

    def test_orthogonality(self):
        assert inner(basis_state("V"), basis_state("H")) == 0.0 + 0.0j

    def test_diagonal_overlap(self):
        t = inner(basis_state("V"), basis_state("D45"))
        assert t == pytest.approx(0.7071067811865476 + 0.0j, abs=0)

    def test_cauchy_schwarz_and_self_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            u = random_state(rng)
            v = random_state(rng)
            assert abs(inner(u, v)) <= 1.0 + 1e-12
            assert abs(inner(u, u) - 1.0) < 1e-12


class TestApply:
    def test_identity(self):
        ident = PolarizationOperator(1, 0, 0, 1)
        assert apply(ident, basis_state("V")) == (1.0 + 0.0j, 0.0 + 0.0j)

    def test_sigma_z_eigenvalue(self):
        sz = PolarizationOperator(1, 0, 0, -1)
        assert apply(sz, basis_state("H")) == (0.0 + 0.0j, -1.0 - 0.0j)

    def test_rotated_vertical(self):
        out = apply(rotation(math.pi / 4), basis_state("V"))
        assert out[0].real == pytest.approx(0.70710678, abs=1e-8)
        assert out[1].real == pytest.approx(0.70710678, abs=1e-8)

    def test_composition(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            m1 = rotation(rng.uniform(-3, 3))
            m2 = rotation(rng.uniform(-3, 3))
            v = random_state(rng)
            one = apply(m2, apply(m1, v))
            two = apply(m2 @ m1, v)
            assert abs(one[0] - two[0]) < 1e-12
            assert abs(one[1] - two[1]) < 1e-12

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            phase = PolarizationOperator(
                cmath.exp(1j * rng.uniform(-3, 3)), 0,
                0, cmath.exp(1j * rng.uniform(-3, 3)))
            u = rotation(rng.uniform(-3, 3)) @ phase
            v = random_state(rng)
            out = apply(u, v)
            norm = math.sqrt(abs(out[0]) ** 2 + abs(out[1]) ** 2)
            assert abs(norm - 1.0) < 1e-12


class TestPredicates:
    def test_rotation_unitary(self):
        assert is_unitary(rotation(1.234), 1e-12)

    def test_stretch_not_unitary(self):
        assert not is_unitary(PolarizationOperator(2, 0, 0, 1), 1e-12)

    def test_phase_diagonal_unitary(self):
        op = PolarizationOperator(cmath.exp(0.7j), 0, 0, cmath.exp(-2.1j))
        assert is_unitary(op, 1e-12)

    def test_hermitian_detects(self):
        assert is_hermitian(PolarizationOperator(2.0, 1 + 1j, 1 - 1j, 3.0), 1e-12)
        assert not is_hermitian(PolarizationOperator(2.0, 1 + 1j, 1 + 1j, 3.0), 1e-12)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_unitary(rotation(0.1), 0.0)


class TestHermitianEigenvalues:
    def test_against_lapack(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            a, d = rng.normal(size=2)
            off = complex(*rng.normal(size=2))
            op = PolarizationOperator(a, off, off.conjugate(), d)
            mine = hermitian_eigenvalues(op)
            ref = np.linalg.eigvalsh(np.array([[a, off], [off.conjugate(), d]]))
            assert mine[0] == pytest.approx(ref[0], abs=1e-12)
            assert mine[1] == pytest.approx(ref[1], abs=1e-12)
