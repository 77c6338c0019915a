"""Exact 2x2 complex linear algebra for polarization states and operators.

Component ordering is (z-component, x-component): slot one is the vertical
axis, so the TE (z) axis sits on the +1 eigenvalue of sigma_z and the crystal
evolution operator is diagonal at crystal angle zero.  Angles are radians.
Everything here is immutable after construction and every function is pure,
so concurrent use needs no locking.
"""

import math
from dataclasses import dataclass

from .errors import _finite, _finite_complex, _positive

__all__ = [
    "PolarizationState",
    "PolarizationOperator",
    "basis_state",
    "linear_state",
    "rotation",
    "inner",
    "apply",
    "is_unitary",
    "is_hermitian",
    "hermitian_eigenvalues",
]

SQRT_HALF = math.sqrt(0.5)

_NORM_TOL = 1e-12      # |norm^2 - 1| accepted as already normalized
_RENORM_LIMIT = 1e-6   # |norm - 1| beyond this is rejected, not repaired


@dataclass(frozen=True)
class PolarizationState:
    """Normalized Jones vector; a1 rides the vertical (z) axis, a2 the horizontal (x).

    Construction renormalizes inputs whose norm is within 1e-6 of unity and
    rejects anything farther off, so downstream formulas can assume unit
    vectors to 1e-12.
    """

    a1: complex
    a2: complex

    def __post_init__(self):
        a1 = _finite_complex("a1", self.a1)
        a2 = _finite_complex("a2", self.a2)
        norm_sq = a1.real * a1.real + a1.imag * a1.imag \
            + a2.real * a2.real + a2.imag * a2.imag
        norm = math.sqrt(norm_sq)
        if abs(norm - 1.0) > _RENORM_LIMIT:
            raise ValueError(
                f"state norm {norm!r} is too far from 1 to renormalize")
        if abs(norm_sq - 1.0) > _NORM_TOL:
            a1 /= norm
            a2 /= norm
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)


@dataclass(frozen=True)
class PolarizationOperator:
    """2x2 complex operator on (a1, a2); no structure is imposed at construction."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __post_init__(self):
        for name in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, name, _finite_complex(name, getattr(self, name)))

    def __matmul__(self, other):
        if not isinstance(other, PolarizationOperator):
            return NotImplemented
        return PolarizationOperator(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def dagger(self):
        """Conjugate transpose."""
        return PolarizationOperator(
            self.m11.conjugate(), self.m21.conjugate(),
            self.m12.conjugate(), self.m22.conjugate(),
        )


_BASIS = {
    "V": (1.0, 0.0),
    "H": (0.0, 1.0),
    "D45": (SQRT_HALF, SQRT_HALF),
    "A135": (SQRT_HALF, -SQRT_HALF),
}


def basis_state(label):
    """Named selection state: V=(1,0), H=(0,1), D45/A135 the +-45 degree superpositions."""
    try:
        a1, a2 = _BASIS[label]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown basis label {label!r}; expected one of {', '.join(_BASIS)}") from None
    return PolarizationState(complex(a1), complex(a2))


def linear_state(theta):
    """Linear polarization at angle theta (radians) from the z-axis toward x."""
    theta = _finite("theta", theta)
    return PolarizationState(complex(math.cos(theta)), complex(math.sin(theta)))


def rotation(beta):
    """Rotation by beta in the xz-plane: [[cos b, -sin b], [sin b, cos b]]."""
    beta = _finite("beta", beta)
    c = math.cos(beta)
    s = math.sin(beta)
    return PolarizationOperator(complex(c), complex(-s), complex(s), complex(c))


def inner(bra, ket):
    """Hermitian inner product <bra|ket>."""
    return bra.a1.conjugate() * ket.a1 + bra.a2.conjugate() * ket.a2


def apply(op, vec):
    """Matrix-vector product; vec may be a PolarizationState or any 2-sequence.

    Returns a plain (possibly unnormalized) pair of complex amplitudes.
    """
    if isinstance(vec, PolarizationState):
        b1, b2 = vec.a1, vec.a2
    else:
        b1, b2 = complex(vec[0]), complex(vec[1])
    return (op.m11 * b1 + op.m12 * b2, op.m21 * b1 + op.m22 * b2)


def is_unitary(op, tol=1e-12):
    """True iff max elementwise |op^dagger op - I| <= tol."""
    tol = _positive("tol", tol)
    g = op.dagger() @ op
    dev = max(abs(g.m11 - 1.0), abs(g.m12), abs(g.m21), abs(g.m22 - 1.0))
    return dev <= tol


def is_hermitian(op, tol=1e-12):
    """True iff max elementwise |op - op^dagger| <= tol."""
    tol = _positive("tol", tol)
    dev = max(
        abs(op.m11 - op.m11.conjugate()),
        abs(op.m22 - op.m22.conjugate()),
        abs(op.m12 - op.m21.conjugate()),
    )
    return dev <= tol


def hermitian_eigenvalues(op):
    """Eigenvalues (ascending) of a Hermitian operator; hermiticity is the caller's job."""
    mean = 0.5 * (op.m11.real + op.m22.real)
    half_gap = 0.5 * (op.m11.real - op.m22.real)
    radius = math.hypot(half_gap, abs(op.m12))
    return (mean - radius, mean + radius)
