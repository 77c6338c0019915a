import math

import numpy as np

from weaklight import PolarizationState, SelectionPair, apply, flight_operator


def random_state(rng):
    v = rng.normal(size=4)
    z1 = complex(v[0], v[1])
    z2 = complex(v[2], v[3])
    norm = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    return PolarizationState(z1 / norm, z2 / norm)


def random_pair(rng):
    return SelectionPair(random_state(rng), random_state(rng))


def orthogonal_state(state):
    """The state orthogonal to ``state``: (-conj(a2), conj(a1))."""
    return PolarizationState(-state.a2.conjugate(), state.a1.conjugate())


def flight_expectation(model, omega, beta, psi):
    """<psi|F|psi>, with F the time-of-flight operator ``flight_operator``."""
    out = apply(flight_operator(model, omega, beta), psi)
    return psi.a1.conjugate() * out[0] + psi.a2.conjugate() * out[1]


def op_matrix(op):
    return np.array([[op.m11, op.m12], [op.m21, op.m22]])


def max_entry_diff(op, matrix):
    return float(np.max(np.abs(op_matrix(op) - np.asarray(matrix))))
