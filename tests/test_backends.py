import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import weaklight
from weaklight import backends
from weaklight.fourier import _tables, dft_forward, dft_inverse


def frozen_butterflies(re, im, tw_re, tw_im):
    """``backends.fft_butterflies`` as it was before its stages were done in
    place: the bitwise reference for the transforms."""
    n = re.shape[0]
    m = 2
    while m <= n:
        half = m // 2
        stride = n // m
        wr = tw_re[::stride][:half]
        wi = tw_im[::stride][:half]
        blocks_re = re.reshape(-1, m)
        blocks_im = im.reshape(-1, m)
        a_re = blocks_re[:, :half]
        b_re = blocks_re[:, half:]
        a_im = blocks_im[:, :half]
        b_im = blocks_im[:, half:]
        t_re = b_re * wr - b_im * wi
        t_im = b_re * wi + b_im * wr
        b_re[:, :] = a_re - t_re
        b_im[:, :] = a_im - t_im
        a_re[:, :] = a_re + t_re
        a_im[:, :] = a_im + t_im
        m *= 2


def frozen_forward(z):
    n = z.shape[0]
    bits = n.bit_length() - 1
    index = np.arange(n, dtype=np.intp)
    perm = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        perm |= ((index >> b) & 1) << (bits - 1 - b)
    angles = [-2.0 * math.pi * k / n for k in range(n // 2)]
    re, im = z.real[perm], z.imag[perm]
    frozen_butterflies(re, im, np.array([math.cos(a) for a in angles]),
                       np.array([math.sin(a) for a in angles]))
    out = np.empty(n, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def frozen_inverse(z):
    out = np.conjugate(frozen_forward(np.conjugate(z)))
    out /= z.shape[0]
    return out


def awkward_vector(rng, n):
    """Complex samples mixing normal, huge, tiny and subnormal parts, and +-0.0."""
    parts = rng.normal(size=2 * n) * 10.0 ** rng.integers(-300, 250, 2 * n)
    parts[rng.random(2 * n) < 0.1] = 0.0
    parts[rng.random(2 * n) < 0.1] = -0.0
    tiny = rng.random(2 * n) < 0.1
    parts[tiny] = rng.integers(-2 ** 40, 2 ** 40, int(tiny.sum())) * 5e-324
    return parts.view(np.complex128)


def brute_force_dft(z):
    n = z.shape[0]
    k = np.arange(n)
    return np.array([np.sum(z * np.exp(-2j * np.pi * k * j / n)) for j in range(n)])


class TestDft:
    def test_against_brute_force(self):
        rng = np.random.default_rng(71)
        z = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.allclose(dft_forward(z), brute_force_dft(z), atol=1e-11)

    def test_against_numpy(self):
        rng = np.random.default_rng(72)
        for n in (64, 256, 4096):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.allclose(dft_forward(z), np.fft.fft(z), atol=1e-9)
            assert np.allclose(dft_inverse(z), np.fft.ifft(z), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(73)
        z = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        back = dft_inverse(dft_forward(z))
        assert np.max(np.abs(back - z)) / np.max(np.abs(z)) < 1e-12

    def test_size_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            dft_forward(np.zeros(100, complex))

    def test_deterministic(self):
        rng = np.random.default_rng(74)
        z = rng.normal(size=512) + 1j * rng.normal(size=512)
        assert np.array_equal(dft_forward(z), dft_forward(z))

    def test_tables_match_loop_reference(self):
        for bits in range(1, 17):
            n = 1 << bits
            perm = np.zeros(n, dtype=np.intp)
            for i in range(n):
                r = 0
                v = i
                for _ in range(bits):
                    r = (r << 1) | (v & 1)
                    v >>= 1
                perm[i] = r
            tw_re = np.empty(n // 2)
            tw_im = np.empty(n // 2)
            for k in range(n // 2):
                ang = -2.0 * math.pi * k / n
                tw_re[k] = math.cos(ang)
                tw_im[k] = math.sin(ang)
            got = _tables(n)
            assert got[0].dtype == np.intp and np.array_equal(got[0], perm)
            assert got[1].tobytes() == tw_re.tobytes()
            assert got[2].tobytes() == tw_im.tobytes()

    def test_bitwise_equal_to_frozen_reference(self):
        rng = np.random.default_rng(75)
        for bits in range(1, 17):
            z = awkward_vector(rng, 1 << bits)
            assert dft_forward(z).tobytes() == frozen_forward(z).tobytes(), bits
            assert dft_inverse(z).tobytes() == frozen_inverse(z).tobytes(), bits

    def test_table_cache_is_bounded(self):
        assert _tables.cache_parameters()["maxsize"] is not None


finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(x):
    return struct.pack("<d", x)


class TestBilinearGrid:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_omega=st.integers(1, 6), n_beta=st.integers(1, 6))
    def test_omega_major_and_bitwise_equal_to_scalar_call(self, data, n_omega, n_beta):
        omega_tables = [data.draw(arrays(float, n_omega, elements=finite)) for _ in range(4)]
        weights = [data.draw(arrays(float, n_beta, elements=finite)) for _ in range(4)]
        # drawn magnitudes overflow, and inf - inf is NaN, on both paths alike
        with np.errstate(over="ignore", invalid="ignore"):
            out_re, out_im = backends.bilinear_grid(*omega_tables, *weights)
        assert out_re.shape == out_im.shape == (n_omega, n_beta)
        for i in range(n_omega):
            for j in range(n_beta):
                # the scalar path's call, on Python floats
                re, im = backends._bilinear(*(float(a[i]) for a in omega_tables),
                                            *(float(p[j]) for p in weights))
                assert bits(out_re[i, j]) == bits(re), (i, j)
                assert bits(out_im[i, j]) == bits(im), (i, j)


class TestActiveBackend:
    def test_is_reference(self):
        assert weaklight.active_backend() == "reference"
