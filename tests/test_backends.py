import math

import numpy as np
import pytest

import weaklight
from weaklight.fourier import _tables, dft_forward, dft_inverse


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

    def test_table_cache_is_bounded(self):
        assert _tables.cache_parameters()["maxsize"] is not None


class TestActiveBackend:
    def test_is_reference(self):
        assert weaklight.active_backend() == "reference"
