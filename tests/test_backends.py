import math
import os
import subprocess
import sys

import numpy as np
import pytest

from weaklight.backends import reference
from weaklight.fourier import _tables, dft_forward, dft_inverse

try:
    from weaklight.backends import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None,
                                    reason="compiled backend not built")


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


@needs_compiled
class TestBackendEquivalence:
    def test_bilinear_grid_bitwise(self):
        rng = np.random.default_rng(75)
        nw, nb = 513, 211
        args = [rng.normal(size=nw) for _ in range(4)] \
            + [rng.normal(size=nb) for _ in range(4)]
        out_c = (np.empty((nb, nw)), np.empty((nb, nw)))
        out_r = (np.empty((nb, nw)), np.empty((nb, nw)))
        _core.bilinear_grid(*args, *out_c)
        reference.bilinear_grid(*args, *out_r)
        assert np.array_equal(out_c[0], out_r[0])
        assert np.array_equal(out_c[1], out_r[1])

    def test_fft_butterflies_bitwise(self):
        rng = np.random.default_rng(76)
        for n in (64, 2048):
            perm, tw_re, tw_im = _tables(n)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            re_c = np.ascontiguousarray(z.real[perm])
            im_c = np.ascontiguousarray(z.imag[perm])
            re_r = re_c.copy()
            im_r = im_c.copy()
            _core.fft_butterflies(re_c, im_c, tw_re, tw_im)
            reference.fft_butterflies(re_r, im_r, tw_re, tw_im)
            assert np.array_equal(re_c, re_r)
            assert np.array_equal(im_c, im_r)


class TestSelection:
    def _backend_in_subprocess(self, value):
        env = dict(os.environ)
        env["WEAKLIGHT_BACKEND"] = value
        out = subprocess.run(
            [sys.executable, "-c",
             "import weaklight; print(weaklight.active_backend())"],
            capture_output=True, text=True, env=env)
        return out

    def test_reference_forced(self):
        out = self._backend_in_subprocess("reference")
        assert out.returncode == 0
        assert out.stdout.strip() == "reference"

    @needs_compiled
    def test_compiled_forced(self):
        out = self._backend_in_subprocess("compiled")
        assert out.returncode == 0
        assert out.stdout.strip() == "compiled"

    def test_invalid_choice_fails(self):
        out = self._backend_in_subprocess("sparkly")
        assert out.returncode != 0
        assert "WEAKLIGHT_BACKEND" in out.stderr


@needs_compiled
class TestWholePipelineAcrossBackends:
    def test_sweep_outputs_bitwise_identical(self, tmp_path):
        # the same CLI invocation must produce identical bytes under both
        # backends, not just under repetition
        args = ["-m", "weaklight.cli", "angle-sweep", "--omega", "1.0",
                "--beta", "0:3.14159:61"]
        outputs = []
        for backend in ("compiled", "reference"):
            env = dict(os.environ)
            env["WEAKLIGHT_BACKEND"] = backend
            out = subprocess.run([sys.executable, *args], capture_output=True,
                                 env=env)
            assert out.returncode == 0
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1]
