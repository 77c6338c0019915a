"""Deterministic radix-2 discrete Fourier transform.

The transform is implemented in-artifact (iterative Cooley-Tukey on
power-of-two sizes) so pulse outputs are bit-reproducible across platforms.
Twiddle factors come from the C library's cos/sin via the math module.

Conventions match the usual DFT pair: forward is
``X[k] = sum_j x[j] exp(-2*pi*i*j*k/n)`` and the inverse carries the ``1/n``.
"""

import math
from functools import lru_cache

import numpy as np

from . import backends

__all__ = ["dft_forward", "dft_inverse"]


# pulse runs use a handful of sizes; the bound keeps a long-lived process
# that sweeps many sizes from holding every table it ever built
_TABLES_CACHED = 8


@lru_cache(maxsize=_TABLES_CACHED)
def _tables(n):
    bits = n.bit_length() - 1
    index = np.arange(n, dtype=np.intp)
    perm = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        perm |= ((index >> b) & 1) << (bits - 1 - b)
    angles = [-2.0 * math.pi * k / n for k in range(n // 2)]
    tw_re = np.fromiter(map(math.cos, angles), float, n // 2)
    tw_im = np.fromiter(map(math.sin, angles), float, n // 2)
    for arr in (perm, tw_re, tw_im):
        arr.setflags(write=False)
    return perm, tw_re, tw_im


def _check_size(n):
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"transform size must be a power of two >= 2, got {n}")


def dft_forward(z):
    """Forward DFT of a complex vector whose length is a power of two."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    n = z.shape[0]
    _check_size(n)
    perm, tw_re, tw_im = _tables(n)
    re = np.ascontiguousarray(z.real[perm])
    im = np.ascontiguousarray(z.imag[perm])
    backends.fft_butterflies(re, im, tw_re, tw_im)
    out = np.empty(n, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def dft_inverse(z):
    """Inverse DFT (with the 1/n factor) via conjugation of the forward pass."""
    z = np.asarray(z, dtype=np.complex128)
    out = dft_forward(np.conjugate(z))
    np.conjugate(out, out=out)
    out /= z.shape[0]
    return out
