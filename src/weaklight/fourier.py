"""Deterministic radix-2 discrete Fourier transform.

The transform is implemented in-artifact (iterative Cooley-Tukey on
power-of-two sizes) so pulse outputs are bit-reproducible across platforms.
Twiddle factors come from the C library's cos/sin, which numpy's float64
cos/sin call, so they equal ``math.cos``/``math.sin`` of the same angles.

Conventions match the usual DFT pair: forward is
``X[k] = sum_j x[j] exp(-2*pi*i*j*k/n)`` and the inverse carries the ``1/n``.
"""

import math
from functools import lru_cache

import numpy as np

from . import backends
from .errors import _power_of_two

__all__ = ["dft_forward", "dft_inverse"]


# pulse runs use a handful of sizes; the bound keeps a long-lived process
# that sweeps many sizes from holding every table it ever built
_TABLES_CACHED = 8


@lru_cache(maxsize=_TABLES_CACHED)
def _tables(n):
    # reversing the axes of arange(n) as a (2, 2, ..., 2) array reverses the
    # bits of each index
    perm = np.arange(n, dtype=np.intp).reshape((2,) * (n.bit_length() - 1)).transpose().ravel()
    # the operations of the scalar -2.0 * math.pi * k / n, in its order; the
    # angles are built in the sine row and replaced by their sines, so both
    # tables share one allocation and no float temporary is made
    tw_re, tw_im = np.empty((2, n // 2))
    np.multiply(np.arange(n // 2), -2.0 * math.pi, out=tw_im)
    tw_im /= n
    np.cos(tw_im, out=tw_re)
    np.sin(tw_im, out=tw_im)
    for arr in (perm, tw_re, tw_im):
        arr.setflags(write=False)
    return perm, tw_re, tw_im


def dft_forward(z):
    """Forward DFT of a complex vector whose length is a power of two."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    n = _power_of_two("transform size", z.shape[0], 2)
    perm, tw_re, tw_im = _tables(n)
    re = z.real[perm]
    im = z.imag[perm]
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
