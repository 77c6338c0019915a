"""Deterministic radix-2 discrete Fourier transform.

The transform is implemented in-artifact (iterative Cooley-Tukey on
power-of-two sizes) so pulse outputs are bit-reproducible across platforms.
Twiddle factors come from the C library's cos/sin, which numpy's float64
cos/sin call, so they equal ``math.cos``/``math.sin`` of the same angles.

Conventions match the usual DFT pair: forward is
``X[k] = sum_j x[j] exp(-2*pi*i*j*k/n)`` and the inverse carries the ``1/n``.
"""

import math

import numpy as np

from . import backends
from .errors import _power_of_two

__all__ = ["dft_forward", "dft_inverse"]


def _tables(n):
    """The plan of one transform: the bit reversal of 0..n-1 and the twiddles."""
    # by doubling: the reversals below 2m are those below m times two, for
    # the even indices, and the same plus one for the odd ones
    perm = np.zeros(n, dtype=np.intp)
    m = 1
    while m < n:
        perm[:m] *= 2
        np.add(perm[:m], 1, out=perm[m:2 * m])
        m *= 2
    # the operations of the scalar -2.0 * math.pi * k / n, in its order; the
    # angles are built in the sine row and replaced by their sines, so both
    # tables share one allocation and no float temporary is made
    tw_re, tw_im = np.empty((2, n // 2))
    np.multiply(np.arange(n // 2), -2.0 * math.pi, out=tw_im)
    tw_im /= n
    np.cos(tw_im, out=tw_re)
    np.sin(tw_im, out=tw_im)
    return perm, tw_re, tw_im


def dft_forward(z):
    """Forward DFT of a complex vector whose length is a power of two."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    n = _power_of_two("transform size", z.shape[0], 2)
    # each part of the plan is freed once used, so that it does not raise the peak
    perm, tw_re, tw_im = _tables(n)
    re = z.real[perm]
    im = z.imag[perm]
    del perm
    backends.fft_butterflies(re, im, tw_re, tw_im)
    del tw_re, tw_im
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
