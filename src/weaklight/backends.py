"""The two numpy kernels under the sweep grids and the DFT.

``bilinear_grid(are, aim, bre, bim, p1re, p1im, p2re, p2im)``
    the real and imaginary float64 grids of ``p1[j] * a[i] + p2[j] * b[i]``,
    shape ``(len(a), len(p1))``: omega-major when ``a`` and ``b`` are the
    omega tables and ``p1`` and ``p2`` the beta weights.  Each cell is
    ``_bilinear``, the expression the scalar path evaluates on Python floats,
    so scalar and grid evaluations of a point agree bitwise.

``fft_butterflies(re, im, tw_re, tw_im)``
    in-place radix-2 Cooley-Tukey butterflies on bit-reversal-permuted data;
    ``tw`` holds exp(-2*pi*i*k/n) for k < n/2.  Every product and sum is
    written into three preallocated n/2 scratch arrays, so a stage allocates
    nothing.
"""

import numpy as np

__all__ = ["bilinear_grid", "fft_butterflies", "active_backend"]


def active_backend():
    """Name of the kernel implementation: always ``"reference"`` (numpy).

    Kept so that benchmark records name the kernels they measured and records
    taken on different kernels are never compared.
    """
    return "reference"


def _bilinear(are, aim, bre, bim, p1re, p1im, p2re, p2im):
    """(re, im) of p1 * a + p2 * b, on Python floats or broadcasting arrays alike."""
    return (p1re * are - p1im * aim + p2re * bre - p2im * bim,
            p1re * aim + p1im * are + p2re * bim + p2im * bre)


def bilinear_grid(are, aim, bre, bim, p1re, p1im, p2re, p2im):
    return _bilinear(are[:, None], aim[:, None], bre[:, None], bim[:, None],
                     p1re, p1im, p2re, p2im)


# stages with fewer twiddles than this run one strided pass per twiddle over
# all blocks; the others run on (blocks, twiddles) views, whose rows would
# otherwise hold only 1-4 elements
_STRIDED_BELOW = 8


def fft_butterflies(re, im, tw_re, tw_im):
    n = re.shape[0]
    scratch = np.empty((3, n // 2))
    m = 2
    while m <= n:
        half = m // 2
        stride = n // m
        if half < _STRIDED_BELOW:
            t_re, t_im, u = scratch[:, :stride]
            for j in range(half):
                _butterfly(re[j::m], im[j::m], re[j + half::m], im[j + half::m],
                           tw_re[j * stride], tw_im[j * stride], t_re, t_im, u)
        else:
            blocks_re = re.reshape(-1, m)
            blocks_im = im.reshape(-1, m)
            _butterfly(blocks_re[:, :half], blocks_im[:, :half],
                       blocks_re[:, half:], blocks_im[:, half:],
                       tw_re[::stride][:half], tw_im[::stride][:half],
                       *scratch.reshape(3, -1, half))
        m *= 2


def _butterfly(a_re, a_im, b_re, b_im, wr, wi, t_re, t_im, u):
    """(a, b) <- (a + b*w, a - b*w) in place, through the scratch arrays t and u.

    The products and sums are those of ``t = b*w`` written out,
    ``(b_re*wr - b_im*wi, b_re*wi + b_im*wr)``, in that order.
    """
    np.multiply(b_re, wr, out=t_re)
    np.multiply(b_im, wi, out=u)
    np.subtract(t_re, u, out=t_re)
    np.multiply(b_re, wi, out=t_im)
    np.multiply(b_im, wr, out=u)
    np.add(t_im, u, out=t_im)
    np.subtract(a_re, t_re, out=b_re)
    np.subtract(a_im, t_im, out=b_im)
    np.add(a_re, t_re, out=a_re)
    np.add(a_im, t_im, out=a_im)
