"""The two numpy kernels under the sweep grids and the DFT.

``bilinear_grid(are, aim, bre, bim, p1re, p1im, p2re, p2im, out_re, out_im)``
    fills ``out[i, j] = p1[i] * a[j] + p2[i] * b[j]`` (complex, split into
    real/imaginary float64 arrays; ``out`` has shape ``(len(p1), len(a))``),
    in the operation order of ``weakmeas._combine``, so scalar and grid
    evaluations of a point agree bitwise.

``fft_butterflies(re, im, tw_re, tw_im)``
    in-place radix-2 Cooley-Tukey butterflies on bit-reversal-permuted data;
    ``tw`` holds exp(-2*pi*i*k/n) for k < n/2.
"""

import numpy as np

__all__ = ["bilinear_grid", "fft_butterflies", "active_backend"]


def active_backend():
    """Name of the kernel implementation: always ``"reference"`` (numpy).

    Kept so that benchmark records name the kernels they measured and records
    taken on different kernels are never compared.
    """
    return "reference"


def bilinear_grid(are, aim, bre, bim, p1re, p1im, p2re, p2im, out_re, out_im):
    q1re = p1re[:, None]
    q1im = p1im[:, None]
    q2re = p2re[:, None]
    q2im = p2im[:, None]
    out_re[:, :] = q1re * are - q1im * aim + q2re * bre - q2im * bim
    out_im[:, :] = q1re * aim + q1im * are + q2re * bim + q2im * bre


def fft_butterflies(re, im, tw_re, tw_im):
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
