"""Frozen row-major convolution: the differential reference for the
channel-major one.

This is the ``im2col``/``col2im``/``conv2d`` :mod:`repro.nn.functional`
used before it switched to the channel-major column layout: zero padding
by ``np.pad``, one ``(N·H_out·W_out, C·k·k)`` row per receptive field
gathered through a 6-D strided reshape, ``cols @ W.T`` forward and an
NHWC gather of the output gradient backward.  It is kept verbatim as the
oracle ``test_conv_equivalence.py`` pins the new convolution against —
output, weight, bias and input gradients — and as the "before" side of
``benchmarks/bench_nn_conv.py``.  Do not optimise it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv_output_size
from repro.nn.tensor import Tensor


def _sliding_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """View of shape (N, C, H_out, W_out, kernel, kernel) over ``x``."""
    n, c, h, w = x.shape
    h_out = (h - kernel) // stride + 1
    w_out = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, h_out, w_out, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """``(N * H_out * W_out, C * kernel * kernel)``: rows are flattened
    receptive fields."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = _sliding_windows(x, kernel, stride)
    n, c, h_out, w_out, _, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * h_out * w_out, c * kernel * kernel
    )
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col`."""
    n, c, h, w = x_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = (h_pad - kernel) // stride + 1
    w_out = (w_pad - kernel) // stride + 1
    x_pad = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, h_out, w_out, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    for ki in range(kernel):
        i_max = ki + stride * h_out
        for kj in range(kernel):
            j_max = kj + stride * w_out
            x_pad[:, :, ki:i_max:stride, kj:j_max:stride] += cols6[:, :, ki, kj]
    if padding:
        return x_pad[:, :, padding:-padding, padding:-padding]
    return x_pad


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution, NCHW layout, square kernels (row-major im2col)."""
    n, c_in, h, w = x.shape
    c_out, c_in_w, kernel, kernel2 = weight.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")
    h_out = conv_output_size(h, kernel, stride, padding)
    w_out = conv_output_size(w, kernel, stride, padding)

    cols = im2col(x.data, kernel, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out_mat = cols @ w_mat.T
    if bias is not None:
        out_mat = out_mat + bias.data
    out_data = out_mat.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if weight.requires_grad:
            grad_w = (grad_mat.T @ cols).reshape(weight.shape)
            Tensor._accumulate(weight, grad_w)
        if bias is not None and bias.requires_grad:
            Tensor._accumulate(bias, grad_mat.sum(axis=0))
        if x.requires_grad:
            grad_cols = grad_mat @ w_mat
            Tensor._accumulate(x, col2im(grad_cols, x.shape, kernel, stride, padding))

    return Tensor._make(out_data, parents, backward)
