"""Differential suite: channel-major conv2d against the frozen row-major one.

The two lowerings do the same multiply-adds with the GEMM operands in
different roles, so BLAS may round differently; every output and gradient
must agree within ``max|Δ| ≤ 1e-12 · max|ref|``.  The reference is
``tests/nn/reference_conv.py`` (the convolution before the switch).
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from . import reference_conv

C_IN = (1, 3, 8, 16)
C_OUT = (2, 4, 7, 16)
TOLERANCE = 1e-12


def _run(conv, x, w, b, stride, padding, grad_layout):
    tx = Tensor(x.copy(), requires_grad=True)
    tw = Tensor(w.copy(), requires_grad=True)
    tb = None if b is None else Tensor(b.copy(), requires_grad=True)
    out = conv(tx, tw, tb, stride=stride, padding=padding)
    grad = grad_layout(np.random.default_rng(1).normal(size=out.shape))
    out.backward(grad)
    return {
        "out": out.data,
        "grad_x": tx.grad,
        "grad_w": tw.grad,
        "grad_b": None if tb is None else tb.grad,
    }


def _nchw(grad):
    return np.ascontiguousarray(grad)


def _channel_major(grad):
    return np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("n", [1, 5, 32])
def test_conv_matches_row_major_reference(n, kernel, stride, padding, bias, dtype):
    rng = np.random.default_rng(n * 1000 + kernel * 100 + stride * 10 + padding)
    size = 7 if n == 32 else 9
    for c_in in C_IN:
        for c_out in C_OUT:
            x = rng.normal(size=(n, c_in, size, size)).astype(dtype)
            w = rng.normal(size=(c_out, c_in, kernel, kernel))
            b = rng.normal(size=c_out) if bias else None
            # The upstream gradient arrives in either memory layout.
            layout = _channel_major if (c_in + c_out) % 2 else _nchw
            got = _run(F.conv2d, x, w, b, stride, padding, layout)
            ref = _run(reference_conv.conv2d, x, w, b, stride, padding, layout)
            case = f"c_in={c_in} c_out={c_out}"
            for name, expected in ref.items():
                actual = got[name]
                if expected is None:
                    assert actual is None, f"{case}: {name}"
                    continue
                assert actual.shape == expected.shape, f"{case}: {name}"
                assert actual.dtype == expected.dtype, f"{case}: {name}"
                scale = np.abs(expected).max()
                assert np.abs(actual - expected).max() <= TOLERANCE * scale, (
                    f"{case}: {name}"
                )


def test_output_is_channel_major():
    """NCHW shape over (C, N, H, W) memory: what lets the next im2col and
    the backward pass read whole rows."""
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 8, 8)))
    w = Tensor(np.random.default_rng(1).normal(size=(5, 3, 3, 3)))
    out = F.conv2d(x, w, padding=1)
    assert out.shape == (4, 5, 8, 8)
    assert out.data.transpose(1, 0, 2, 3).flags.c_contiguous
    # An elementwise op keeps the layout.
    assert (out.data * 2.0).transpose(1, 0, 2, 3).flags.c_contiguous


def test_im2col_columns_are_reference_rows():
    x = np.random.default_rng(2).normal(size=(3, 4, 7, 7))
    for kernel, stride, padding in [(3, 1, 1), (3, 2, 0), (1, 1, 0), (3, 2, 1)]:
        cols = F.im2col(x, kernel, stride, padding)
        assert cols.flags.c_contiguous
        assert np.array_equal(cols.T, reference_conv.im2col(x, kernel, stride, padding))
