"""Neural-network operators (conv, pool, batchnorm, losses) with autograd.

Convolution is implemented by im2col + GEMM — the same lowering the paper's
GPU workloads use (Section IV models CONV layers as tiled matrix
multiplication), which keeps the performance model in :mod:`repro.sim`
faithful to the functional model here.  The column matrix is
channel-major, as in Caffe and cuDNN: :func:`im2col` builds a
``(C·k·k, N·H_out·W_out)`` matrix and :func:`conv2d` computes kernel
matrix × column matrix, the orientation :mod:`repro.sim.workloads`
models.  A convolution's output has NCHW shape over ``(C, N, H, W)``
memory; elementwise NumPy ops (batch norm, ReLU) keep that layout, so the
next layer's :func:`im2col` and the backward pass read whole rows.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm2d",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _sliding_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """View of shape (N, C, H_out, W_out, kernel, kernel) over ``x``.

    Zero-copy via stride tricks; callers must not write through the view.
    """
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
    """Lower an image batch into the GEMM operand matrix, channel-major.

    Returns a contiguous array of shape ``(C * kernel * kernel,
    N * H_out * W_out)``: row ``(c, ki, kj)`` holds input channel ``c``
    shifted by kernel offset ``(ki, kj)`` at every output position, so
    column ``p`` is the flattened receptive field of output position
    ``p``.  It is filled with ``kernel²`` slice copies from a
    zero-bordered ``(C, N, H + 2p, W + 2p)`` buffer, each with whole image
    rows as its inner run.
    """
    n, c, h, w = x.shape
    h_out = conv_output_size(h, kernel, stride, padding)
    w_out = conv_output_size(w, kernel, stride, padding)
    source = x.transpose(1, 0, 2, 3)  # (C, N, H, W); a plain view for conv2d outputs
    if padding:
        bordered = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        bordered[:, :, padding : padding + h, padding : padding + w] = source
        source = bordered
    cols = np.empty((c, kernel, kernel, n, h_out, w_out), dtype=x.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, ki, kj] = source[
                :, :, ki : ki + stride * h_out : stride, kj : kj + stride * w_out : stride
            ]
    return cols.reshape(c * kernel * kernel, n * h_out * w_out)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col` (used by conv backward).

    ``cols`` has :func:`im2col`'s ``(C * kernel * kernel, N * H_out *
    W_out)`` layout; each kernel offset's row block is added back as one
    contiguous slice, in the same ``(ki, kj)`` order.  The result has
    shape ``x_shape`` (NCHW) in channel-major memory.
    """
    n, c, h, w = x_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = (h_pad - kernel) // stride + 1
    w_out = (w_pad - kernel) // stride + 1
    cols6 = cols.reshape(c, kernel, kernel, n, h_out, w_out)
    x_pad = np.zeros((c, n, h_pad, w_pad), dtype=cols.dtype)
    for ki in range(kernel):
        i_max = ki + stride * h_out
        for kj in range(kernel):
            j_max = kj + stride * w_out
            x_pad[:, :, ki:i_max:stride, kj:j_max:stride] += cols6[:, ki, kj]
    return x_pad[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution, NCHW shape, square kernels.

    ``weight`` has shape ``(out_channels, in_channels, k, k)`` — in the
    paper's terminology each ``weight[:, j]`` slice is *kernel row j* (the
    row of the kernel matrix corresponding to input channel ``j``).  The
    output is the kernel matrix times :func:`im2col`'s column matrix,
    returned with NCHW shape over ``(C_out, N, H_out, W_out)`` memory.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kernel, kernel2 = weight.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")
    h_out = conv_output_size(h, kernel, stride, padding)
    w_out = conv_output_size(w, kernel, stride, padding)

    cols = im2col(x.data, kernel, stride, padding)  # (C_in*k*k, N*H_out*W_out)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C_in*k*k)
    out_mat = w_mat @ cols  # (C_out, N*H_out*W_out)
    if bias is not None:
        out_mat = out_mat + bias.data[:, None]
    out_data = out_mat.reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        # A plain view when grad is channel-major (it is for every op
        # whose output keeps conv2d's memory layout).
        grad_t = grad.transpose(1, 0, 2, 3).reshape(c_out, -1)
        if weight.requires_grad:
            Tensor._accumulate(weight, (grad_t @ cols.T).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            Tensor._accumulate(bias, grad_t.sum(axis=1))
        if x.requires_grad:
            grad_cols = w_mat.T @ grad_t
            Tensor._accumulate(x, col2im(grad_cols, x.shape, kernel, stride, padding))

    return Tensor._make(out_data, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    windows = _sliding_windows(x.data, kernel, stride)
    n_, c_, h_out, w_out, _, _ = windows.shape
    flat = windows.reshape(n, c, h_out, w_out, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        ki, kj = np.divmod(arg, kernel)
        n_idx, c_idx, i_idx, j_idx = np.indices(arg.shape)
        index = (n_idx, c_idx, i_idx * stride + ki, j_idx * stride + kj)
        if stride >= kernel:
            # Disjoint windows: each input cell takes at most one value.
            grad_x[index] = grad
        else:
            np.add.at(grad_x, index, grad)
        Tensor._accumulate(x, grad_x)

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over square windows."""
    stride = stride or kernel
    windows = _sliding_windows(x.data, kernel, stride)
    out_data = windows.mean(axis=(-1, -2))
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        h_out, w_out = grad.shape[2], grad.shape[3]
        for ki in range(kernel):
            for kj in range(kernel):
                grad_x[:, :, ki : ki + stride * h_out : stride,
                       kj : kj + stride * w_out : stride] += grad * scale
        Tensor._accumulate(x, grad_x)

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, returning (N, C)."""
    return x.mean(axis=(2, 3))


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over (N, H, W) per channel.

    ``running_mean``/``running_var`` are updated in place while training,
    matching the standard exponential-moving-average semantics.
    """
    n, c, h, w = x.shape
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        count = n * h * w
        unbiased = var * count / max(count - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out_data = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            Tensor._accumulate(gamma, (grad * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            Tensor._accumulate(beta, grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            g = grad * gamma.data[None, :, None, None]
            if training:
                count = n * h * w
                sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
                sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
                grad_x = (
                    inv_std[None, :, None, None]
                    * (g - sum_g / count - x_hat * sum_gx / count)
                )
            else:
                grad_x = g * inv_std[None, :, None, None]
            Tensor._accumulate(x, grad_x)

    return Tensor._make(out_data, (x, gamma, beta), backward)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    softmax_data = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            grad_sum = grad.sum(axis=axis, keepdims=True)
            Tensor._accumulate(logits, grad - softmax_data * grad_sum)

    return Tensor._make(out_data, (logits,), backward)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax probabilities."""
    return log_softmax(logits, axis=axis).exp()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    *,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Mean cross-entropy between logits and integer (or one-hot) targets."""
    targets = np.asarray(targets)
    log_probs = log_softmax(logits, axis=-1)
    n, num_classes = logits.shape
    if targets.ndim == 1:
        one_hot = np.zeros((n, num_classes))
        one_hot[np.arange(n), targets.astype(int)] = 1.0
    else:
        one_hot = targets.astype(np.float64)
    if label_smoothing:
        one_hot = (
            one_hot * (1.0 - label_smoothing) + label_smoothing / num_classes
        )
    target_tensor = Tensor(one_hot)
    return -(log_probs * target_tensor).sum() * (1.0 / n)
