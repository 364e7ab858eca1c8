"""Layer/module abstraction on top of the autograd tensor.

Modules record the shapes they last saw (``last_input_shape`` /
``last_output_shape``), and :class:`trace_dataflow` records every module
call and residual add, so the SEAL planner and the geometry extractor can
introspect a model from one shape-probing forward pass.  That probe runs
on an empty batch ``(0, C, H, W)``: every layer here maps it to the right
``(0, ...)`` output shape without computing an activation, so the recorded
shapes carry batch 0 and callers read only their per-sample part.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from . import functional as F
from .tensor import Tensor, no_grad

__all__ = [
    "Module",
    "trace_dataflow",
    "probe_dataflow",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
    "Sequential",
    "BasicBlock",
]


# When not None, Module.__call__ appends (module, input, output) records and
# BasicBlock appends ("residual_add", a, b, out) records.  Holding strong
# tensor references keeps ids stable for dataflow analysis (repro.core.plan).
_TRACE_LOG: list | None = None


class trace_dataflow:
    """Context manager that records every module call and residual add."""

    def __enter__(self) -> list:
        global _TRACE_LOG
        self._previous = _TRACE_LOG
        _TRACE_LOG = []
        return _TRACE_LOG

    def __exit__(self, *exc_info: object) -> None:
        global _TRACE_LOG
        _TRACE_LOG = self._previous


def probe_dataflow(
    model: "Module", input_shape: tuple[int, ...]
) -> tuple[list, Tensor, Tensor]:
    """Trace ``model`` in eval mode on an empty ``(0, *input_shape)`` batch.

    Returns the :class:`trace_dataflow` log, the probe input and the model
    output.  The empty batch costs no arithmetic, yet every record carries
    the real tensor identities and per-sample shapes (``shape[1:]``).
    """
    model.eval()
    with trace_dataflow() as log, no_grad():
        probe = Tensor(np.zeros((0, *input_shape), dtype=np.float32))
        output = model(probe)
    return log, probe, output


class Module:
    """Base class: parameter registration, train/eval mode, iteration."""

    def __init__(self) -> None:
        self.training = True
        self.last_input_shape: tuple[int, ...] | None = None
        self.last_output_shape: tuple[int, ...] | None = None

    # -- override points ------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    # -- shared machinery -----------------------------------------------
    def __call__(self, x: Tensor) -> Tensor:
        self.last_input_shape = tuple(x.shape)
        out = self.forward(x)
        self.last_output_shape = tuple(out.shape)
        if _TRACE_LOG is not None:
            _TRACE_LOG.append((self, x, out))
        return out

    def parameters(self) -> Iterator[Tensor]:
        """All trainable tensors, depth-first."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield f"{prefix}{name}", value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{index}.")

    def modules(self) -> Iterator["Module"]:
        """This module and all submodules, depth-first pre-order."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_modules(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(f"{prefix}{name}.{index}.")

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters plus batch-norm running statistics."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, module in self.named_modules():
            if isinstance(module, BatchNorm2d):
                state[f"{name}.running_mean"] = module.running_mean.copy()
                state[f"{name}.running_var"] = module.running_var.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        for name, module in self.named_modules():
            if isinstance(module, BatchNorm2d):
                if f"{name}.running_mean" in state:
                    module.running_mean[...] = state[f"{name}.running_mean"]
                if f"{name}.running_var" in state:
                    module.running_var[...] = state[f"{name}.running_var"]
        for name, value in state.items():
            if name in params:
                if params[name].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].shape} vs {value.shape}"
                    )
                params[name].data[...] = value


def _he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He (Kaiming) normal initialisation [7] — also what the paper's
    adversary uses to fill unknown weights."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


_GLOBAL_RNG = np.random.default_rng(0)


def set_init_rng(seed: int) -> None:
    """Re-seed the parameter-initialisation RNG (for reproducible models)."""
    global _GLOBAL_RNG
    _GLOBAL_RNG = np.random.default_rng(seed)


class Conv2d(Module):
    """2-D convolution layer; ``weight[:, j]`` is kernel row ``j``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            _he_normal(_GLOBAL_RNG, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_channels), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def kernel_matrix(self) -> np.ndarray:
        """The paper's kernel-matrix view: shape (n_x, n_y) of kernels.

        Row ``j`` (input channel), column ``i`` (output channel) holds the
        k×k kernel ``weight[i, j]``; returned as (in_ch, out_ch, k, k).
        """
        return self.weight.data.transpose(1, 0, 2, 3)


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``; rows of ``W.T`` are the
    FC analogue of kernel rows (one per input feature)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _he_normal(_GLOBAL_RNG, (out_features, in_features), in_features),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Per-channel batch normalisation with running statistics."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        # An explicit width: ``-1`` cannot resolve on an empty batch.
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Ordered container applying submodules in sequence."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.layers:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def append(self, module: Module) -> None:
        self.layers.append(module)


class BasicBlock(Module):
    """ResNet basic residual block (two 3×3 convolutions)."""

    expansion = 1

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        shortcut = self.shortcut(x)
        merged = out + shortcut
        if _TRACE_LOG is not None:
            _TRACE_LOG.append(("residual_add", out, shortcut, merged))
        return self.relu2(merged)
