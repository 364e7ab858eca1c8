"""CNN model zoo: VGG-16, ResNet-18, ResNet-34 (the paper's three models).

All three are built for CIFAR-10-style 32×32×3 inputs (the paper trains on
CIFAR-10).  A ``width_scale`` parameter produces channel-scaled variants
used by the security experiments so that substitute-model retraining is
feasible in pure numpy; geometry-dependent experiments (the performance
figures) use the full-width models, whose layer shapes are what the GPU
trace generator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .layers import (
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    probe_dataflow,
)
from .tensor import Tensor

__all__ = [
    "vgg16",
    "resnet18",
    "resnet34",
    "build_model",
    "MODEL_BUILDERS",
    "LayerGeometry",
    "model_geometry",
    "probe_shapes",
]

# VGG-16 configuration: channel counts with 'M' marking 2×2 max-pool.
_VGG16_CFG = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"]


def _scaled(channels: int, width_scale: float) -> int:
    """Scale a channel count, keeping at least 8 and divisibility by 4."""
    scaled = max(8, int(round(channels * width_scale)))
    return max(4, (scaled // 4) * 4)


def vgg16(
    num_classes: int = 10,
    width_scale: float = 1.0,
    in_channels: int = 3,
    input_size: int = 32,
) -> Module:
    """VGG-16 [22] for square inputs of ``input_size`` (13 CONV + 3 FC).

    The paper notes 13/16 layers of VGG-16 are CONV layers; this builder
    preserves that structure (the three FC layers follow the final pool).
    ``input_size`` must be a multiple of 32 (the five 2×2 pools); 32 is the
    CIFAR-10 geometry the paper trains on, 224 the ImageNet geometry.
    """
    if input_size % 32:
        raise ValueError("input_size must be a multiple of 32")
    layers: list[Module] = []
    channels = in_channels
    for item in _VGG16_CFG:
        if item == "M":
            layers.append(MaxPool2d(2))
        else:
            out = _scaled(int(item), width_scale)
            layers.append(Conv2d(channels, out, 3, padding=1, bias=False))
            layers.append(BatchNorm2d(out))
            layers.append(ReLU())
            channels = out
    final_spatial = input_size // 32
    hidden = _scaled(512, width_scale) * final_spatial * final_spatial
    classifier_width = _scaled(512, width_scale)
    layers.extend(
        [
            Flatten(),
            Linear(hidden, classifier_width),
            ReLU(),
            Linear(classifier_width, classifier_width),
            ReLU(),
            Linear(classifier_width, num_classes),
        ]
    )
    model = Sequential(*layers)
    model.name = "VGG-16" if width_scale == 1.0 else f"VGG-16(x{width_scale:g})"
    return model


class _ResNet(Module):
    """CIFAR-style ResNet: 3×3 stem then four stages of BasicBlocks."""

    def __init__(
        self,
        blocks_per_stage: list[int],
        num_classes: int,
        width_scale: float,
        in_channels: int,
        name: str,
    ) -> None:
        super().__init__()
        self.name = name
        widths = [_scaled(w, width_scale) for w in (64, 128, 256, 512)]
        self.stem_conv = Conv2d(in_channels, widths[0], 3, padding=1, bias=False)
        self.stem_bn = BatchNorm2d(widths[0])
        self.stem_relu = ReLU()
        stages: list[Module] = []
        in_ch = widths[0]
        for stage_index, (width, depth) in enumerate(zip(widths, blocks_per_stage)):
            stride = 1 if stage_index == 0 else 2
            blocks: list[Module] = [BasicBlock(in_ch, width, stride=stride)]
            for _ in range(depth - 1):
                blocks.append(BasicBlock(width, width))
            stages.append(Sequential(*blocks))
            in_ch = width
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(widths[-1], num_classes)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_relu(self.stem_bn(self.stem_conv(x)))
        out = self.stages(out)
        out = self.pool(out)
        return self.fc(out)


def resnet18(num_classes: int = 10, width_scale: float = 1.0, in_channels: int = 3) -> Module:
    """ResNet-18 [8]: 17 CONV + 1 FC (the paper's 17/18 CONV count)."""
    name = "ResNet-18" if width_scale == 1.0 else f"ResNet-18(x{width_scale:g})"
    return _ResNet([2, 2, 2, 2], num_classes, width_scale, in_channels, name)


def resnet34(num_classes: int = 10, width_scale: float = 1.0, in_channels: int = 3) -> Module:
    """ResNet-34 [8]: 33 CONV + 1 FC (the paper's 33/34 CONV count)."""
    name = "ResNet-34" if width_scale == 1.0 else f"ResNet-34(x{width_scale:g})"
    return _ResNet([3, 4, 6, 3], num_classes, width_scale, in_channels, name)


def mlp(
    num_classes: int = 10,
    hidden_sizes: tuple[int, ...] = (256, 256, 128),
    in_features: int = 3 * 32 * 32,
    width_scale: float = 1.0,
) -> Module:
    """Fully-connected network (flatten + FC stack).

    The paper notes the SE scheme "can also be applied to full-connected
    (FC) layers since each FC layer also includes a kernel matrix", and
    hence to RNN-style models built from FC layers.  This builder provides
    that model class; the planner treats each FC input feature as a kernel
    row.
    """
    layers: list[Module] = [Flatten()]
    previous = in_features
    for width in hidden_sizes:
        width = _scaled(width, width_scale)
        layers.append(Linear(previous, width))
        layers.append(ReLU())
        previous = width
    layers.append(Linear(previous, num_classes))
    model = Sequential(*layers)
    model.name = "MLP" if width_scale == 1.0 else f"MLP(x{width_scale:g})"
    return model


MODEL_BUILDERS = {
    "vgg16": vgg16,
    "resnet18": resnet18,
    "resnet34": resnet34,
    "mlp": mlp,
}


def build_model(name: str, **kwargs: object) -> Module:
    """Build a model by canonical name (``vgg16``/``resnet18``/``resnet34``)."""
    key = name.lower().replace("-", "").replace("_", "")
    if key not in MODEL_BUILDERS:
        raise KeyError(f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[key](**kwargs)


# ----------------------------------------------------------------------
# Geometry extraction for the GPU trace generator and the SEAL planner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerGeometry:
    """Shape summary of one layer as the simulator sees it.

    ``kind`` is one of ``conv``/``fc``/``pool``; spatial sizes refer to the
    layer's *output* feature map.  ``weight_bytes`` / ``input_bytes`` /
    ``output_bytes`` assume 4-byte elements (fp32 inference).
    """

    name: str
    kind: str
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    in_height: int
    in_width: int
    out_height: int
    out_width: int
    batch: int = 1
    element_bytes: int = 4

    @property
    def weight_count(self) -> int:
        if self.kind == "conv":
            return self.in_channels * self.out_channels * self.kernel_size**2
        if self.kind == "fc":
            return self.in_channels * self.out_channels
        return 0

    @property
    def weight_bytes(self) -> int:
        return self.weight_count * self.element_bytes

    @property
    def input_bytes(self) -> int:
        return self.batch * self.in_channels * self.in_height * self.in_width * self.element_bytes

    @property
    def output_bytes(self) -> int:
        return self.batch * self.out_channels * self.out_height * self.out_width * self.element_bytes

    @property
    def macs(self) -> int:
        """Multiply-accumulate count for one forward pass."""
        if self.kind == "conv":
            return (
                self.batch
                * self.out_channels
                * self.out_height
                * self.out_width
                * self.in_channels
                * self.kernel_size**2
            )
        if self.kind == "fc":
            return self.batch * self.in_channels * self.out_channels
        # Pooling: one op per input element in each window.
        return (
            self.batch
            * self.out_channels
            * self.out_height
            * self.out_width
            * self.kernel_size**2
        )


def probe_shapes(model: Module, input_shape: tuple[int, int, int] = (3, 32, 32)) -> None:
    """Run the planner's empty-batch probe (:func:`probe_dataflow`) so every
    module records its shapes; they carry batch 0, so read ``shape[1:]``."""
    probe_dataflow(model, input_shape)


def model_geometry(
    model: Module,
    input_shape: tuple[int, int, int] = (3, 32, 32),
    batch: int = 1,
) -> list[LayerGeometry]:
    """Extract per-layer geometry (conv/fc/pool) in execution order.

    Runs :func:`probe_shapes` (an empty-batch forward pass), then walks the
    per-sample part of the recorded shapes; ``batch`` sets the geometry's
    batch.  Layers appear in module pre-order, which for our
    Sequential-style models coincides with execution order.
    """
    from .layers import AvgPool2d, GlobalAvgPool2d as _GAP, Linear as _Linear, MaxPool2d as _MaxPool

    probe_shapes(model, input_shape)
    geometry: list[LayerGeometry] = []
    for name, module in model.named_modules():
        in_shape = module.last_input_shape
        out_shape = module.last_output_shape
        if in_shape is None or out_shape is None:
            continue
        if isinstance(module, Conv2d):
            geometry.append(
                LayerGeometry(
                    name=name or "conv",
                    kind="conv",
                    in_channels=module.in_channels,
                    out_channels=module.out_channels,
                    kernel_size=module.kernel_size,
                    stride=module.stride,
                    in_height=in_shape[2],
                    in_width=in_shape[3],
                    out_height=out_shape[2],
                    out_width=out_shape[3],
                    batch=batch,
                )
            )
        elif isinstance(module, _Linear):
            geometry.append(
                LayerGeometry(
                    name=name or "fc",
                    kind="fc",
                    in_channels=module.in_features,
                    out_channels=module.out_features,
                    kernel_size=1,
                    stride=1,
                    in_height=1,
                    in_width=1,
                    out_height=1,
                    out_width=1,
                    batch=batch,
                )
            )
        elif isinstance(module, (_MaxPool, AvgPool2d)):
            geometry.append(
                LayerGeometry(
                    name=name or "pool",
                    kind="pool",
                    in_channels=in_shape[1],
                    out_channels=out_shape[1],
                    kernel_size=module.kernel_size,
                    stride=module.stride,
                    in_height=in_shape[2],
                    in_width=in_shape[3],
                    out_height=out_shape[2],
                    out_width=out_shape[3],
                    batch=batch,
                )
            )
        elif isinstance(module, _GAP):
            geometry.append(
                LayerGeometry(
                    name=name or "pool",
                    kind="pool",
                    in_channels=in_shape[1],
                    out_channels=out_shape[1],
                    kernel_size=in_shape[2],
                    stride=in_shape[2],
                    in_height=in_shape[2],
                    in_width=in_shape[3],
                    out_height=1,
                    out_width=1,
                    batch=batch,
                )
            )
    return geometry
