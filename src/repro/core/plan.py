"""Criticality-aware smart-encryption planning (the SEAL contribution).

Given a trained model and an encryption ratio ``r``, the planner decides —
per CONV/FC layer — which kernel rows to encrypt and, consequently, which
feature-map channels must be encrypted on the memory bus (Section III-A of
the paper):

1. Boundary layers (the first two CONV layers, the last CONV layer, and the
   last FC layer) are fully encrypted so the adversary cannot solve for
   weights from known model inputs/outputs (Section III-B.1).
2. Every other weight layer encrypts the ``ceil(r · n)`` kernel rows with
   the largest ℓ1-norms.
3. A kernel row is encrypted **iff** the input-feature-map channel it
   multiplies is encrypted.  This is the invariant that makes the scheme
   sound: the bus only ever carries products of two encrypted operands or
   two plaintext operands, never a mixed product (Equations 1–3).

For non-sequential graphs (ResNet residual adds, shared feature maps) the
channel mask of a tensor is the union of the masks required by all of its
consumers, and each consumer's row mask is then *upgraded* to that union —
encryption can only grow, so the invariant and the security argument are
preserved (the realised ratio may exceed ``r`` slightly; ``realized_ratio``
reports it).

The planner discovers the dataflow by tracing one forward pass of an
*empty* batch (:func:`repro.nn.layers.probe_dataflow` over a ``(0, C, H,
W)`` probe), so it works on any model built from the :mod:`repro.nn` layer
library without manual annotation, and it learns tensor identities and
shapes without computing a single activation.  Shapes are recorded at
batch 1, the unit :meth:`ModelEncryptionPlan.layer_traffic` scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    probe_dataflow,
)
from .importance import fc_row_l1, kernel_row_l1, select_encrypted_rows

__all__ = [
    "DEFAULT_ENCRYPTION_RATIO",
    "WeightLayerPlan",
    "PoolLayerPlan",
    "AuxParamPlan",
    "LayerTraffic",
    "ModelEncryptionPlan",
    "PlanError",
]

#: The ratio the paper selects after the security analysis (Section III-B.3).
DEFAULT_ENCRYPTION_RATIO = 0.5

_CHANNEL_PRESERVING = (BatchNorm2d, ReLU, Identity, MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten)


class PlanError(ValueError):
    """Raised when a model cannot be planned or a plan fails validation."""


class _UnionFind:
    """Union-find over tensor ids for 'same channel mask' groups."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def add(self, item: int) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: int) -> int:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


@dataclass
class WeightLayerPlan:
    """Encryption decision for one CONV or FC layer.

    ``row_mask[j]`` is True when kernel row ``j`` (and therefore input
    channel/group ``j``) is encrypted.  ``channel_group`` > 1 only for FC
    layers reading a flattened feature map (``H*W`` features per channel).
    """

    name: str
    kind: str  # "conv" | "fc"
    index: int  # execution order among weight layers
    n_rows: int
    importance: np.ndarray
    row_mask: np.ndarray
    fully_encrypted: bool
    channel_group: int
    in_group: int
    out_group: int
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    weight_shape: tuple[int, ...]
    element_bytes: int = 4

    @property
    def encrypted_row_fraction(self) -> float:
        return float(self.row_mask.mean()) if self.n_rows else 0.0

    @property
    def weight_bytes(self) -> int:
        return int(np.prod(self.weight_shape)) * self.element_bytes

    @property
    def encrypted_weight_bytes(self) -> int:
        # All rows have equal byte size, so the fraction transfers exactly.
        return int(round(self.weight_bytes * self.encrypted_row_fraction))

    @property
    def macs(self) -> int:
        if self.kind == "conv":
            out_c, in_c, k, _ = self.weight_shape
            _, _, h_out, w_out = self.out_shape
            return self.out_shape[0] * out_c * h_out * w_out * in_c * k * k
        out_f, in_f = self.weight_shape
        return self.out_shape[0] * out_f * in_f

    def weight_element_mask(self) -> np.ndarray:
        """Boolean array shaped like the weight; True = encrypted.

        For CONV this broadcasts the row mask over ``weight[:, j, :, :]``;
        for FC each input channel group expands to its features.
        """
        if self.kind == "conv":
            mask = np.zeros(self.weight_shape, dtype=bool)
            mask[:, self.row_mask, :, :] = True
            return mask
        out_f, in_f = self.weight_shape
        per_feature = np.repeat(self.row_mask, self.channel_group)
        return np.broadcast_to(per_feature, (out_f, in_f)).copy()


@dataclass(frozen=True)
class AuxParamPlan:
    """Per-channel auxiliary data (batch-norm affine/statistics) and the
    tensor group whose channel mask governs its encryption.

    The bus carries more than kernel weights: biases and batch-norm
    parameters are per-channel values stored alongside the feature maps
    they normalise.  Under SE they are encrypted exactly when their channel
    is, which the security experiments must model — an adversary snooping a
    SEAL bus learns the plaintext-channel statistics too.
    """

    module_name: str
    group: int
    channels: int


@dataclass
class PoolLayerPlan:
    """Geometry + channel masks of one POOL layer (for the sim traces)."""

    name: str
    index: int
    kernel_size: int
    group: int  # pooling is channel-preserving: in and out share a group
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    element_bytes: int = 4

    @property
    def macs(self) -> int:
        n, c, h_out, w_out = (
            self.out_shape if len(self.out_shape) == 4 else (*self.out_shape, 1, 1)
        )
        return n * c * h_out * w_out * self.kernel_size**2


@dataclass(frozen=True)
class LayerTraffic:
    """Bytes moved over the memory bus by one layer, split by criticality.

    This is the interface between the SEAL planner and the GPU simulator:
    encrypted bytes must pass through the AES engine, plain bytes bypass it.
    """

    name: str
    kind: str  # "conv" | "fc" | "pool"
    macs: int
    weight_bytes_encrypted: int
    weight_bytes_plain: int
    input_bytes_encrypted: int
    input_bytes_plain: int
    output_bytes_encrypted: int
    output_bytes_plain: int
    # GEMM dimensions of the lowered layer (M×K @ K×N); zero for pools.
    gemm_m: int = 0
    gemm_n: int = 0
    gemm_k: int = 0
    element_bytes: int = 4

    @property
    def total_bytes(self) -> int:
        return (
            self.weight_bytes_encrypted
            + self.weight_bytes_plain
            + self.input_bytes_encrypted
            + self.input_bytes_plain
            + self.output_bytes_encrypted
            + self.output_bytes_plain
        )

    @property
    def encrypted_bytes(self) -> int:
        return (
            self.weight_bytes_encrypted
            + self.input_bytes_encrypted
            + self.output_bytes_encrypted
        )

    @property
    def encrypted_fraction(self) -> float:
        total = self.total_bytes
        return self.encrypted_bytes / total if total else 0.0


def _is_leaf(module: Module) -> bool:
    return not any(
        isinstance(v, Module)
        or (isinstance(v, (list, tuple)) and any(isinstance(i, Module) for i in v))
        for v in vars(module).values()
    )


def _at_batch_one(shape: tuple[int, ...]) -> tuple[int, ...]:
    """A probe tensor's shape at batch 1 (the probe batch is empty)."""
    return (1, *shape[1:])


def _channels_of(shape: tuple[int, ...]) -> int:
    if len(shape) >= 2:
        return shape[1]
    raise PlanError(f"cannot infer channels from shape {shape}")


@dataclass
class ModelEncryptionPlan:
    """Complete smart-encryption plan for one model.

    Build with :meth:`build`; query per-layer decisions, per-tensor channel
    masks, traffic splits for the simulator, and weight masks for the
    security experiments.
    """

    model_name: str
    ratio: float
    layers: list[WeightLayerPlan]
    pools: list[PoolLayerPlan]
    group_masks: dict[int, np.ndarray]
    group_channels: dict[int, int]
    input_group: int
    output_group: int
    element_bytes: int = 4
    aux: list[AuxParamPlan] = field(default_factory=list)
    _by_name: dict[str, WeightLayerPlan] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: Module,
        ratio: float = DEFAULT_ENCRYPTION_RATIO,
        *,
        input_shape: tuple[int, ...] = (3, 32, 32),
        boundary_first_convs: int = 2,
        boundary_last_conv: bool = True,
        boundary_last_fc: bool = True,
        element_bytes: int = 4,
    ) -> "ModelEncryptionPlan":
        """Plan smart encryption for ``model`` at encryption ratio ``ratio``.

        ``boundary_*`` parameters reproduce the paper's fully-encrypted
        boundary layers and can be relaxed for ablation studies.
        """
        if not 0.0 <= ratio <= 1.0:
            raise PlanError(f"ratio must be in [0, 1], got {ratio}")

        log, probe, final_out = probe_dataflow(model, input_shape)

        groups = _UnionFind()
        module_names = {id(m): name for name, m in model.named_modules()}
        weight_records: list[tuple[Module, object, object]] = []
        pool_records: list[tuple[Module, object, object]] = []

        for record in log:
            if record[0] == "residual_add":
                _, a, b, merged = record
                groups.union(id(a), id(b))
                groups.union(id(a), id(merged))
                continue
            module, x, out = record
            if not _is_leaf(module):
                continue
            if isinstance(module, (Conv2d, Linear)):
                weight_records.append((module, x, out))
            elif isinstance(module, (MaxPool2d, AvgPool2d, GlobalAvgPool2d)):
                pool_records.append((module, x, out))
                groups.union(id(x), id(out))
            elif isinstance(module, _CHANNEL_PRESERVING):
                groups.union(id(x), id(out))
            else:
                raise PlanError(
                    f"cannot plan unknown leaf module {type(module).__name__}"
                )

        if not weight_records:
            raise PlanError("model contains no CONV or FC layers")

        # Locate boundary layers by execution order.
        conv_positions = [
            i for i, (m, _, _) in enumerate(weight_records) if isinstance(m, Conv2d)
        ]
        fc_positions = [
            i for i, (m, _, _) in enumerate(weight_records) if isinstance(m, Linear)
        ]
        boundary: set[int] = set(conv_positions[:boundary_first_convs])
        if boundary_last_conv and conv_positions:
            boundary.add(conv_positions[-1])
        if boundary_last_fc and fc_positions:
            boundary.add(fc_positions[-1])

        # Flatten grouping: map a flattened tensor group back to channels.
        flatten_factor: dict[int, int] = {}
        for record in log:
            if record[0] == "residual_add":
                continue
            module, x, out = record
            if isinstance(module, Flatten):
                flatten_factor[groups.find(id(out))] = math.prod(x.shape[2:])
            elif isinstance(module, GlobalAvgPool2d):
                flatten_factor[groups.find(id(out))] = 1

        # Build per-layer plans with initial row masks.
        layer_plans: list[WeightLayerPlan] = []
        group_channels: dict[int, int] = {}
        for index, (module, x, out) in enumerate(weight_records):
            name = module_names.get(id(module), f"layer{index}")
            in_group = groups.find(id(x))
            out_group = groups.find(id(out))
            if isinstance(module, Conv2d):
                kind = "conv"
                importance = kernel_row_l1(module.weight.data)
                channel_group = 1
                n_rows = module.in_channels
            else:
                kind = "fc"
                channel_group = flatten_factor.get(in_group, 1)
                if module.in_features % channel_group:
                    channel_group = 1
                importance = fc_row_l1(module.weight.data, channel_group)
                n_rows = module.in_features // channel_group
            if index in boundary:
                row_mask = np.ones(n_rows, dtype=bool)
            else:
                row_mask = select_encrypted_rows(importance, ratio)
            layer_plans.append(
                WeightLayerPlan(
                    name=name,
                    kind=kind,
                    index=index,
                    n_rows=n_rows,
                    importance=importance,
                    row_mask=row_mask,
                    fully_encrypted=index in boundary,
                    channel_group=channel_group,
                    in_group=in_group,
                    out_group=out_group,
                    in_shape=_at_batch_one(x.shape),
                    out_shape=_at_batch_one(out.shape),
                    weight_shape=tuple(module.weight.shape),
                    element_bytes=element_bytes,
                )
            )
            expected = n_rows
            existing = group_channels.get(in_group)
            if existing is not None and existing != expected:
                raise PlanError(
                    f"inconsistent channel counts for group {in_group}: "
                    f"{existing} vs {expected}"
                )
            group_channels[in_group] = expected

        # A feature-map channel is physically either encrypted or not, so
        # all consumers of one tensor group must agree on the channel mask.
        # Where a group has several consumers (ResNet residual chains) we
        # rank channels by the *aggregate* normalized importance over all
        # consumers and take the top ``ratio`` — this keeps the encryption
        # ratio exact while preserving the row ⇔ channel invariant.  Groups
        # consumed by any fully-encrypted boundary layer are fully
        # encrypted (the boundary requirement dominates).
        group_masks: dict[int, np.ndarray] = {}
        consumers_by_group: dict[int, list[WeightLayerPlan]] = {}
        for plan in layer_plans:
            consumers_by_group.setdefault(plan.in_group, []).append(plan)
        for group, consumers in consumers_by_group.items():
            n_rows = consumers[0].n_rows
            if any(p.fully_encrypted for p in consumers):
                group_masks[group] = np.ones(n_rows, dtype=bool)
                continue
            if len(consumers) == 1:
                group_masks[group] = consumers[0].row_mask.copy()
                continue
            aggregate = np.zeros(n_rows, dtype=np.float64)
            for plan in consumers:
                total = plan.importance.sum()
                aggregate += plan.importance / total if total > 0 else plan.importance
            group_masks[group] = select_encrypted_rows(aggregate, ratio)

        # Align every consumer's row mask with its input group's mask.
        for plan in layer_plans:
            plan.row_mask = group_masks[plan.in_group].copy()

        # Groups nobody consumes (the final output) stay plaintext: the
        # inference result leaves the accelerator anyway.
        output_group = groups.find(id(final_out))
        if output_group not in group_masks:
            group_masks[output_group] = np.zeros(
                _channels_of(final_out.shape), dtype=bool
            )
            group_channels[output_group] = _channels_of(final_out.shape)
        input_group = groups.find(id(probe))

        # Record channel counts for producer-side groups too.
        for plan in layer_plans:
            out_channels = _channels_of(plan.out_shape)
            factor = flatten_factor.get(plan.out_group, 1)
            group_channels.setdefault(plan.out_group, out_channels // factor if factor else out_channels)

        # Auxiliary per-channel data: batch-norm parameters/statistics are
        # encrypted exactly when the channel they normalise is.
        aux_plans: list[AuxParamPlan] = []
        for record in log:
            if record[0] == "residual_add":
                continue
            module, x, _out = record
            if isinstance(module, BatchNorm2d):
                group = groups.find(id(x))
                channels = x.shape[1]
                group_channels.setdefault(group, channels)
                aux_plans.append(
                    AuxParamPlan(
                        module_name=module_names.get(id(module), "bn"),
                        group=group,
                        channels=channels,
                    )
                )

        pool_plans: list[PoolLayerPlan] = []
        for index, (module, x, out) in enumerate(pool_records):
            kernel = (
                module.kernel_size
                if isinstance(module, (MaxPool2d, AvgPool2d))
                else x.shape[2]
            )
            pool_plans.append(
                PoolLayerPlan(
                    name=module_names.get(id(module), f"pool{index}"),
                    index=index,
                    kernel_size=kernel,
                    group=groups.find(id(x)),
                    in_shape=_at_batch_one(x.shape),
                    out_shape=_at_batch_one(out.shape),
                    element_bytes=element_bytes,
                )
            )

        plan = cls(
            model_name=getattr(model, "name", type(model).__name__),
            ratio=ratio,
            layers=layer_plans,
            pools=pool_plans,
            group_masks=group_masks,
            group_channels=group_channels,
            input_group=input_group,
            output_group=output_group,
            element_bytes=element_bytes,
            aux=aux_plans,
        )
        plan._by_name = {p.name: p for p in layer_plans}
        plan.validate()
        return plan

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def layer(self, name: str) -> WeightLayerPlan:
        try:
            return self._by_name[name]
        except KeyError:
            raise PlanError(f"no weight layer named {name!r} in plan") from None

    def channel_mask(self, group: int) -> np.ndarray:
        """Encrypted-channel mask for a tensor group (False = plaintext)."""
        mask = self.group_masks.get(group)
        if mask is None:
            channels = self.group_channels.get(group)
            if channels is None:
                raise PlanError(f"unknown tensor group {group}")
            return np.zeros(channels, dtype=bool)
        return mask

    @property
    def realized_ratio(self) -> float:
        """Parameter-weighted fraction of encrypted weights (≥ requested
        ratio because of boundary layers and mask unioning)."""
        total = sum(p.weight_bytes for p in self.layers)
        encrypted = sum(p.encrypted_weight_bytes for p in self.layers)
        return encrypted / total if total else 0.0

    @property
    def selective_layers(self) -> list[WeightLayerPlan]:
        return [p for p in self.layers if not p.fully_encrypted]

    def weight_masks(self) -> dict[str, np.ndarray]:
        """Per-layer boolean weight masks (True = encrypted/unknown to the
        adversary) — the interface the attack experiments consume."""
        return {p.name: p.weight_element_mask() for p in self.layers}

    def aux_channel_masks(self) -> dict[str, np.ndarray]:
        """Per-module channel masks for auxiliary per-channel data.

        Keys are module names (batch-norm layers); a True entry means that
        channel's parameters/statistics are encrypted on the bus.  Bias
        vectors of weight layers follow :meth:`bias_masks` instead.
        """
        masks: dict[str, np.ndarray] = {}
        for aux in self.aux:
            mask = self.channel_mask(aux.group)
            if mask.size != aux.channels:
                # Flattened groups track channel groups, not raw channels;
                # expand to per-channel granularity.
                mask = np.repeat(mask, aux.channels // max(mask.size, 1))
            masks[aux.module_name] = mask
        return masks

    def bias_masks(self) -> dict[str, np.ndarray]:
        """Per-layer bias masks: a bias element is encrypted when its
        output channel is (the channel mask of the layer's output group)."""
        masks: dict[str, np.ndarray] = {}
        for layer in self.layers:
            out_channels = layer.weight_shape[0]
            mask = self.channel_mask(layer.out_group)
            if mask.size != out_channels:
                if out_channels % max(mask.size, 1) == 0:
                    mask = np.repeat(mask, out_channels // mask.size)
                else:
                    mask = np.ones(out_channels, dtype=bool)
            # A fully encrypted layer hides everything it owns.
            if layer.fully_encrypted:
                mask = np.ones(out_channels, dtype=bool)
            masks[layer.name] = mask
        return masks

    # ------------------------------------------------------------------
    # Validation of the paper's security invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the invariants the security argument relies on.

        * row mask length matches the layer's row count;
        * kernel row encrypted ⇔ input channel encrypted (Equations 1–3:
          no mixed plaintext × ciphertext products ever hit the bus);
        * boundary layers are fully encrypted;
        * realized ratio ≥ requested ratio on every selective layer.
        """
        for plan in self.layers:
            if plan.row_mask.shape != (plan.n_rows,):
                raise PlanError(
                    f"{plan.name}: row mask shape {plan.row_mask.shape} "
                    f"!= ({plan.n_rows},)"
                )
            group_mask = self.channel_mask(plan.in_group)
            if not np.array_equal(group_mask, plan.row_mask):
                raise PlanError(
                    f"{plan.name}: row mask diverges from input channel mask"
                )
            if plan.fully_encrypted and not plan.row_mask.all():
                raise PlanError(f"{plan.name}: boundary layer not fully encrypted")
            if not plan.fully_encrypted and self.ratio > 0:
                minimum = int(np.ceil(self.ratio * plan.n_rows))
                if plan.row_mask.sum() < minimum:
                    raise PlanError(
                        f"{plan.name}: {plan.row_mask.sum()} rows encrypted, "
                        f"ratio requires at least {minimum}"
                    )

    # ------------------------------------------------------------------
    # Traffic splitting for the GPU simulator
    # ------------------------------------------------------------------
    def _tensor_bytes(self, shape: tuple[int, ...], group: int) -> tuple[int, int]:
        """(encrypted, plain) bytes for a feature-map tensor in ``group``."""
        total = int(np.prod(shape)) * self.element_bytes
        mask = self.channel_mask(group)
        fraction = float(mask.mean()) if mask.size else 0.0
        encrypted = int(round(total * fraction))
        return encrypted, total - encrypted

    def layer_traffic(
        self, *, include_pools: bool = True, batch: int = 1
    ) -> list[LayerTraffic]:
        """Per-layer memory traffic split into encrypted and bypass bytes.

        Layers are returned in execution order with POOL layers interleaved
        after the CONV layer producing their input (matching the paper's
        Figures 5 and 6 which evaluate CONV and POOL layers separately).
        ``batch`` scales feature-map traffic and MACs for batched inference
        (weights are read once regardless — the reuse batching exists for).
        """
        if batch <= 0:
            raise PlanError("batch must be positive")
        traffic: list[LayerTraffic] = []
        for plan in self.layers:
            in_enc, in_plain = self._tensor_bytes(plan.in_shape, plan.in_group)
            out_enc, out_plain = self._tensor_bytes(plan.out_shape, plan.out_group)
            w_enc = plan.encrypted_weight_bytes
            if plan.kind == "conv":
                out_c, in_c, k, _ = plan.weight_shape
                gemm_m = batch * plan.out_shape[0] * plan.out_shape[2] * plan.out_shape[3]
                gemm_n = out_c
                gemm_k = in_c * k * k
            else:
                gemm_m = batch * plan.out_shape[0]
                gemm_n, gemm_k = plan.weight_shape
            traffic.append(
                LayerTraffic(
                    name=plan.name,
                    kind=plan.kind,
                    macs=plan.macs * batch,
                    weight_bytes_encrypted=w_enc,
                    weight_bytes_plain=plan.weight_bytes - w_enc,
                    input_bytes_encrypted=in_enc * batch,
                    input_bytes_plain=in_plain * batch,
                    output_bytes_encrypted=out_enc * batch,
                    output_bytes_plain=out_plain * batch,
                    gemm_m=gemm_m,
                    gemm_n=gemm_n,
                    gemm_k=gemm_k,
                    element_bytes=self.element_bytes,
                )
            )
        if include_pools:
            for pool in self.pools:
                in_enc, in_plain = self._tensor_bytes(pool.in_shape, pool.group)
                out_enc, out_plain = self._tensor_bytes(pool.out_shape, pool.group)
                traffic.append(
                    LayerTraffic(
                        name=pool.name,
                        kind="pool",
                        macs=pool.macs * batch,
                        weight_bytes_encrypted=0,
                        weight_bytes_plain=0,
                        input_bytes_encrypted=in_enc * batch,
                        input_bytes_plain=in_plain * batch,
                        output_bytes_encrypted=out_enc * batch,
                        output_bytes_plain=out_plain * batch,
                        element_bytes=self.element_bytes,
                    )
                )
        return traffic

    def summary(self) -> str:
        """Human-readable per-layer plan table."""
        lines = [
            f"SEAL plan for {self.model_name} "
            f"(requested ratio {self.ratio:.0%}, realized {self.realized_ratio:.0%})",
            f"{'layer':<32}{'kind':<6}{'rows':>6}{'enc rows':>10}{'boundary':>10}",
        ]
        for plan in self.layers:
            lines.append(
                f"{plan.name:<32}{plan.kind:<6}{plan.n_rows:>6}"
                f"{int(plan.row_mask.sum()):>10}"
                f"{'yes' if plan.fully_encrypted else '':>10}"
            )
        return "\n".join(lines)
