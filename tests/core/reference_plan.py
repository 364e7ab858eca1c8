"""Frozen plan builder: the differential reference for the empty-batch probe.

These are :meth:`ModelEncryptionPlan.build` and :func:`kernel_row_l1` as
they were before the planner traced an empty batch: a real batch-1
forward pass at full width discovers the dataflow, shapes are recorded as
that pass saw them, and the ℓ1 importance reduces axes ``(0, 2, 3)`` of
the weight at once.  They are kept verbatim (``build_reference`` takes the
class as its first argument, in place of the ``@classmethod``) as the
oracle ``test_plan_equivalence.py`` pins the current planner against, and
as the "before" side of ``benchmarks/bench_sim_throughput.py``.  Do not
optimise them.
"""

from __future__ import annotations

import numpy as np

from repro.core.importance import fc_row_l1, select_encrypted_rows
from repro.core.plan import (
    DEFAULT_ENCRYPTION_RATIO,
    AuxParamPlan,
    ModelEncryptionPlan,
    PlanError,
    PoolLayerPlan,
    WeightLayerPlan,
)
from repro.nn.layers import (
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
    trace_dataflow,
)
from repro.nn.tensor import Tensor, no_grad

_CHANNEL_PRESERVING = (BatchNorm2d, ReLU, Identity, MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten)


def kernel_row_l1(weight: np.ndarray) -> np.ndarray:
    """Per-kernel-row ℓ1-norms of a CONV weight.

    Parameters
    ----------
    weight:
        Array of shape ``(out_channels, in_channels, k, k)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(in_channels,)``; entry ``j`` is ``||weight[:, j]||_1``.
    """
    weight = np.asarray(weight)
    if weight.ndim != 4:
        raise ValueError(f"CONV weight must be 4-D, got shape {weight.shape}")
    return np.abs(weight).sum(axis=(0, 2, 3))


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


def _is_leaf(module: Module) -> bool:
    return not any(
        isinstance(v, Module)
        or (isinstance(v, (list, tuple)) and any(isinstance(i, Module) for i in v))
        for v in vars(module).values()
    )


def _channels_of(shape: tuple[int, ...]) -> int:
    if len(shape) >= 2:
        return shape[1]
    raise PlanError(f"cannot infer channels from shape {shape}")


def build_reference(
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

    model.eval()
    with trace_dataflow() as log, no_grad():
        probe = Tensor(np.zeros((1, *input_shape), dtype=np.float32))
        final_out = model(probe)

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
            n, *rest = x.shape
            channels = rest[0]
            factor = int(np.prod(rest[1:])) if len(rest) > 1 else 1
            flatten_factor[groups.find(id(out))] = factor
            _ = channels
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
                in_shape=tuple(x.shape),
                out_shape=tuple(out.shape),
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
                in_shape=tuple(x.shape),
                out_shape=tuple(out.shape),
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
