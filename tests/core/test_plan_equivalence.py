"""Differential suite: the empty-batch planner against the frozen builder.

``ModelEncryptionPlan.build`` learns the dataflow from a traced ``(0, C,
H, W)`` probe and records shapes at batch 1; the frozen builder in
``reference_plan.py`` ran a real batch-1 forward pass.  Every model the
zoo builds, at full and reduced width, ratios from 0.1 to 0.9 and
three weight seeds must give equal plans: row masks, shapes, traffic
records (pools included), weight/bias/auxiliary masks, the summary table
and the tensor-group structure.  The one-pass ℓ1 importance must match
the frozen reduction within 1e-12 relative and rank rows identically.
"""

import numpy as np
import pytest

from repro.core.importance import kernel_row_l1, rank_rows
from repro.core.plan import ModelEncryptionPlan
from repro.nn.layers import Conv2d, set_init_rng
from repro.nn.models import MODEL_BUILDERS, build_model

from . import reference_plan
from .reference_plan import build_reference

WIDTHS = (1.0, 0.125, 0.0625)
SEEDS = (0, 1, 2)
RATIOS = tuple(round(0.1 * step, 1) for step in range(1, 10))
#: The frozen builder's batch-1 forward pass costs ~0.4 s per full-width
#: ResNet-34 plan, so full width runs the ends and the middle of the grid;
#: the ratio only moves row masks, which the reduced widths cover fully.
FULL_WIDTH_RATIOS = (0.1, 0.5, 0.9)


def _group_map(plan: ModelEncryptionPlan, reference: ModelEncryptionPlan) -> dict:
    """Pair the two plans' tensor groups (ids of probe tensors, which
    differ run to run) by where they occur; the pairing must be 1:1."""
    pairs = [(plan.input_group, reference.input_group), (plan.output_group, reference.output_group)]
    for ours, theirs in zip(plan.layers, reference.layers):
        pairs += [(ours.in_group, theirs.in_group), (ours.out_group, theirs.out_group)]
    pairs += [(ours.group, theirs.group) for ours, theirs in zip(plan.pools, reference.pools)]
    pairs += [(ours.group, theirs.group) for ours, theirs in zip(plan.aux, reference.aux)]
    mapping = dict(pairs)
    assert len(mapping) == len(set(mapping.values())) == len(set(pairs))
    return mapping


def _assert_masks_equal(ours: dict, theirs: dict) -> None:
    assert list(ours) == list(theirs)
    for name in ours:
        assert np.array_equal(ours[name], theirs[name]), name


def assert_plans_equal(plan: ModelEncryptionPlan, reference: ModelEncryptionPlan) -> None:
    assert (plan.model_name, plan.ratio, plan.element_bytes) == (
        reference.model_name, reference.ratio, reference.element_bytes
    )
    assert len(plan.layers) == len(reference.layers)
    for ours, theirs in zip(plan.layers, reference.layers):
        assert (
            ours.name, ours.kind, ours.index, ours.n_rows, ours.fully_encrypted,
            ours.channel_group, ours.in_shape, ours.out_shape, ours.weight_shape,
        ) == (
            theirs.name, theirs.kind, theirs.index, theirs.n_rows, theirs.fully_encrypted,
            theirs.channel_group, theirs.in_shape, theirs.out_shape, theirs.weight_shape,
        )
        assert np.array_equal(ours.row_mask, theirs.row_mask), ours.name
        np.testing.assert_allclose(ours.importance, theirs.importance, rtol=1e-12, atol=0)
    assert [
        (p.name, p.index, p.kernel_size, p.in_shape, p.out_shape) for p in plan.pools
    ] == [(p.name, p.index, p.kernel_size, p.in_shape, p.out_shape) for p in reference.pools]
    assert [(a.module_name, a.channels) for a in plan.aux] == [
        (a.module_name, a.channels) for a in reference.aux
    ]
    mapping = _group_map(plan, reference)
    assert {mapping[g]: c for g, c in plan.group_channels.items()} == reference.group_channels
    assert set(mapping[g] for g in plan.group_masks) == set(reference.group_masks)
    for group, mask in plan.group_masks.items():
        assert np.array_equal(mask, reference.group_masks[mapping[group]])
    assert plan.layer_traffic() == reference.layer_traffic()
    assert plan.layer_traffic(include_pools=False, batch=4) == reference.layer_traffic(
        include_pools=False, batch=4
    )
    _assert_masks_equal(plan.weight_masks(), reference.weight_masks())
    _assert_masks_equal(plan.bias_masks(), reference.bias_masks())
    _assert_masks_equal(plan.aux_channel_masks(), reference.aux_channel_masks())
    assert plan.realized_ratio == reference.realized_ratio
    assert plan.summary() == reference.summary()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_plans_equal_the_frozen_builder_over_the_ratio_grid(name, width, seed):
    set_init_rng(seed)
    model = build_model(name, width_scale=width)
    for ratio in FULL_WIDTH_RATIOS if width == 1.0 else RATIOS:
        assert_plans_equal(
            ModelEncryptionPlan.build(model, ratio),
            build_reference(ModelEncryptionPlan, model, ratio),
        )


def test_boundary_ablation_plans_equal_the_frozen_builder():
    set_init_rng(3)
    model = build_model("resnet18", width_scale=0.125)
    options = dict(boundary_first_convs=0, boundary_last_conv=False, boundary_last_fc=False)
    assert_plans_equal(
        ModelEncryptionPlan.build(model, 0.3, **options),
        build_reference(ModelEncryptionPlan, model, 0.3, **options),
    )


def test_imagenet_geometry_plan_equals_the_frozen_builder():
    set_init_rng(0)
    model = build_model("vgg16", width_scale=0.0625, input_size=64)
    assert_plans_equal(
        ModelEncryptionPlan.build(model, 0.5, input_shape=(3, 64, 64)),
        build_reference(ModelEncryptionPlan, model, 0.5, input_shape=(3, 64, 64)),
    )


class TestKernelRowL1:
    @pytest.mark.parametrize("name", ["vgg16", "resnet18", "resnet34"])
    def test_full_width_weights_match_the_frozen_reduction(self, name):
        set_init_rng(1)
        convs = [m for m in build_model(name).modules() if isinstance(m, Conv2d)]
        for conv in convs:
            ours = kernel_row_l1(conv.weight.data)
            theirs = reference_plan.kernel_row_l1(conv.weight.data)
            np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0)
            assert np.array_equal(rank_rows(ours), rank_rows(theirs))

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1, 1), (7, 3, 1, 1), (16, 5, 3, 3), (3, 16, 5, 5), (4, 2, 3, 2)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_shapes_and_dtypes(self, shape, dtype):
        weight = np.random.default_rng(7).normal(size=shape).astype(dtype)
        ours = kernel_row_l1(weight)
        theirs = reference_plan.kernel_row_l1(weight)
        assert ours.shape == theirs.shape == (shape[1],)
        assert ours.dtype == theirs.dtype
        rtol = 1e-12 if dtype == np.float64 else 1e-6
        np.testing.assert_allclose(ours, theirs, rtol=rtol, atol=0)

    def test_non_contiguous_weight(self):
        weight = np.random.default_rng(8).normal(size=(6, 4, 3, 3)).transpose(1, 0, 2, 3)
        np.testing.assert_allclose(
            kernel_row_l1(weight), reference_plan.kernel_row_l1(weight), rtol=1e-12, atol=0
        )

    def test_empty_rows(self):
        assert kernel_row_l1(np.zeros((0, 3, 3, 3))).tolist() == [0.0, 0.0, 0.0]
        assert kernel_row_l1(np.zeros((4, 0, 3, 3))).shape == (0,)
