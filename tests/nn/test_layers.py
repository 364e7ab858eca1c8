"""Module-system tests: parameter registration, modes, containers, blocks."""

import warnings

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    probe_dataflow,
    set_init_rng,
    trace_dataflow,
)
from repro.nn.tensor import Tensor, no_grad


def small_input(channels=3, size=8, batch=2):
    return Tensor(np.random.default_rng(0).normal(size=(batch, channels, size, size)))


class TestParameterRegistration:
    def test_conv_parameters(self):
        conv = Conv2d(3, 8, 3, bias=True)
        names = dict(conv.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert names["weight"].shape == (8, 3, 3, 3)

    def test_conv_no_bias(self):
        conv = Conv2d(3, 8, 3, bias=False)
        assert {n for n, _ in conv.named_parameters()} == {"weight"}

    def test_sequential_nested_names(self):
        model = Sequential(Conv2d(1, 2, 3), Sequential(Linear(4, 5)))
        names = {n for n, _ in model.named_parameters()}
        assert "layers.0.weight" in names
        assert "layers.1.layers.0.weight" in names

    def test_num_parameters(self):
        layer = Linear(10, 4)
        assert layer.num_parameters() == 10 * 4 + 4

    def test_modules_iteration_includes_nested(self):
        block = BasicBlock(4, 8, stride=2)
        kinds = [type(m).__name__ for m in block.modules()]
        assert "Conv2d" in kinds and "Sequential" in kinds

    def test_named_modules_paths(self):
        block = BasicBlock(4, 4)
        names = dict(block.named_modules())
        assert "conv1" in names
        assert "" in names  # the root


class TestTrainEvalMode:
    def test_mode_propagates(self):
        model = Sequential(Conv2d(1, 2, 3), BatchNorm2d(2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_batchnorm_behaviour_differs_by_mode(self):
        bn = BatchNorm2d(2)
        x = small_input(channels=2)
        bn.train()
        out_train = bn(x).data.copy()
        bn.eval()
        out_eval = bn(x).data.copy()
        assert not np.allclose(out_train, out_eval)

    def test_zero_grad_clears(self):
        layer = Linear(3, 2)
        out = layer(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert all(p.grad is not None for p in layer.parameters())
        layer.zero_grad()
        assert all(p.grad is None for p in layer.parameters())


class TestShapes:
    def test_conv_shape(self):
        conv = Conv2d(3, 16, 3, stride=2, padding=1)
        out = conv(small_input())
        assert out.shape == (2, 16, 4, 4)

    def test_linear_shape(self):
        assert Linear(8, 3)(Tensor(np.ones((5, 8)))).shape == (5, 3)

    def test_maxpool_shape(self):
        assert MaxPool2d(2)(small_input()).shape == (2, 3, 4, 4)

    def test_gap_shape(self):
        assert GlobalAvgPool2d()(small_input()).shape == (2, 3)

    def test_flatten_shape(self):
        assert Flatten()(small_input()).shape == (2, 3 * 64)

    def test_identity_passthrough(self):
        x = small_input()
        assert Identity()(x).data is x.data

    def test_relu_module(self):
        out = ReLU()(Tensor(np.array([[-1.0, 2.0]])))
        np.testing.assert_allclose(out.data, [[0.0, 2.0]])

    def test_shape_recording(self):
        conv = Conv2d(3, 4, 3, padding=1)
        conv(small_input())
        assert conv.last_input_shape == (2, 3, 8, 8)
        assert conv.last_output_shape == (2, 4, 8, 8)


class TestEmptyBatch:
    """The planner's probe: an empty batch maps to the right ``(0, ...)``
    shape through every layer, with no NumPy warning on the way."""

    @pytest.mark.parametrize(
        "module, in_shape, out_shape",
        [
            (Conv2d(3, 16, 3, stride=2, padding=1), (0, 3, 8, 8), (0, 16, 4, 4)),
            (Conv2d(3, 4, 1, bias=False), (0, 3, 5, 5), (0, 4, 5, 5)),
            (BatchNorm2d(3).eval(), (0, 3, 8, 8), (0, 3, 8, 8)),
            (MaxPool2d(2), (0, 3, 8, 8), (0, 3, 4, 4)),
            (AvgPool2d(3, stride=2), (0, 3, 9, 9), (0, 3, 4, 4)),
            (GlobalAvgPool2d(), (0, 3, 8, 8), (0, 3)),
            (Flatten(), (0, 3, 8, 8), (0, 192)),
            (Flatten(), (0, 7), (0, 7)),
            (Linear(8, 3), (0, 8), (0, 3)),
            (ReLU(), (0, 3, 8, 8), (0, 3, 8, 8)),
            (BasicBlock(4, 8, stride=2).eval(), (0, 4, 8, 8), (0, 8, 4, 4)),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Module) else None,
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shapes_without_warnings(self, module, in_shape, out_shape, dtype):
        with warnings.catch_warnings(), no_grad():
            warnings.simplefilter("error")
            out = module(Tensor(np.zeros(in_shape, dtype=dtype)))
        assert out.shape == out_shape
        assert module.last_input_shape == in_shape
        assert module.last_output_shape == out_shape

    def test_flatten_matches_the_inferred_reshape(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4, 5, 6)), requires_grad=True)
        out = Flatten()(x)
        assert out.shape == (3, 120)
        np.testing.assert_array_equal(out.data, x.data.reshape(3, -1))
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(x.shape))

    def test_probe_dataflow_traces_an_empty_batch(self):
        model = Sequential(Conv2d(3, 4, 3, padding=1), BatchNorm2d(4), ReLU(), Flatten())
        model.train()
        log, probe, output = probe_dataflow(model, (3, 8, 8))
        assert probe.shape == (0, 3, 8, 8)
        assert output.shape == (0, 4 * 64)
        assert [type(record[0]).__name__ for record in log] == [
            "Conv2d", "BatchNorm2d", "ReLU", "Flatten", "Sequential"
        ]
        assert log[0][1] is probe and log[-1][2] is output
        assert not model.training  # batch norm must not average an empty batch
        np.testing.assert_array_equal(model.layers[1].running_mean, np.zeros(4))


class TestSequential:
    def test_order_and_len(self):
        model = Sequential(Conv2d(1, 2, 3), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)

    def test_append(self):
        model = Sequential()
        model.append(Linear(2, 2))
        assert len(model) == 1

    def test_iteration(self):
        model = Sequential(ReLU(), ReLU())
        assert sum(1 for _ in model) == 2


class TestBasicBlock:
    def test_identity_shortcut_when_shapes_match(self):
        block = BasicBlock(8, 8, stride=1)
        assert isinstance(block.shortcut, Identity)

    def test_projection_shortcut_on_stride(self):
        block = BasicBlock(8, 16, stride=2)
        assert isinstance(block.shortcut, Sequential)

    def test_output_shape(self):
        block = BasicBlock(3, 6, stride=2)
        assert block(small_input()).shape == (2, 6, 4, 4)

    def test_residual_add_is_traced(self):
        block = BasicBlock(4, 4)
        x = small_input(channels=4)
        with trace_dataflow() as log:
            block(x)
        adds = [r for r in log if r[0] == "residual_add"]
        assert len(adds) == 1

    def test_gradients_flow_through_both_branches(self):
        block = BasicBlock(4, 8, stride=2)
        x = Tensor(
            np.random.default_rng(1).normal(size=(1, 4, 8, 8)), requires_grad=True
        )
        block(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in block.parameters())


class TestStateDict:
    def test_roundtrip(self):
        set_init_rng(0)
        a = Sequential(Conv2d(1, 2, 3, bias=False), BatchNorm2d(2), Linear(2, 2))
        set_init_rng(99)
        b = Sequential(Conv2d(1, 2, 3, bias=False), BatchNorm2d(2), Linear(2, 2))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_includes_running_stats(self):
        bn = BatchNorm2d(3)
        bn.running_mean[:] = 7.0
        state = Sequential(bn).state_dict()
        assert any("running_mean" in k for k in state)

    def test_shape_mismatch_raises(self):
        a = Linear(3, 2)
        state = {"weight": np.zeros((5, 5))}
        with pytest.raises(ValueError, match="shape mismatch"):
            a.load_state_dict(state)

    def test_state_dict_is_a_copy(self):
        layer = Linear(2, 2)
        state = layer.state_dict()
        state["weight"][...] = 99.0
        assert not np.allclose(layer.weight.data, 99.0)


class TestTracing:
    def test_trace_collects_leaf_calls(self):
        model = Sequential(Conv2d(3, 4, 3, padding=1), ReLU(), MaxPool2d(2))
        with trace_dataflow() as log:
            model(small_input())
        leaf_types = [type(r[0]).__name__ for r in log if r[0] != "residual_add"]
        assert "Conv2d" in leaf_types and "ReLU" in leaf_types

    def test_trace_restores_previous_state(self):
        with trace_dataflow():
            pass
        # No crash and no lingering trace: calling a module must not append.
        conv = Conv2d(1, 1, 1)
        conv(Tensor(np.zeros((1, 1, 2, 2))))  # would raise if _TRACE_LOG stale

    def test_nested_trace(self):
        conv = Conv2d(1, 1, 1)
        with trace_dataflow() as outer:
            conv(Tensor(np.zeros((1, 1, 2, 2))))
            with trace_dataflow() as inner:
                conv(Tensor(np.zeros((1, 1, 2, 2))))
            assert len(inner) == 1
        assert len(outer) == 1

    def test_kernel_matrix_view(self):
        conv = Conv2d(3, 5, 3)
        km = conv.kernel_matrix()
        assert km.shape == (3, 5, 3, 3)
        np.testing.assert_allclose(km[1, 2], conv.weight.data[2, 1])


class TestModuleBase:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor(np.zeros(1)))
