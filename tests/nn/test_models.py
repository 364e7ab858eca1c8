"""Model-zoo tests: architectures match the paper's layer counts."""

import numpy as np
import pytest

from repro.nn import models as models_module
from repro.nn.layers import Conv2d, Linear
from repro.nn.models import (
    MODEL_BUILDERS,
    LayerGeometry,
    build_model,
    model_geometry,
    probe_shapes,
    resnet18,
    resnet34,
    vgg16,
)
from repro.nn.tensor import Tensor, no_grad


def count(model, cls):
    return sum(1 for m in model.modules() if isinstance(m, cls))


class TestArchitectures:
    def test_vgg16_layer_counts(self):
        # Paper: "13/16 for VGG-16" CONV layers, the rest FC.
        model = vgg16()
        assert count(model, Conv2d) == 13
        assert count(model, Linear) == 3

    def test_resnet18_weight_layer_count(self):
        # Paper: "17/18 for ResNet-18" — 17 CONV + 1 FC weight layers
        # (projection shortcuts add 3 more 1x1 convs, as in the original).
        model = resnet18()
        main_convs = [
            m for name, m in model.named_modules()
            if isinstance(m, Conv2d) and "shortcut" not in name
        ]
        assert len(main_convs) == 17
        assert count(model, Linear) == 1

    def test_resnet34_weight_layer_count(self):
        model = resnet34()
        main_convs = [
            m for name, m in model.named_modules()
            if isinstance(m, Conv2d) and "shortcut" not in name
        ]
        assert len(main_convs) == 33
        assert count(model, Linear) == 1

    @pytest.mark.parametrize("builder", [vgg16, resnet18, resnet34])
    def test_forward_shape(self, builder):
        model = builder(width_scale=0.125)
        with no_grad():
            out = model(Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)))
        assert out.shape == (2, 10)

    def test_width_scaling_shrinks_parameters(self):
        full = vgg16().num_parameters()
        half = vgg16(width_scale=0.5).num_parameters()
        assert half < full / 2

    def test_num_classes(self):
        model = resnet18(num_classes=7, width_scale=0.125)
        with no_grad():
            out = model(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
        assert out.shape == (1, 7)

    def test_vgg16_224_input(self):
        model = vgg16(width_scale=0.125, input_size=224)
        with no_grad():
            out = model(Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32)))
        assert out.shape == (1, 10)

    def test_vgg16_rejects_bad_input_size(self):
        with pytest.raises(ValueError, match="multiple of 32"):
            vgg16(input_size=100)

    def test_model_names(self):
        assert getattr(vgg16(), "name") == "VGG-16"
        assert "0.25" in getattr(resnet34(width_scale=0.25), "name")

    def test_build_model_aliases(self):
        assert getattr(build_model("VGG-16", width_scale=0.125), "name").startswith("VGG")
        assert getattr(build_model("resnet_18", width_scale=0.125), "name").startswith("ResNet-18")

    def test_build_model_unknown(self):
        with pytest.raises(KeyError):
            build_model("alexnet")


class TestGeometry:
    def test_vgg16_geometry_counts(self):
        geometry = model_geometry(vgg16())
        kinds = [g.kind for g in geometry]
        assert kinds.count("conv") == 13
        assert kinds.count("fc") == 3
        assert kinds.count("pool") == 5

    def test_vgg16_conv_channels_progression(self):
        geometry = [g for g in model_geometry(vgg16()) if g.kind == "conv"]
        assert geometry[0].in_channels == 3
        assert geometry[0].out_channels == 64
        assert geometry[-1].out_channels == 512

    def test_spatial_sizes_halve_at_pools(self):
        geometry = [g for g in model_geometry(vgg16()) if g.kind == "pool"]
        heights = [g.in_height for g in geometry]
        assert heights == [32, 16, 8, 4, 2]

    def test_macs_formula_conv(self):
        g = LayerGeometry(
            name="c", kind="conv", in_channels=3, out_channels=8, kernel_size=3,
            stride=1, in_height=8, in_width=8, out_height=8, out_width=8,
        )
        assert g.macs == 8 * 8 * 8 * 3 * 9

    def test_bytes_accounting(self):
        g = LayerGeometry(
            name="c", kind="conv", in_channels=4, out_channels=8, kernel_size=3,
            stride=1, in_height=8, in_width=8, out_height=8, out_width=8,
        )
        assert g.weight_bytes == 8 * 4 * 9 * 4
        assert g.input_bytes == 4 * 8 * 8 * 4
        assert g.output_bytes == 8 * 8 * 8 * 4

    def test_fc_geometry(self):
        geometry = [g for g in model_geometry(vgg16()) if g.kind == "fc"]
        assert geometry[-1].out_channels == 10
        assert geometry[0].weight_count == geometry[0].in_channels * geometry[0].out_channels

    def test_probe_shapes_populates(self):
        model = resnet18(width_scale=0.125)
        probe_shapes(model)
        assert model.stem_conv.last_output_shape == (0, 8, 32, 32)

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_geometry_equals_the_batch_one_forward_pass(self, name, monkeypatch):
        """The empty-batch probe yields the geometry the batch-1 forward
        pass ``probe_shapes`` ran before did (that pass, frozen here)."""

        def batch_one_probe(model, input_shape=(3, 32, 32)):
            model.eval()
            with no_grad():
                model(Tensor(np.zeros((1, *input_shape), dtype=np.float32)))

        model = build_model(name)
        geometry = model_geometry(model, batch=2)
        monkeypatch.setattr(models_module, "probe_shapes", batch_one_probe)
        assert model_geometry(model, batch=2) == geometry
        assert "fc" in {g.kind for g in geometry}

    def test_resnet_geometry_includes_gap(self):
        geometry = model_geometry(resnet18(width_scale=0.125))
        pools = [g for g in geometry if g.kind == "pool"]
        assert len(pools) == 1
        assert pools[0].out_height == 1
