"""Scheme-runner tests: the paper's qualitative ordering must hold."""

import pytest

from repro.core.plan import ModelEncryptionPlan
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model, vgg16
from repro.sim.parallel import run_units
from repro.sim.runner import (
    SCHEMES,
    compare_schemes,
    fully_encrypted,
    layer_unit,
    plaintext_traffic,
    run_layer,
    run_model,
    scheme_config,
    tag_traffic,
)
from repro.sim.workloads import matmul_traffic

from .test_golden_ipc import assert_results_identical


@pytest.fixture(scope="module")
def plan():
    # Full-width VGG-16: the small width-scaled variants are latency-bound
    # rather than bandwidth-bound, which hides the encryption bottleneck.
    set_init_rng(0)
    return ModelEncryptionPlan.build(vgg16(), 0.5)


@pytest.fixture(scope="module")
def model_results(plan):
    return {scheme: run_model(plan, scheme) for scheme in SCHEMES}


class TestSchemeConfig:
    def test_all_five_schemes(self):
        for scheme in SCHEMES:
            config = scheme_config(scheme)
            assert config.encryption.label() == scheme

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_config("XTS")


class TestTrafficTransforms:
    def test_fully_encrypted_moves_all_bytes(self, plan):
        traffic = plan.layer_traffic()[3]
        full = fully_encrypted(traffic)
        assert full.encrypted_fraction == 1.0
        assert full.total_bytes == traffic.total_bytes
        assert full.macs == traffic.macs

    def test_plaintext_moves_all_bytes(self, plan):
        traffic = plan.layer_traffic()[3]
        plain = plaintext_traffic(traffic)
        assert plain.encrypted_fraction == 0.0
        assert plain.total_bytes == traffic.total_bytes

    def test_gemm_dims_preserved(self, plan):
        traffic = plan.layer_traffic()[0]
        assert fully_encrypted(traffic).gemm_k == traffic.gemm_k
        assert plaintext_traffic(traffic).gemm_m == traffic.gemm_m


class TestLayerRuns:
    def test_matmul_encryption_ordering(self):
        traffic = matmul_traffic(256, 256, 256)
        baseline = run_layer(traffic, "Baseline")
        direct = run_layer(traffic, "Direct")
        assert direct.ipc < baseline.ipc

    def test_layer_result_label(self, plan):
        traffic = plan.layer_traffic()[0]
        result = run_layer(traffic, "SEAL-D")
        assert "SEAL-D" in result.label


class TestPaperShapes:
    """The qualitative results of Figures 7 and 8 (shape, not absolutes)."""

    def test_full_encryption_degrades_ipc(self, model_results):
        base = model_results["Baseline"].ipc
        assert model_results["Direct"].ipc < base * 0.8
        assert model_results["Counter"].ipc < base * 0.8

    def test_seal_beats_full_encryption(self, model_results):
        assert model_results["SEAL-D"].ipc > model_results["Direct"].ipc
        assert model_results["SEAL-C"].ipc > model_results["Counter"].ipc

    def test_seal_speedup_in_paper_range(self, model_results):
        # Paper: SEAL improves IPC 1.34-1.4x over Direct/Counter; allow a
        # generous band around it for the simulated substrate.
        speedup_d = model_results["SEAL-D"].ipc / model_results["Direct"].ipc
        speedup_c = model_results["SEAL-C"].ipc / model_results["Counter"].ipc
        assert 1.15 <= speedup_d <= 1.8
        assert 1.15 <= speedup_c <= 1.8

    def test_seal_does_not_beat_baseline(self, model_results):
        assert model_results["SEAL-D"].ipc <= model_results["Baseline"].ipc * 1.01
        assert model_results["SEAL-C"].ipc <= model_results["Baseline"].ipc * 1.01

    def test_latency_ordering(self, model_results):
        base = model_results["Baseline"].cycles
        assert model_results["Direct"].cycles > base
        assert model_results["SEAL-D"].cycles < model_results["Direct"].cycles
        assert model_results["SEAL-C"].cycles < model_results["Counter"].cycles

    def test_counter_close_to_direct(self, model_results):
        # Paper: counter mode does not outperform direct on GPUs.
        ratio = model_results["Counter"].cycles / model_results["Direct"].cycles
        assert 0.85 <= ratio <= 1.15

    def test_latency_seconds(self, model_results):
        latency = model_results["Baseline"].latency_seconds()
        assert latency == pytest.approx(
            model_results["Baseline"].cycles / 0.7e9, rel=1e-9
        )

    def test_layer_results_cover_all_layers(self, plan, model_results):
        expected = len(plan.layer_traffic())
        assert len(model_results["Baseline"].layer_results) == expected

    def test_encrypted_bytes_ordering(self, model_results):
        assert model_results["Baseline"].encrypted_bytes == 0
        assert (
            0
            < model_results["SEAL-D"].encrypted_bytes
            < model_results["Direct"].encrypted_bytes
        )


class TestRunModelFromModule:
    def test_accepts_model_directly(self):
        set_init_rng(0)
        model = vgg16(width_scale=0.125)
        result = run_model(model, "Baseline", ratio=0.5)
        assert result.cycles > 0
        assert result.model_name.startswith("VGG")


class TestCompareSchemesSharedLowering:
    """compare_schemes lowers the model once and tags the shared records
    per scheme, instead of re-lowering for every scheme."""

    @pytest.fixture()
    def mlp_plan(self):
        set_init_rng(0)
        return ModelEncryptionPlan.build(
            build_model("mlp"), 0.5, input_shape=(3, 32, 32)
        )

    def test_layer_traffic_lowered_exactly_once(self, mlp_plan, monkeypatch):
        calls = []
        original = ModelEncryptionPlan.layer_traffic

        def counting(self, **kwargs):
            calls.append(kwargs)
            return original(self, **kwargs)

        monkeypatch.setattr(ModelEncryptionPlan, "layer_traffic", counting)
        compare_schemes(mlp_plan, SCHEMES)
        assert len(calls) == 1

    def test_schemes_see_identical_traffic_records(self, mlp_plan, monkeypatch):
        captured = []
        from repro.sim import runner as runner_module

        original = runner_module.run_units

        def capturing(units, **kwargs):
            captured.extend(units)
            return original(units, **kwargs)

        monkeypatch.setattr(runner_module, "run_units", capturing)
        compare_schemes(mlp_plan, SCHEMES)

        base_traffics = mlp_plan.layer_traffic()
        n = len(base_traffics)
        assert len(captured) == len(SCHEMES) * n
        by_scheme = {
            scheme: captured[i * n : (i + 1) * n]
            for i, scheme in enumerate(SCHEMES)
        }
        for scheme in SCHEMES:
            for base, unit in zip(base_traffics, by_scheme[scheme]):
                assert unit.traffic == tag_traffic(
                    base, scheme_config(scheme).encryption
                )
        # SEAL schemes keep the plan's split untouched, so both must carry
        # the *same* underlying record the single lowering produced.
        for seal_d, seal_c in zip(by_scheme["SEAL-D"], by_scheme["SEAL-C"]):
            assert seal_d.traffic is seal_c.traffic

    def test_each_scheme_config_resolved_once(self, mlp_plan, monkeypatch):
        from repro.sim import runner as runner_module

        expected = {
            scheme: run_units(
                [layer_unit(traffic, scheme) for traffic in mlp_plan.layer_traffic()],
                cache=False,
            )
            for scheme in SCHEMES
        }
        calls = []
        original = runner_module.scheme_config

        def counting(name, **kwargs):
            calls.append(name)
            return original(name, **kwargs)

        monkeypatch.setattr(runner_module, "scheme_config", counting)
        results = compare_schemes(mlp_plan, SCHEMES, cache=False)
        assert calls == list(SCHEMES)
        for scheme in SCHEMES:
            got = results[scheme].layer_results
            assert len(got) == len(expected[scheme])
            for result, reference in zip(got, expected[scheme]):
                assert_results_identical(result, reference)


class TestStageTimers:
    """Each simulated unit records one ``sim.compile`` and ``sim.kernel``
    timing, and one ``sim.lower`` timing or ``sim.lower.reused`` count;
    deduplicated units record none."""

    def test_one_timing_per_simulated_unit(self):
        from repro.obs.metrics import MetricsRegistry, set_metrics
        from repro.sim.parallel import run_units
        from repro.sim.runner import layer_unit

        units = [
            layer_unit(matmul_traffic(64, 64, 64), scheme)
            for scheme in ("Baseline", "SEAL-C", "Baseline", "Counter", "SEAL-C")
        ]
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            run_units(units, cache=False)
        finally:
            set_metrics(previous)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["sim.cache.misses"] == 3
        assert snapshot["counters"]["sim.kernel_runs"] == 3
        for stage in ("sim.compile", "sim.kernel"):
            assert snapshot["timers"][stage]["count"] == 3, stage
        # matmul_traffic is all critical, so SEAL-C and Counter tag it
        # alike and share one stream set.
        lowered = snapshot["timers"]["sim.lower"]["count"]
        reused = snapshot["counters"]["sim.lower.reused"]
        assert lowered + reused == snapshot["counters"]["sim.cache.misses"]
        assert (lowered, reused) == (2, 1)

    def test_same_shape_layers_with_different_names_lower_once(self):
        from dataclasses import replace

        from repro.obs.metrics import MetricsRegistry

        traffic = matmul_traffic(64, 64, 64)
        # The name does not reach the streams: two same-shape layers
        # under engines of one geometry share a stream set.
        units = [
            layer_unit(replace(traffic, name="layers.0"), "Direct"),
            layer_unit(replace(traffic, name="layers.1"), "Counter"),
        ]
        metrics = MetricsRegistry()
        shared = run_units(units, cache=False, metrics=metrics)
        assert metrics.timers["sim.lower"].count == 1
        assert metrics.counter("sim.lower.reused") == 1
        for unit, result in zip(units, shared):
            (alone,) = run_units([unit], cache=False)
            assert_results_identical(result, alone)
