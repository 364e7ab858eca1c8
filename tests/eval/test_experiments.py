"""Experiment entry-point tests (small parameterizations of each figure)."""

import math

import pytest

from repro.attacks.sweep import SweepResult, plan_units, run_sweep
from repro.eval.experiments import (
    fig1_straightforward,
    fig3_fig4_security,
    fig5_conv_layers,
    fig6_pool_layers,
    fig7_overall_ipc,
    fig8_latency,
    table1_engines,
)
from repro.obs.metrics import MetricsRegistry
from tests.attacks.test_sweep import tiny_config


class TestTable1:
    def test_five_rows(self):
        result = table1_engines()
        assert len(result.rows) == 5

    def test_report_mentions_every_implementation(self):
        report = table1_engines().report()
        for name in ("Morioka", "Mathew", "Ensilica", "Sayilar", "Liu"):
            assert name in report


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        # Smaller matmul than the recorded run, same structure.
        return fig1_straightforward(
            matmul_shape=(512, 512, 512), cache_sizes_kb=(24, 96)
        )

    def test_encryption_degrades_ipc(self, result):
        assert result.ipc["Direct"] < result.ipc["Baseline"]
        for key in result.ipc:
            if key.startswith("Ctr-"):
                assert result.ipc[key] < result.ipc["Baseline"]

    def test_degradation_magnitude(self, result):
        # Paper: 45-54% IPC reduction; assert a generous band.
        ratio = result.ipc["Direct"] / result.ipc["Baseline"]
        assert 0.35 <= ratio <= 0.7

    def test_hit_rate_grows_with_cache(self, result):
        assert result.hit_rates[96] >= result.hit_rates[24] - 0.02

    def test_hit_rates_valid(self, result):
        for rate in result.hit_rates.values():
            assert 0.0 <= rate <= 1.0 and not math.isnan(rate)

    def test_report_renders(self, result):
        report = result.report()
        assert "Fig 1a" in report and "Fig 1b" in report


@pytest.fixture(scope="module")
def conv_sweep():
    return fig5_conv_layers(ratio=0.5, input_size=32)


@pytest.fixture(scope="module")
def pool_sweep():
    return fig6_pool_layers(ratio=0.5, input_size=32)


class TestFig3Fig4:
    def test_one_serial_sweep_over_every_model(self):
        config = tiny_config(ratios=(0.5,))
        result = fig3_fig4_security(
            models=("mlp",),
            ratios=config.ratios,
            width_scale=config.width_scale,
            train_size=config.train_size,
            test_size=config.test_size,
            victim_epochs=config.victim_epochs,
            substitute=config.substitute,
            transfer_examples=config.transfer_examples,
            measure_transfer=False,
        )
        assert isinstance(result, SweepResult)
        expected = run_sweep(
            plan_units(config, measure_transfer=False),
            jobs=1,
            metrics=MetricsRegistry(),
        )
        assert result.cells == expected.cells
        assert "Fig 4" not in result.report()


class TestFig5:
    def test_four_conv_layers(self, conv_sweep):
        assert conv_sweep.layer_labels == ["CONV-1", "CONV-2", "CONV-3", "CONV-4"]

    def test_baseline_normalized_to_one(self, conv_sweep):
        assert all(v == pytest.approx(1.0) for v in conv_sweep.normalized_ipc["Baseline"])

    def test_encryption_hurts_every_layer(self, conv_sweep):
        for value in conv_sweep.normalized_ipc["Direct"]:
            assert value < 1.0

    def test_seal_improves_over_full_encryption(self, conv_sweep):
        assert conv_sweep.improvement_over("SEAL-D", "Direct") > 1.05
        assert conv_sweep.improvement_over("SEAL-C", "Counter") > 1.05

    def test_report_renders(self, conv_sweep):
        assert "CONV-3" in conv_sweep.report()


class TestFig6:
    def test_five_pool_layers(self, pool_sweep):
        assert len(pool_sweep.layer_labels) == 5

    def test_pools_hurt_at_least_much(self, pool_sweep, conv_sweep):
        # Paper: POOL layers are more bandwidth-bound than CONV layers
        # overall; full encryption must bite pools hard.
        pool_direct = min(pool_sweep.normalized_ipc["Direct"])
        assert pool_direct < 0.7

    def test_seal_improves_pools(self, pool_sweep):
        assert pool_sweep.improvement_over("SEAL-D", "Direct") > 1.1


class TestFig7And8:
    @pytest.fixture(scope="class")
    def sweep(self):
        return fig7_overall_ipc(models=("vgg16",))

    def test_scheme_ordering(self, sweep):
        vgg = 0
        assert sweep.normalized_ipc["Direct"][vgg] < 1.0
        assert (
            sweep.normalized_ipc["SEAL-D"][vgg]
            > sweep.normalized_ipc["Direct"][vgg]
        )

    def test_seal_speedup_metric(self, sweep):
        assert sweep.seal_speedup("D") > 1.1
        assert sweep.seal_speedup("C") > 1.1

    def test_latency_reduction_metric(self, sweep):
        assert 0.0 < sweep.latency_reduction("D") < 0.6

    def test_latency_normalized_above_one_for_encrypted(self, sweep):
        assert sweep.normalized_latency["Direct"][0] > 1.0

    def test_fig8_shares_structure(self):
        sweep = fig8_latency(models=("resnet18",))
        assert sweep.normalized_latency["Baseline"][0] == pytest.approx(1.0)
        assert sweep.normalized_latency["Counter"][0] > 1.0

    def test_report_renders(self, sweep):
        assert "VGG-16" in sweep.report()
        assert "scheme" in sweep.report(metric="latency")
