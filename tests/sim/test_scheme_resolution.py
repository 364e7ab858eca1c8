"""One resolver: a scheme name becomes a ``GpuConfig`` once, and the
config alone decides which bytes the simulator encrypts.

Every runnable name, at every Figure 1 counter budget, must resolve to the
config the old name-based table gave, and :func:`tag_traffic` on that
config's encryption must tag every layer of three models exactly as the
old name-branching ``traffic_for_scheme`` did (``reference_schemes``).
"""

import pytest

from repro.core.plan import ModelEncryptionPlan
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.sim.config import PAPER_SCHEMES, EncryptionConfig, gtx480_config
from repro.sim.runner import (
    SCHEMES,
    known_schemes,
    plaintext_traffic,
    scheme_config,
    tag_traffic,
)
from repro.sim.workloads import matmul_traffic

from . import reference_schemes

COUNTER_CACHE_KB = (24, 96, 384, 1536)


@pytest.fixture(scope="module")
def traffics():
    layers = []
    for model in ("mlp", "vgg16", "resnet18"):
        set_init_rng(0)
        plan = ModelEncryptionPlan.build(
            build_model(model), 0.5, input_shape=(3, 32, 32)
        )
        layers += plan.layer_traffic(include_pools=True)
    return layers


@pytest.mark.parametrize("name", known_schemes())
@pytest.mark.parametrize("counter_cache_kb", COUNTER_CACHE_KB)
def test_config_equals_the_name_table(name, counter_cache_kb):
    assert scheme_config(
        name, counter_cache_kb=counter_cache_kb
    ) == reference_schemes.scheme_config(name, counter_cache_kb=counter_cache_kb)


@pytest.mark.parametrize("name", known_schemes())
def test_tags_equal_the_name_branches(name, traffics):
    encryption = scheme_config(name).encryption
    for traffic in traffics:
        assert tag_traffic(traffic, encryption) == reference_schemes.traffic_for_scheme(
            traffic, name
        ), traffic.name


def test_paper_labels_in_figure_order():
    assert SCHEMES == tuple(PAPER_SCHEMES)
    assert SCHEMES == ("Baseline", "Direct", "Counter", "SEAL-D", "SEAL-C")


def test_label_ignores_counter_budget_and_authentication():
    config = gtx480_config("counter", selective=True, counter_cache_kb=24)
    assert config.encryption.label() == "SEAL-C"
    assert scheme_config("seal-se").encryption.label() == "SEAL-C"


def test_unknown_name_lists_the_known_ones():
    with pytest.raises(ValueError, match="unknown scheme 'nope'; choose from"):
        scheme_config("nope")


def test_no_engine_is_baseline_whatever_the_selective_flag():
    encryption = EncryptionConfig(selective=True)
    assert encryption.label() == "Baseline"
    assert tag_traffic(matmul_traffic(64, 64, 64), encryption) == plaintext_traffic(
        matmul_traffic(64, 64, 64)
    )
