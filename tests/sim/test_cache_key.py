"""Simulation cache keys stay byte-identical to the frozen encoding.

:func:`repro.sim.parallel.cache_key` encodes each distinct config once
(a bounded memo) and hashes one JSON text; the frozen copy in
``reference_keys.py`` is the key as it was computed before, a full
canonical encoding of the config and a second walk of the whole payload
per unit.  Every Figure 7 unit at two counter-cache sizes and every known
scheme's config must hash alike.
"""

from dataclasses import replace

import pytest

from repro.core.plan import LayerTraffic, ModelEncryptionPlan
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.sim import parallel
from repro.sim.parallel import cache_key
from repro.sim.runner import SCHEMES, known_schemes, layer_unit, scheme_config
from repro.sim.workloads import DEFAULT_TILE

from .reference_keys import frozen_cache_key

TRAFFIC = LayerTraffic("conv", "conv", 1 << 20, 4096, 1024, 8192, 0, 0, 16384, 64, 128, 27)


@pytest.fixture(scope="module")
def fig7_traffic():
    records = []
    for name in ("vgg16", "resnet18", "resnet34"):
        set_init_rng(0)
        records += ModelEncryptionPlan.build(build_model(name), 0.5).layer_traffic()
    return records


@pytest.mark.parametrize("counter_cache_kb", [96, 24])
def test_every_fig7_unit_keys_as_before(fig7_traffic, counter_cache_kb):
    units = [
        layer_unit(traffic, scheme, counter_cache_kb=counter_cache_kb)
        for scheme in SCHEMES
        for traffic in fig7_traffic
    ]
    assert len(units) == 405
    for unit in units:
        assert unit.key() == frozen_cache_key(unit.config, unit.traffic, unit.tile)


@pytest.mark.parametrize("scheme", known_schemes())
@pytest.mark.parametrize("tile", [16, DEFAULT_TILE])
def test_every_known_scheme_config_keys_as_before(scheme, tile):
    config = scheme_config(scheme)
    for traffic in (TRAFFIC, replace(TRAFFIC, kind="pool", gemm_m=0, gemm_n=0, gemm_k=0)):
        assert cache_key(config, traffic, tile) == frozen_cache_key(config, traffic, tile)


def test_equal_configs_of_different_spelling_keep_their_own_keys():
    as_float = replace(scheme_config("SEAL-C"), core_clock_ghz=1.0)
    as_int = replace(as_float, core_clock_ghz=1)
    assert as_float == as_int
    keys = [cache_key(config, TRAFFIC) for config in (as_float, as_int, as_float)]
    assert keys == [frozen_cache_key(c, TRAFFIC) for c in (as_float, as_int, as_float)]
    assert keys[0] != keys[1]


def test_config_memo_is_bounded():
    maxsize = parallel._config_json.cache_info().maxsize
    assert maxsize is not None
    base = scheme_config("Counter")
    for sms in range(1, maxsize + 9):
        config = replace(base, num_sms=sms)
        assert cache_key(config, TRAFFIC) == frozen_cache_key(config, TRAFFIC)
    assert parallel._config_json.cache_info().currsize <= maxsize
