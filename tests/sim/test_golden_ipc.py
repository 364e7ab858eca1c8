"""Golden-result regression suite for the parallel cached runner.

Pins the normalized IPC of all five schemes on a small fixed model, and
locks the parallel/cached execution paths to the serial uncached reference
(:func:`repro.sim.runner.run_layer`): every ``SimResult`` field must be
identical — not approximately equal — no matter the worker count or cache
state.  The only NaN-valued field (``counter_hit_rate`` outside counter
mode) is compared NaN-aware, since ``nan != nan``.
"""

import json
import math
from dataclasses import fields

import pytest

from repro.core.plan import ModelEncryptionPlan
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.obs.metrics import MetricsRegistry
from repro.sim.parallel import SimulationCache, run_units
from repro.sim.runner import SCHEMES, compare_schemes, layer_unit, run_layer

#: Normalized IPC of the MLP model at ratio 0.5, GTX480 config, as
#: simulated by the serial reference runner.  These are exact simulation
#: outputs (the traffic lowering is count-based, so random weight init
#: does not move them); a drift here means the simulator's math changed.
GOLDEN_NORMALIZED_IPC = {
    "Baseline": 1.0,
    "Direct": 0.546478563,
    "Counter": 0.547430372,
    "SEAL-D": 0.749939880,
    "SEAL-C": 0.748941268,
}

#: Same pins for the registered :mod:`repro.schemes` instances on the
#: same workload.  ``direct`` maps onto the exact config of the paper's
#: Direct scheme, so its value matches above; the authenticated schemes
#: pay their MAC/counter metadata traffic (seculator's slimmer metadata
#: path lands it above counter-gmac).
REGISTRY_GOLDEN_NORMALIZED_IPC = {
    "seal-se": 0.725189934,
    "direct": 0.546478563,
    "counter-gmac": 0.535086582,
    "seculator": 0.536865022,
}


def assert_results_identical(a, b):
    """Field-for-field SimResult equality, treating NaN == NaN."""
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if (
            isinstance(va, float)
            and isinstance(vb, float)
            and math.isnan(va)
            and math.isnan(vb)
        ):
            continue
        assert va == vb, f"{a.label}: field {f.name} differs: {va!r} != {vb!r}"


@pytest.fixture(scope="module", params=["scalar", "vector"])
def sim_backend(request):
    """Run the golden suite under both simulator backends.

    The env var (not a plumbed argument) is what ``run_layer`` and the
    parallel runner's worker processes resolve, so one fixture pins every
    execution path in the module to the requested engine.
    """
    import os

    from repro.sim.engine import ENV_VAR

    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = request.param
    yield request.param
    if previous is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = previous


@pytest.fixture(scope="module")
def plan():
    set_init_rng(0)
    return ModelEncryptionPlan.build(
        build_model("mlp"), 0.5, input_shape=(3, 32, 32)
    )


@pytest.fixture(scope="module")
def serial_results(plan, sim_backend):
    """The uncached serial reference: one run_layer call per unit.

    Parametrized over both simulator backends — the golden values are
    properties of the simulation, not of the engine that replayed it.
    The pinning below compares whole-model aggregates (summed
    instructions over summed cycles), which are insensitive to the order
    individual layer results arrive in.
    """
    traffics = plan.layer_traffic()
    return {
        scheme: [run_layer(traffic, scheme) for traffic in traffics]
        for scheme in SCHEMES
    }


class TestGoldenNormalizedIpc:
    def test_all_schemes_pinned(self, serial_results):
        baseline = serial_results["Baseline"]
        baseline_ipc = sum(r.instructions for r in baseline) / sum(
            r.cycles for r in baseline
        )
        for scheme, golden in GOLDEN_NORMALIZED_IPC.items():
            results = serial_results[scheme]
            ipc = sum(r.instructions for r in results) / sum(
                r.cycles for r in results
            )
            assert ipc / baseline_ipc == pytest.approx(golden, rel=1e-6), scheme

    def test_scheme_ordering(self, serial_results):
        normalized = {}
        baseline = serial_results["Baseline"]
        baseline_ipc = sum(r.instructions for r in baseline) / sum(
            r.cycles for r in baseline
        )
        for scheme, results in serial_results.items():
            ipc = sum(r.instructions for r in results) / sum(
                r.cycles for r in results
            )
            normalized[scheme] = ipc / baseline_ipc
        assert normalized["Direct"] < normalized["SEAL-D"] <= 1.0
        assert normalized["Counter"] < normalized["SEAL-C"] <= 1.0


_REGISTRY_SERIAL: dict = {}


def registry_serial_results(plan, sim_backend, scheme_name):
    """Serial reference runs per (sim backend, registered scheme),
    memoised so the pinning and identity tests share one computation."""
    key = (sim_backend, scheme_name)
    if key not in _REGISTRY_SERIAL:
        _REGISTRY_SERIAL[key] = [
            run_layer(traffic, scheme_name) for traffic in plan.layer_traffic()
        ]
    return _REGISTRY_SERIAL[key]


class TestRegistrySchemeGoldens:
    """Golden IPC + parallel identity for every registered
    ProtectionScheme (the ``scheme_name`` fixture in tests/conftest.py)
    — the sim half of the scheme-parametrized regression matrix."""

    def test_normalized_ipc_pinned(self, plan, sim_backend, serial_results, scheme_name):
        baseline = serial_results["Baseline"]
        baseline_ipc = sum(r.instructions for r in baseline) / sum(
            r.cycles for r in baseline
        )
        results = registry_serial_results(plan, sim_backend, scheme_name)
        ipc = sum(r.instructions for r in results) / sum(
            r.cycles for r in results
        )
        assert ipc / baseline_ipc == pytest.approx(
            REGISTRY_GOLDEN_NORMALIZED_IPC[scheme_name], rel=1e-6
        ), scheme_name

    def test_parallel_cached_identical(self, plan, sim_backend, scheme_name):
        serial = registry_serial_results(plan, sim_backend, scheme_name)
        parallel = compare_schemes(
            plan, (scheme_name,), jobs=2, cache=SimulationCache()
        )
        assert len(parallel[scheme_name].layer_results) == len(serial)
        for a, b in zip(serial, parallel[scheme_name].layer_results):
            assert_results_identical(a, b)

    def test_rival_scheme_beats_counter_gmac(self):
        """The Seculator-style metadata path must actually pay off."""
        assert (
            REGISTRY_GOLDEN_NORMALIZED_IPC["seculator"]
            > REGISTRY_GOLDEN_NORMALIZED_IPC["counter-gmac"]
        )


class TestParallelMatchesSerial:
    def test_cached_jobs1_identical(self, plan, serial_results):
        results = compare_schemes(plan, SCHEMES, jobs=1, cache=SimulationCache())
        for scheme in SCHEMES:
            assert len(results[scheme].layer_results) == len(serial_results[scheme])
            for a, b in zip(serial_results[scheme], results[scheme].layer_results):
                assert_results_identical(a, b)

    def test_pool_jobs4_identical(self, plan, serial_results):
        results = compare_schemes(plan, SCHEMES, jobs=4, cache=SimulationCache())
        for scheme in SCHEMES:
            for a, b in zip(serial_results[scheme], results[scheme].layer_results):
                assert_results_identical(a, b)

    def test_warm_cache_identical(self, plan, serial_results):
        cache = SimulationCache()
        compare_schemes(plan, SCHEMES, cache=cache)  # warm every key
        warm = compare_schemes(plan, SCHEMES, cache=cache)
        for scheme in SCHEMES:
            for a, b in zip(serial_results[scheme], warm[scheme].layer_results):
                assert_results_identical(a, b)

    def test_cache_disabled_identical(self, plan, serial_results):
        results = compare_schemes(plan, SCHEMES, cache=False)
        for scheme in SCHEMES:
            for a, b in zip(serial_results[scheme], results[scheme].layer_results):
                assert_results_identical(a, b)

    def test_run_units_preserves_submission_order(self, plan):
        traffics = plan.layer_traffic()
        units = [
            layer_unit(traffic, scheme)
            for scheme in ("SEAL-D", "Baseline")
            for traffic in traffics
        ]
        results = run_units(units, cache=SimulationCache(), metrics=MetricsRegistry())
        assert [r.label for r in results] == [u.label for u in units]


class TestResnet18CacheHits:
    """Acceptance: a ResNet-18 run reports a positive cache hit rate in
    its metrics JSON — its repeated residual blocks dedupe to one
    simulation each."""

    def test_cache_hit_rate_positive_in_metrics_json(self, tmp_path):
        set_init_rng(0)
        plan = ModelEncryptionPlan.build(
            build_model("resnet18"), 0.5, input_shape=(3, 32, 32)
        )
        metrics = MetricsRegistry()
        cache = SimulationCache()
        units = []
        for scheme in SCHEMES:
            for traffic in plan.layer_traffic():
                units.append(layer_unit(traffic, scheme))
        results = run_units(units, jobs=2, cache=cache, metrics=metrics)
        assert len(results) == len(units)

        path = metrics.emit(tmp_path / "resnet18_metrics.json")
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.metrics/v1"
        assert document["counters"]["sim.cache.hits"] > 0
        assert document["derived"]["cache_hit_rate"] > 0
        # The cache never trades away correctness for reuse: a hit returns
        # exactly what a fresh simulation of that unit produces.
        spot = units[-1]
        assert_results_identical(
            results[-1],
            run_layer(spot.traffic, "SEAL-C", tile=spot.tile),
        )
