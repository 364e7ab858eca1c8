"""Deferred counter-cache state and shared lowerings, pinned bit for bit.

After a native run the counter caches hold a loader over the kernel's
dense arrays instead of their sets and backing store
(:meth:`repro.crypto.counter_cache.CounterCache.defer_state`), and
:func:`repro.sim.parallel.run_units` lowers each stream set once for all
the units that share it.  Neither may change an observable:

* the scalar and vector engines leave equal state on cold runs, warm
  repeats and a vector run followed by a scalar one on one simulator;
* the state read through pickling (which leaves the cache deferred)
  equals the state after materialisation;
* a Fig 7 unit run through :func:`~repro.sim.parallel.simulate_unit`
  leaves its caches deferred;
* every Fig 7 unit's result equals the unshared per-unit path below,
  and never beats the roofline bound of the streams it ran.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.memory import SecureHeap
from repro.core.plan import ModelEncryptionPlan
from repro.crypto.counter_cache import CounterCache, CounterCacheConfig
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.obs.metrics import MetricsRegistry
from repro.sim import _native, parallel
from repro.sim.gpu import GpuSimulator
from repro.sim.roofline import predict_streams
from repro.sim.runner import SCHEMES, layer_unit, scheme_config, tag_traffic
from repro.sim.workloads import layer_streams

from .test_backend_equivalence import full_state, synthetic_layer
from .test_golden_ipc import assert_results_identical

COUNTER_SCHEMES = ("Counter", "SEAL-C")


def lower(unit):
    return layer_streams(
        unit.config, unit.traffic, tile=unit.tile, heap=SecureHeap()
    )


def unshared(unit):
    """The per-unit path before lowerings were shared: lower, then run."""
    return GpuSimulator(unit.config).run(lower(unit), label=unit.label)


def run_sequence(config, traffic, backends):
    """Run ``traffic`` once per entry of ``backends`` on one simulator,
    switching its engine between runs; the state after each run."""
    simulator = GpuSimulator(config, backend=backends[0])
    tagged = tag_traffic(traffic, config.encryption)
    states = []
    for backend in backends:
        simulator.backend = backend
        result = simulator.run(layer_streams(config, tagged, heap=SecureHeap()))
        states.append(full_state(simulator, result))
    return states


def caches(simulator):
    return [mc.counter_cache for mc in simulator.controllers]


def deferred(cache):
    return "_sets" not in cache.__dict__ and "_backing" not in cache.__dict__


@pytest.fixture(scope="module")
def layer():
    return synthetic_layer("fc", 128, 96, 48, 0.6)


class TestEngineOracle:
    @pytest.mark.parametrize("scheme", COUNTER_SCHEMES)
    @pytest.mark.parametrize(
        "backends",
        [
            ("vector",),
            ("vector", "vector", "vector"),
            ("vector", "scalar"),
            ("scalar", "vector"),
        ],
    )
    def test_state_equals_the_scalar_engine(self, layer, scheme, backends):
        config = scheme_config(scheme, counter_cache_kb=24)
        expected = run_sequence(config, layer, ("scalar",) * len(backends))
        assert run_sequence(config, layer, backends) == expected


class TestMaterialisation:
    @pytest.fixture()
    def ran(self, layer):
        config = scheme_config("Counter", counter_cache_kb=24)
        simulator = GpuSimulator(config, backend="vector")
        tagged = tag_traffic(layer, config.encryption)
        result = simulator.run(layer_streams(config, tagged, heap=SecureHeap()))
        return simulator, result

    def test_native_run_leaves_the_state_deferred(self, ran):
        simulator, _ = ran
        assert all(deferred(cache) for cache in caches(simulator))
        # Statistics are written eagerly.
        assert sum(cache.stats.accesses for cache in caches(simulator)) > 0

    def test_state_before_and_after_materialisation(self, ran):
        # Pickling gives the materialised state and leaves the original
        # deferred, so it reads the state before materialisation.
        simulator, result = ran
        originals = caches(simulator)
        for mc in simulator.controllers:
            mc.counter_cache = pickle.loads(pickle.dumps(mc.counter_cache))
        before = full_state(simulator, result)
        assert all(deferred(cache) for cache in originals)
        for mc, cache in zip(simulator.controllers, originals):
            mc.counter_cache = cache
        after = full_state(simulator, result)
        assert not any(deferred(cache) for cache in originals)
        assert before == after
        assert any(cache.occupancy for cache in originals)

    def test_loader_runs_once(self):
        calls = []
        cache = CounterCache(CounterCacheConfig(size_bytes=4096))
        sets, backing = cache._sets, cache._backing

        def loader():
            calls.append(1)
            return sets, backing

        cache.defer_state(loader)
        assert deferred(cache)
        cache.access(0, write=True)
        assert cache.counter_of(0) == 1 and cache.occupancy == 1
        cache.flush()
        assert calls == [1]

    def test_other_missing_names_do_not_load(self):
        cache = CounterCache()
        cache.defer_state(lambda: pytest.fail("loader called"))
        with pytest.raises(AttributeError, match="no_such_field"):
            cache.no_such_field
        assert not hasattr(cache, "__setstate__")
        assert deferred(cache)


class TestScalarFallbackSharesStreams:
    """With no native kernel the scalar engine runs the shared streams
    (their ``TileStep`` view is built once, on the shared object) and
    gives the unshared path's results."""

    def test_shared_lowering_on_the_scalar_engine(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv(_native.ENV_CACHE, str(tmp_path / "simkernel"))
        monkeypatch.setattr(_native, "_attempted", False)
        monkeypatch.setattr(_native, "_cached", None)
        set_init_rng(0)
        plan = ModelEncryptionPlan.build(build_model("mlp"), 0.5)
        units = [
            layer_unit(traffic, scheme)
            for scheme in SCHEMES
            for traffic in plan.layer_traffic()
        ]
        metrics = MetricsRegistry()
        shared = parallel.run_units(units, cache=False, metrics=metrics)
        assert metrics.counter("sim.lower.reused") > 0
        assert metrics.counter("sim.backend.vector") == 0
        for unit, result in zip(units, shared):
            assert_results_identical(result, unshared(unit))


class TestFig7Units:
    @pytest.fixture(autouse=True)
    def vector_backend(self, monkeypatch):
        # The native path is the one under test, whatever
        # REPRO_SIM_BACKEND the suite runs under.
        monkeypatch.setenv("REPRO_SIM_BACKEND", "vector")

    @pytest.fixture(scope="class")
    def units(self):
        units = []
        for name in ("vgg16", "resnet18", "resnet34"):
            set_init_rng(0)
            plan = ModelEncryptionPlan.build(build_model(name), 0.5)
            units += [
                layer_unit(traffic, scheme)
                for scheme in SCHEMES
                for traffic in plan.layer_traffic()
            ]
        return units

    @pytest.fixture(scope="class")
    def reference(self, units):
        """Per cache key: the unshared path's result on the native kernel
        (named here: the class fixture runs before ``vector_backend``) and
        the roofline bound of the streams it ran."""
        reference = {}
        for unit in units:
            key = unit.key()
            if key not in reference:
                streams = lower(unit)
                simulator = GpuSimulator(unit.config, backend="vector")
                reference[key] = (
                    simulator.run(streams, label=unit.label),
                    predict_streams(streams, unit.config),
                )
        return reference

    def test_shared_lowering_equals_the_unshared_path(self, units, reference):
        metrics = MetricsRegistry()
        shared = parallel.run_units(units, cache=False, metrics=metrics)
        reused = metrics.counter("sim.lower.reused")
        lowered = metrics.timers["sim.lower"].count
        assert reused > 0
        assert lowered + reused == metrics.counter("sim.cache.misses")
        for unit, result in zip(units, shared):
            expected, _ = reference[unit.key()]
            assert_results_identical(result, replace(expected, label=unit.label))

    def test_des_never_beats_the_roofline(self, units, reference):
        below = [
            (result.label, result.cycles, bound.cycles)
            for result, bound in reference.values()
            if result.cycles < bound.cycles
        ]
        assert len(reference) > 100
        assert below == []

    def test_simulate_unit_leaves_counter_caches_deferred(self, units, monkeypatch):
        made = []

        class Recording(GpuSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(parallel, "GpuSimulator", Recording)
        unit = next(
            unit for unit in units if unit.config == scheme_config("SEAL-C")
        )
        parallel.simulate_unit(unit)
        (simulator,) = made
        assert all(deferred(cache) for cache in caches(simulator))
