"""Differential cycle-accuracy suite: scalar vs vector simulator backend.

The vector backend's contract is *bit-identical* results — not merely
close — on every observable: SimResult fields, per-SM occupancy, memory
controller statistics, counter-cache statistics **and internal state**
(LRU order, per-line counters, backing store), and the ``sim.*`` metrics
counters.  This suite pins that contract over the golden IPC workloads,
over randomized configurations (SM counts, encryption ratios,
channel/engine counts, tile sizes) and over randomized address geometry
with hand-built request streams (the native kernel's request decode).  It also pins the fallback: when the
native kernel cannot run (a broken toolchain, or a counter cache it cannot
represent), a vector-requested run is the scalar engine, recorded as
``sim.backend.scalar``.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import SecureHeap
from repro.core.plan import LayerTraffic, ModelEncryptionPlan
from repro.crypto.counter_cache import CounterCacheConfig
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.sim import _native, engine
from repro.sim.gpu import GpuSimulator
from repro.sim.request import Access, MemRequest
from repro.sim.runner import SCHEMES, scheme_config, tag_traffic
from repro.sim.sm import TileStep
from repro.sim.workloads import layer_streams

from .test_golden_ipc import assert_results_identical


def synthetic_layer(kind, m, n, k, enc_fraction):
    """Synthetic layer-traffic record with a given encrypted fraction."""
    w, a, c = k * n * 4, m * k * 4, m * n * 4

    def split(total):
        enc = int(total * enc_fraction)
        return enc, total - enc

    we, wp = split(w)
    ae, ap = split(a)
    ce, cp = split(c)
    return LayerTraffic(
        name=f"synthetic-{kind}",
        kind=kind,
        macs=m * n * k,
        weight_bytes_encrypted=we,
        weight_bytes_plain=wp,
        input_bytes_encrypted=ae,
        input_bytes_plain=ap,
        output_bytes_encrypted=ce,
        output_bytes_plain=cp,
        gemm_m=m,
        gemm_n=n,
        gemm_k=k,
    )


def full_state(simulator, result):
    """Every observable a run leaves behind, as one comparable structure."""
    state = [
        ("cycles", result.cycles),
        ("instructions", result.instructions),
        ("data_bytes", result.data_bytes),
        ("counter_fetch_bytes", result.counter_fetch_bytes),
        ("encrypted_bytes", result.encrypted_bytes),
        ("bypass_bytes", result.bypass_bytes),
        ("dram_utilization", result.dram_utilization),
        ("engine_utilization", result.engine_utilization),
        (
            "counter_hit_rate",
            "nan" if math.isnan(result.counter_hit_rate) else result.counter_hit_rate,
        ),
        (
            "sm_stats",
            tuple(
                (s.instructions, s.busy_cycles, s.steps, s.read_requests, s.write_requests)
                for s in result.sm_stats
            ),
        ),
    ]
    for mc in simulator.controllers:
        st_ = mc.stats
        state.append(
            (
                st_.read_requests,
                st_.write_requests,
                st_.data_bytes,
                st_.encrypted_bytes,
                st_.bypass_bytes,
                st_.mac_bytes,
                st_.counter_fetch_bytes,
                st_.dram_busy_cycles,
                st_.engine_busy_cycles,
            )
        )
        state.append(
            (mc._dram.next_free, mc._dram.busy, tuple(sorted(mc._last_row.items())))
        )
        if mc.engine is not None:
            state.append(
                (
                    mc.engine._next_free,
                    mc.engine.busy_cycles,
                    mc.engine.lines_processed,
                    mc.engine.bytes_processed,
                )
            )
        cache = mc.counter_cache
        if cache is not None:
            cs = cache.stats
            state.append(
                (cs.hits, cs.misses, cs.evictions, cs.writebacks, cs.reencryptions, cs.reencrypted_lines)
            )
            # LRU key order AND per-line counter contents must match.
            state.append(
                tuple(
                    tuple(
                        (tag, line.dirty, tuple(sorted(line.counters.items())))
                        for tag, line in cache_set.items()
                    )
                    for cache_set in cache._sets
                )
            )
            state.append(tuple(sorted(cache._backing.items())))
    return state


def run_one(config, traffic, scheme, backend, repeats=1):
    """Run a layer ``repeats`` times on one simulator (warm-state reuse)."""
    simulator = GpuSimulator(config, backend=backend)
    tagged = tag_traffic(traffic, config.encryption)
    states = []
    for _ in range(repeats):
        streams = layer_streams(config, tagged, heap=SecureHeap())
        result = simulator.run(streams, label=f"{traffic.name}/{scheme}")
        states.append(full_state(simulator, result))
    return result, states


def assert_backends_identical(config, traffic, scheme, repeats=1):
    result_s, states_s = run_one(config, traffic, scheme, "scalar", repeats)
    result_v, states_v = run_one(config, traffic, scheme, "vector", repeats)
    assert_results_identical(result_s, result_v)
    assert states_s == states_v, f"{scheme}/{traffic.name}: state diverged"


class TestGoldenWorkloads:
    """Every golden-suite workload, field-for-field across both backends."""

    @pytest.fixture(scope="class")
    def traffics(self):
        set_init_rng(0)
        plan = ModelEncryptionPlan.build(
            build_model("mlp"), 0.5, input_shape=(3, 32, 32)
        )
        return plan.layer_traffic()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_layers_identical(self, traffics, scheme):
        config = scheme_config(scheme)
        for traffic in traffics:
            assert_backends_identical(config, traffic, scheme)

    @pytest.mark.parametrize("scheme", ("Counter", "SEAL-C"))
    def test_warm_cache_state_identical(self, traffics, scheme):
        # Consecutive runs on one simulator: the second run starts from
        # warm counter-cache/controller state, exercising the state
        # import/export round-trip of the native kernel.
        config = scheme_config(scheme, counter_cache_kb=24)
        for traffic in traffics:
            assert_backends_identical(config, traffic, scheme, repeats=2)


class TestRandomizedConfigs:
    """Hypothesis-randomized geometry: the equivalence is not tuned to the
    GTX480 point — any SM count, channel count, ratio, tile size works."""

    @given(
        num_sms=st.integers(min_value=1, max_value=24),
        num_channels=st.sampled_from([1, 2, 3, 6]),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        tile=st.sampled_from([16, 32, 64]),
        scheme=st.sampled_from(SCHEMES),
        dims=st.sampled_from([(96, 64, 48), (256, 96, 32), (64, 64, 256)]),
    )
    @settings(max_examples=12, deadline=None)
    def test_randomized_layer_identical(
        self, num_sms, num_channels, fraction, tile, scheme, dims
    ):
        m, n, k = dims
        config = replace(
            scheme_config(scheme, counter_cache_kb=24),
            num_sms=num_sms,
            num_channels=num_channels,
        )
        traffic = synthetic_layer("fc", m, n, k, fraction)
        tagged = tag_traffic(traffic, config.encryption)
        results, states = {}, {}
        for backend in ("scalar", "vector"):
            simulator = GpuSimulator(config, backend=backend)
            streams = layer_streams(config, tagged, tile=tile, heap=SecureHeap())
            results[backend] = simulator.run(streams)
            states[backend] = full_state(simulator, results[backend])
        assert_results_identical(results["scalar"], results["vector"])
        assert states["scalar"] == states["vector"]

    @given(fraction=st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=4, deadline=None)
    def test_pool_layers_identical(self, fraction):
        traffic = LayerTraffic(
            name="synthetic-pool",
            kind="pool",
            macs=0,
            weight_bytes_encrypted=0,
            weight_bytes_plain=0,
            input_bytes_encrypted=int(262144 * fraction),
            input_bytes_plain=262144 - int(262144 * fraction),
            output_bytes_encrypted=int(65536 * fraction),
            output_bytes_plain=65536 - int(65536 * fraction),
        )
        for scheme in ("Counter", "SEAL-D"):
            assert_backends_identical(scheme_config(scheme), traffic, scheme)


def _request(access):
    return st.builds(
        MemRequest,
        address=st.integers(min_value=0, max_value=1 << 16),
        size=st.integers(min_value=1, max_value=3000),
        access=st.just(access),
        encrypted=st.booleans(),
    )


_steps = st.builds(
    TileStep,
    compute_cycles=st.integers(min_value=0, max_value=300),
    reads=st.lists(_request(Access.READ), max_size=5).map(tuple),
    writes=st.lists(_request(Access.WRITE), max_size=5).map(tuple),
)


class TestRandomizedDecode:
    """The request decode inside the native kernel (channel, bank and row,
    occupancies, MAC traffic, counter-block runs) over geometry the
    lowering never produces: hand-built streams of unaligned requests
    that straddle counter blocks, row buffers that are not powers of two,
    small caches with short minor counters.  Each case runs twice on one
    simulator, so the second run imports warm cache state."""

    @given(
        line_bytes=st.sampled_from([32, 64, 128, 256]),
        row_bytes=st.sampled_from([1000, 1536, 2048, 3000, 4096]),
        banks=st.sampled_from([1, 3, 4, 16]),
        num_channels=st.sampled_from([1, 2, 3, 6]),
        lines_per_block=st.sampled_from([1, 2, 8, 32]),
        associativity=st.sampled_from([1, 2, 4]),
        sets=st.sampled_from([1, 2, 3]),
        minor_bits=st.sampled_from([2, 7]),
        authenticate=st.booleans(),
        mac_bytes=st.sampled_from([4, 8, 16]),
        scheme=st.sampled_from(SCHEMES),
        streams=st.lists(st.lists(_steps, min_size=1, max_size=4), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_hand_built_streams_identical(
        self,
        line_bytes,
        row_bytes,
        banks,
        num_channels,
        lines_per_block,
        associativity,
        sets,
        minor_bits,
        authenticate,
        mac_bytes,
        scheme,
        streams,
    ):
        base = scheme_config(scheme)
        config = replace(
            base,
            line_bytes=line_bytes,
            row_buffer_bytes=row_bytes,
            banks_per_channel=banks,
            num_channels=num_channels,
            encryption=replace(
                base.encryption,
                authenticate=authenticate,
                mac_bytes=mac_bytes,
                counter_cache=CounterCacheConfig(
                    size_bytes=64 * associativity * sets,
                    associativity=associativity,
                    data_bytes_per_counter_block=lines_per_block * line_bytes,
                    minor_counter_bits=minor_bits,
                ),
            ),
        )
        states = {}
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            for backend in ("scalar", "vector"):
                simulator = GpuSimulator(config, backend=backend)
                states[backend] = [
                    full_state(simulator, simulator.run(streams)) for _ in range(2)
                ]
        finally:
            set_metrics(previous)
        assert states["scalar"] == states["vector"]
        if _native.load() is not None:
            assert _backend_counters(registry) == {
                "sim.backend.scalar": 2,
                "sim.backend.vector": 2,
            }


class TestMetricsCounters:
    """The ``sim.*`` metrics stream is backend-invariant (modulo the
    backend-name counter itself)."""

    def _counters(self, backend):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            traffic = synthetic_layer("fc", 128, 64, 64, 0.5)
            config = scheme_config("SEAL-C")
            run_one(config, traffic, "SEAL-C", backend)
        finally:
            set_metrics(previous)
        counters = dict(registry.snapshot().get("counters") or {})
        return {
            name: value
            for name, value in counters.items()
            if name.startswith("sim.") and not name.startswith("sim.backend.")
        }

    def test_sim_counters_identical(self):
        scalar = self._counters("scalar")
        vector = self._counters("vector")
        assert scalar and scalar == vector

    def test_backend_counter_names_the_engine(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            traffic = synthetic_layer("fc", 64, 32, 32, 0.5)
            run_one(scheme_config("Baseline"), traffic, "Baseline", "vector")
        finally:
            set_metrics(previous)
        counters = registry.snapshot().get("counters") or {}
        assert counters.get("sim.backend.vector") == 1


@pytest.fixture()
def recorded(monkeypatch):
    """A fresh metrics registry, plus the labels ``engine._run_python``
    (the one fallback call site) was called with."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    calls = []
    fallback = engine._run_python

    def counted(simulator, streams, label=""):
        calls.append(label)
        return fallback(simulator, streams, label)

    monkeypatch.setattr(engine, "_run_python", counted)
    yield registry, calls
    set_metrics(previous)


def _backend_counters(registry):
    counters = registry.snapshot().get("counters") or {}
    return {
        name: value for name, value in counters.items() if name.startswith("sim.backend.")
    }


class TestScalarFallback:
    """With no native kernel, a vector-requested run is the scalar engine:
    the same state bit for bit, recorded as ``sim.backend.scalar``.  The
    toolchain is broken for real (``CC=false`` and an empty kernel cache),
    not switched off by a knob."""

    @pytest.fixture()
    def no_native(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv(_native.ENV_CACHE, str(tmp_path / "simkernel"))
        monkeypatch.setattr(_native, "_attempted", False)
        monkeypatch.setattr(_native, "_cached", None)
        yield
        # monkeypatch restores the module attributes afterwards, so later
        # tests re-resolve (and re-use) the native kernel normally.

    def test_fallback_loads_nothing(self, no_native):
        assert _native.load() is None

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fallback_identical_to_scalar(self, no_native, recorded, scheme):
        registry, calls = recorded
        traffic = synthetic_layer("fc", 128, 96, 48, 0.6)
        config = scheme_config(scheme, counter_cache_kb=24)
        _, states_v = run_one(config, traffic, scheme, "vector", repeats=2)
        assert _backend_counters(registry) == {"sim.backend.scalar": 2}
        assert len(calls) == 2
        _, states_s = run_one(config, traffic, scheme, "scalar", repeats=2)
        assert states_v == states_s


class TestIneligibleCacheFallback:
    """A counter cache the native kernel cannot represent (a functional
    re-encryption hook is attached) sends a vector-requested run to the
    scalar engine, even with a working toolchain."""

    @staticmethod
    def _run(config, backend, repeats=2):
        simulator = GpuSimulator(config, backend=backend)
        events = []
        for mc in simulator.controllers:
            mc.counter_cache._on_reencrypt = (
                lambda *event, channel=mc.channel_id: events.append((channel, event))
            )
        tagged = tag_traffic(synthetic_layer("fc", 128, 96, 48, 0.6), config.encryption)
        states = []
        for _ in range(repeats):
            streams = layer_streams(config, tagged, heap=SecureHeap())
            result = simulator.run(streams, label="hooked")
            states.append(full_state(simulator, result))
        return states, events

    def test_hooked_counter_cache_runs_scalar(self, recorded):
        registry, calls = recorded
        base = scheme_config("Counter", counter_cache_kb=24)
        # One-bit minor counters wrap on every second write to a line, so
        # the hook sees re-encryptions within two runs.
        config = replace(
            base,
            encryption=replace(
                base.encryption,
                counter_cache=replace(
                    base.encryption.counter_cache, minor_counter_bits=1
                ),
            ),
        )
        states_v, events_v = self._run(config, "vector")
        assert _backend_counters(registry) == {"sim.backend.scalar": 2}
        assert calls == ["hooked", "hooked"]
        states_s, events_s = self._run(config, "scalar")
        assert states_v == states_s
        assert events_s and events_v == events_s
