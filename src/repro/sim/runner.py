"""Experiment runner: whole models under the paper's five schemes.

The evaluation compares **Baseline** (no encryption), **Direct**,
**Counter** (straightforward full encryption, Section II-B), and
**SEAL-D** / **SEAL-C** (smart encryption over direct/counter engines,
Section IV-A).  This module lowers a model's layer sequence once per scheme
and simulates layer by layer; layers execute back to back (an inference is
a dependent layer chain), so end-to-end latency is the sum of layer times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.plan import LayerTraffic, ModelEncryptionPlan
from ..core.memory import SecureHeap
from ..nn.layers import Module
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer, instrument
from .config import EncryptionMode, GpuConfig, gtx480_config
from .gpu import GpuSimulator, SimResult
from .parallel import SimUnit, SimulationCache, run_units
from .workloads import DEFAULT_TILE, layer_streams

__all__ = [
    "SCHEMES",
    "known_schemes",
    "traffic_for_scheme",
    "scheme_config",
    "fully_encrypted",
    "plaintext_traffic",
    "run_layer",
    "layer_unit",
    "ModelRunResult",
    "run_model",
    "compare_schemes",
]

#: Scheme labels in the paper's figure order.
SCHEMES = ("Baseline", "Direct", "Counter", "SEAL-D", "SEAL-C")


def _registry_scheme(name: str):
    """Registered :class:`~repro.schemes.base.ProtectionScheme` or None.

    Deferred import: :mod:`repro.schemes` builds on this module's config
    types, so the registry is only touched for non-paper scheme names.
    """
    from ..schemes import get_scheme, scheme_names

    if name not in scheme_names():
        return None
    return get_scheme(name)


def known_schemes() -> tuple[str, ...]:
    """Every runnable scheme label: the paper's five plus the registry."""
    from ..schemes import scheme_names

    return SCHEMES + tuple(scheme_names())


def scheme_config(name: str, *, counter_cache_kb: int = 96) -> GpuConfig:
    """GTX480 configuration for a paper scheme or a registered
    :class:`~repro.schemes.base.ProtectionScheme` name."""
    table = {
        "Baseline": (EncryptionMode.NONE, False),
        "Direct": (EncryptionMode.DIRECT, False),
        "Counter": (EncryptionMode.COUNTER, False),
        "SEAL-D": (EncryptionMode.DIRECT, True),
        "SEAL-C": (EncryptionMode.COUNTER, True),
    }
    if name in table:
        mode, selective = table[name]
        return gtx480_config(
            mode, selective=selective, counter_cache_kb=counter_cache_kb
        )
    scheme = _registry_scheme(name)
    if scheme is None:
        raise ValueError(
            f"unknown scheme {name!r}; choose from {known_schemes()}"
        )
    return scheme.gpu_config(counter_cache_kb=counter_cache_kb)


def fully_encrypted(traffic: LayerTraffic) -> LayerTraffic:
    """Traffic record with every byte marked critical (Direct/Counter)."""
    return LayerTraffic(
        name=traffic.name,
        kind=traffic.kind,
        macs=traffic.macs,
        weight_bytes_encrypted=traffic.weight_bytes_encrypted + traffic.weight_bytes_plain,
        weight_bytes_plain=0,
        input_bytes_encrypted=traffic.input_bytes_encrypted + traffic.input_bytes_plain,
        input_bytes_plain=0,
        output_bytes_encrypted=traffic.output_bytes_encrypted + traffic.output_bytes_plain,
        output_bytes_plain=0,
        gemm_m=traffic.gemm_m,
        gemm_n=traffic.gemm_n,
        gemm_k=traffic.gemm_k,
    )


def plaintext_traffic(traffic: LayerTraffic) -> LayerTraffic:
    """Traffic record with no byte marked critical (Baseline tagging)."""
    return LayerTraffic(
        name=traffic.name,
        kind=traffic.kind,
        macs=traffic.macs,
        weight_bytes_encrypted=0,
        weight_bytes_plain=traffic.weight_bytes_encrypted + traffic.weight_bytes_plain,
        input_bytes_encrypted=0,
        input_bytes_plain=traffic.input_bytes_encrypted + traffic.input_bytes_plain,
        output_bytes_encrypted=0,
        output_bytes_plain=traffic.output_bytes_encrypted + traffic.output_bytes_plain,
        gemm_m=traffic.gemm_m,
        gemm_n=traffic.gemm_n,
        gemm_k=traffic.gemm_k,
    )


def traffic_for_scheme(traffic: LayerTraffic, scheme: str) -> LayerTraffic:
    """Tag a layer's traffic for one scheme: Baseline strips criticality,
    full-coverage schemes mark everything critical, selective schemes
    (SEAL and selective registry schemes) keep the plan's split."""
    if scheme in ("Direct", "Counter"):
        return fully_encrypted(traffic)
    if scheme == "Baseline":
        return plaintext_traffic(traffic)
    if scheme not in ("SEAL-D", "SEAL-C"):
        registered = _registry_scheme(scheme)
        if registered is not None and not registered.selective:
            return fully_encrypted(traffic)
    return traffic  # selective schemes keep the plan's split


def run_layer(
    traffic: LayerTraffic,
    scheme: str,
    *,
    counter_cache_kb: int = 96,
    tile: int = DEFAULT_TILE,
    config: GpuConfig | None = None,
) -> SimResult:
    """Simulate one layer under one scheme; returns the kernel result.

    This is the uncached serial reference path — the parallel/cached runner
    in :mod:`repro.sim.parallel` is pinned against it by the golden suite.
    """
    config = config or scheme_config(scheme, counter_cache_kb=counter_cache_kb)
    simulator = GpuSimulator(config)
    streams = layer_streams(
        config, traffic_for_scheme(traffic, scheme), tile=tile, heap=SecureHeap()
    )
    return simulator.run(streams, label=f"{traffic.name}/{scheme}")


def layer_unit(
    traffic: LayerTraffic,
    scheme: str,
    *,
    counter_cache_kb: int = 96,
    tile: int = DEFAULT_TILE,
    config: GpuConfig | None = None,
) -> SimUnit:
    """The :class:`SimUnit` equivalent of :func:`run_layer`'s arguments."""
    config = config or scheme_config(scheme, counter_cache_kb=counter_cache_kb)
    return SimUnit(
        traffic=traffic_for_scheme(traffic, scheme),
        config=config,
        tile=tile,
        label=f"{traffic.name}/{scheme}",
    )


@dataclass
class ModelRunResult:
    """Whole-model inference under one scheme."""

    model_name: str
    scheme: str
    layer_results: list[SimResult] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        return sum(r.cycles for r in self.layer_results)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.layer_results)

    @property
    def ipc(self) -> float:
        cycles = self.cycles
        return self.instructions / cycles if cycles else 0.0

    def latency_seconds(self, core_clock_ghz: float = 0.7) -> float:
        """End-to-end inference latency (dependent layer chain)."""
        return self.cycles / (core_clock_ghz * 1e9)

    @property
    def data_bytes(self) -> int:
        return sum(r.data_bytes for r in self.layer_results)

    @property
    def encrypted_bytes(self) -> int:
        return sum(r.encrypted_bytes for r in self.layer_results)


def run_model(
    source: Module | ModelEncryptionPlan,
    scheme: str,
    *,
    ratio: float = 0.5,
    input_shape: tuple[int, ...] = (3, 32, 32),
    counter_cache_kb: int = 96,
    tile: int = DEFAULT_TILE,
    include_pools: bool = True,
    batch: int = 1,
    jobs: int | None = 1,
    cache: SimulationCache | None | bool = None,
) -> ModelRunResult:
    """Simulate a full model inference under one scheme.

    ``source`` may be a model (a plan is built at ``ratio``) or an existing
    plan.  Layers are simulated independently and summed — inference is a
    dependent chain, so per-layer times add.  ``batch`` scales feature-map
    traffic for batched inference.

    ``jobs`` fans the independent layer simulations over a process pool
    (``None``/``0`` → CPU count); ``cache`` selects the simulation cache
    (default: the process-global cache, ``False`` disables caching).
    Either way the merged results are field-for-field identical to the
    serial uncached path.
    """
    results = compare_schemes(
        source,
        (scheme,),
        ratio=ratio,
        input_shape=input_shape,
        counter_cache_kb=counter_cache_kb,
        tile=tile,
        include_pools=include_pools,
        batch=batch,
        jobs=jobs,
        cache=cache,
    )
    return results[scheme]


def compare_schemes(
    source: Module | ModelEncryptionPlan,
    schemes: tuple[str, ...] = SCHEMES,
    *,
    ratio: float = 0.5,
    input_shape: tuple[int, ...] = (3, 32, 32),
    counter_cache_kb: int = 96,
    tile: int = DEFAULT_TILE,
    include_pools: bool = True,
    batch: int = 1,
    jobs: int | None = 1,
    cache: SimulationCache | None | bool = None,
) -> dict[str, ModelRunResult]:
    """Run a model under several schemes; keys follow the paper's labels.

    The model is lowered to traffic records **once** and the same records
    are tagged per scheme (Baseline strips criticality, Direct/Counter mark
    everything critical, SEAL keeps the plan's split) — the per-scheme
    re-lowering the serial runner used to do was pure recomputation.  All
    ``len(schemes) × len(layers)`` simulation units then go through
    :func:`repro.sim.parallel.run_units` as one deduplicated batch.
    """
    if isinstance(source, ModelEncryptionPlan):
        plan = source
    else:
        plan = ModelEncryptionPlan.build(source, ratio, input_shape=input_shape)
    metrics = get_metrics()
    tracer = get_tracer()
    with instrument(
        "runner.compare_schemes",
        {"model": plan.model_name, "schemes": list(schemes), "ratio": ratio},
    ):
        with tracer.span("runner.lower"):
            traffics = plan.layer_traffic(include_pools=include_pools, batch=batch)
        units: list[SimUnit] = []
        owners: list[str] = []
        for scheme in schemes:
            config = scheme_config(scheme, counter_cache_kb=counter_cache_kb)
            for traffic in traffics:
                units.append(
                    SimUnit(
                        traffic=traffic_for_scheme(traffic, scheme),
                        config=config,
                        tile=tile,
                        label=f"{traffic.name}/{scheme}",
                    )
                )
                owners.append(scheme)
        layer_results = run_units(units, jobs=jobs, cache=cache, metrics=metrics)
    metrics.count("runner.layer_sims", len(units))
    results = {
        scheme: ModelRunResult(model_name=plan.model_name, scheme=scheme)
        for scheme in schemes
    }
    for scheme, result in zip(owners, layer_results):
        results[scheme].layer_results.append(result)
    return results
