"""Experiment runner: whole models under the paper's five schemes.

The evaluation compares **Baseline** (no encryption), **Direct**,
**Counter** (straightforward full encryption, Section II-B), and
**SEAL-D** / **SEAL-C** (smart encryption over direct/counter engines,
Section IV-A).  This module lowers a model's layer sequence once per scheme
and simulates layer by layer; layers execute back to back (an inference is
a dependent layer chain), so end-to-end latency is the sum of layer times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.plan import LayerTraffic, ModelEncryptionPlan
from ..core.memory import SecureHeap
from ..nn.layers import Module
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer, instrument
from .config import PAPER_SCHEMES, EncryptionConfig, GpuConfig, gtx480_config
from .gpu import GpuSimulator, SimResult
from .parallel import SimUnit, SimulationCache, run_units
from .workloads import DEFAULT_TILE, layer_streams

__all__ = [
    "SCHEMES",
    "known_schemes",
    "tag_traffic",
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
SCHEMES = tuple(PAPER_SCHEMES)


def known_schemes() -> tuple[str, ...]:
    """Every runnable scheme label: the paper's five plus the registry."""
    from ..schemes import scheme_names

    return SCHEMES + tuple(scheme_names())


def scheme_config(name: str, *, counter_cache_kb: int = 96) -> GpuConfig:
    """GTX480 configuration for a paper scheme or a registered
    :class:`~repro.schemes.base.ProtectionScheme` name — the one place a
    scheme name is resolved; everything downstream reads the config."""
    if name in PAPER_SCHEMES:
        mode, selective = PAPER_SCHEMES[name]
        return gtx480_config(
            mode, selective=selective, counter_cache_kb=counter_cache_kb
        )
    # Deferred import: repro.schemes builds on this package's config types.
    from ..schemes import get_scheme, scheme_names

    if name not in scheme_names():
        raise ValueError(
            f"unknown scheme {name!r}; choose from {known_schemes()}"
        )
    return get_scheme(name).gpu_config(counter_cache_kb=counter_cache_kb)


def fully_encrypted(traffic: LayerTraffic) -> LayerTraffic:
    """Traffic record with every byte marked critical (full coverage)."""
    return replace(
        traffic,
        weight_bytes_encrypted=traffic.weight_bytes_encrypted + traffic.weight_bytes_plain,
        weight_bytes_plain=0,
        input_bytes_encrypted=traffic.input_bytes_encrypted + traffic.input_bytes_plain,
        input_bytes_plain=0,
        output_bytes_encrypted=traffic.output_bytes_encrypted + traffic.output_bytes_plain,
        output_bytes_plain=0,
    )


def plaintext_traffic(traffic: LayerTraffic) -> LayerTraffic:
    """Traffic record with no byte marked critical (no engine)."""
    return replace(
        traffic,
        weight_bytes_encrypted=0,
        weight_bytes_plain=traffic.weight_bytes_encrypted + traffic.weight_bytes_plain,
        input_bytes_encrypted=0,
        input_bytes_plain=traffic.input_bytes_encrypted + traffic.input_bytes_plain,
        output_bytes_encrypted=0,
        output_bytes_plain=traffic.output_bytes_encrypted + traffic.output_bytes_plain,
    )


def tag_traffic(
    traffic: LayerTraffic, encryption: EncryptionConfig
) -> LayerTraffic:
    """Tag a layer's traffic for one encryption config: no engine strips
    criticality, full coverage marks everything critical, and a selective
    engine keeps the plan's split."""
    if not encryption.enabled:
        return plaintext_traffic(traffic)
    if not encryption.selective:
        return fully_encrypted(traffic)
    return traffic


def run_layer(
    traffic: LayerTraffic,
    scheme: str,
    *,
    counter_cache_kb: int = 96,
    tile: int = DEFAULT_TILE,
) -> SimResult:
    """Simulate one layer under one scheme; returns the kernel result.

    This is the uncached serial reference path — the parallel/cached runner
    in :mod:`repro.sim.parallel` is pinned against it by the golden suite.
    """
    config = scheme_config(scheme, counter_cache_kb=counter_cache_kb)
    simulator = GpuSimulator(config)
    streams = layer_streams(
        config, tag_traffic(traffic, config.encryption), tile=tile, heap=SecureHeap()
    )
    return simulator.run(streams, label=f"{traffic.name}/{scheme}")


def layer_unit(
    traffic: LayerTraffic,
    scheme: str,
    *,
    counter_cache_kb: int = 96,
    tile: int = DEFAULT_TILE,
) -> SimUnit:
    """The :class:`SimUnit` equivalent of :func:`run_layer`'s arguments."""
    config = scheme_config(scheme, counter_cache_kb=counter_cache_kb)
    return _unit(traffic, scheme, config, tile)


def _unit(
    traffic: LayerTraffic, scheme: str, config: GpuConfig, tile: int
) -> SimUnit:
    return SimUnit(
        traffic=tag_traffic(traffic, config.encryption),
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
    are tagged for each scheme's config by :func:`tag_traffic` — the
    per-scheme re-lowering the serial runner used to do was pure
    recomputation.  Each scheme's config is resolved once, too.  All
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
        configs = [
            scheme_config(scheme, counter_cache_kb=counter_cache_kb)
            for scheme in schemes
        ]
        units = [
            _unit(traffic, scheme, config, tile)
            for scheme, config in zip(schemes, configs)
            for traffic in traffics
        ]
        owners = [scheme for scheme in schemes for _ in traffics]
        layer_results = run_units(units, jobs=jobs, cache=cache, metrics=metrics)
    metrics.count("runner.layer_sims", len(units))
    results = {
        scheme: ModelRunResult(model_name=plan.model_name, scheme=scheme)
        for scheme in schemes
    }
    for scheme, result in zip(owners, layer_results):
        results[scheme].layer_results.append(result)
    return results
