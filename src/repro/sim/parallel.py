"""Experiment runner over worker slots with a content-addressed simulation cache.

Every figure of the paper's evaluation is a fan-out of *independent* layer
simulations: a :class:`SimUnit` is one ``(tagged LayerTraffic, GpuConfig,
tile)`` triple, and :func:`run_units` hands a batch of them to
:func:`repro.faults.runner.run_hardened` — inline, or on forked worker
slots whose metrics and spans come back to the caller — merging results
deterministically in submission order regardless of completion order or
worker count.

Because a layer simulation is a pure function of its unit — the lowering
allocates a fresh :class:`~repro.core.memory.SecureHeap` every time and the
discrete-event simulation has no other state — identical units produce
bit-identical :class:`~repro.sim.gpu.SimResult` values.  That makes the
work content-addressable: :func:`cache_key` hashes the config, the traffic
record (minus its display name) and the tile size, and the
:class:`SimulationCache` returns the stored result for any repeat.  Two
kinds of repeats dominate in practice:

* repeated layers inside one model (ResNet's identical residual blocks),
* repeated baselines across a sweep (every encryption-ratio point shares
  the same Baseline/Direct/Counter traffic, since those schemes erase the
  plan's criticality split).

The display ``label`` is *not* part of the key; cached results are
re-labelled on the way out, so the output of a cached/parallel run is
field-for-field identical to a cold serial run (the golden suite in
``tests/sim/test_golden_ipc.py`` pins this).

Distinct units can still share their *lowering*: it reads only the
config's geometry, so Direct and Counter (and SEAL-D and SEAL-C) lower a
layer to the same streams.  :func:`run_units` runs the units of one
lowering key back to back, in order of first appearance, and
:func:`simulate_unit` reuses the previous unit's streams when the key
matches (``sim.lower.reused``), so each stream set is lowered once per
call on each process.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace

from ..core.keys import canonical_json
from ..core.memory import SecureHeap
from ..core.plan import LayerTraffic
from ..faults import RetryPolicy, run_hardened
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import get_tracer, instrument
from .config import GpuConfig
from .gpu import GpuSimulator, SimResult
from .workloads import DEFAULT_TILE, layer_streams

__all__ = [
    "SimUnit",
    "SimulationCache",
    "cache_key",
    "default_cache",
    "clear_default_cache",
    "resolve_jobs",
    "simulate_unit",
    "run_units",
]


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def cache_key(config: GpuConfig, traffic: LayerTraffic, tile: int = DEFAULT_TILE) -> str:
    """Content hash of one simulation unit (via :mod:`repro.core.keys`).

    The key covers every input the simulation depends on — the full
    :class:`GpuConfig` (including encryption mode, engine spec and counter
    cache geometry), every byte/MAC/GEMM field of the traffic record, and
    the tile size.  ``traffic.name`` is excluded: it only feeds display
    labels and heap-region names, neither of which affects the simulated
    numbers, and excluding it is what lets repeated same-shape layers share
    one simulation.
    """
    traffic_fields = {
        f.name: getattr(traffic, f.name) for f in fields(traffic) if f.name != "name"
    }
    # The text content_key would hash for {"config", "tile", "traffic"}:
    # its keys in sorted order around each value's canonical JSON.
    blob = (
        f'{{"config":{_config_json(config, repr(config))},'
        f'"tile":{canonical_json(tile)},"traffic":{canonical_json(traffic_fields)}}}'
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.lru_cache(maxsize=64)
def _config_json(config: GpuConfig, spelling: str) -> str:
    """A config's canonical JSON, encoded once per distinct config.

    Every unit of a sweep carries one of a few equal configs, so the memo
    turns the dominant cost of :func:`cache_key` into a lookup.
    ``spelling`` is ``repr(config)``: configs that compare equal can still
    encode differently (``1`` and ``1.0``, ``True`` and ``1``), so it keeps
    those apart.
    """
    return canonical_json(config)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SimulationCache:
    """Bounded, thread-safe, content-addressed store of :class:`SimResult`.

    Keys come from :func:`cache_key`; eviction is FIFO on insertion order,
    which is good enough for the sweep workloads this serves (the working
    set of distinct layer shapes is small).
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: OrderedDict[str, SimResult] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> SimResult | None:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return result

    def put(self, key: str, result: SimResult) -> None:
        with self._lock:
            self._entries[key] = result
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


#: Process-global cache shared by default across ``run_units`` calls so
#: sweep re-runs (same model, different ratio/scheme) reuse prior work.
_DEFAULT_CACHE = SimulationCache()


def default_cache() -> SimulationCache:
    return _DEFAULT_CACHE


def clear_default_cache() -> None:
    _DEFAULT_CACHE.clear()


def _resolve_cache(cache: SimulationCache | None | bool) -> SimulationCache | None:
    """``None`` → process-global cache; ``False`` → caching disabled."""
    if cache is None:
        return _DEFAULT_CACHE
    if cache is False:
        return None
    if isinstance(cache, SimulationCache):
        return cache
    raise TypeError(f"cache must be a SimulationCache, None, or False, got {cache!r}")


# ----------------------------------------------------------------------
# Units and execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimUnit:
    """One independent simulation: a tagged traffic record on one config.

    ``traffic`` must already be tagged for ``config``'s encryption (see
    :func:`repro.sim.runner.tag_traffic`); ``label`` is carried onto
    the resulting :class:`SimResult` and takes no part in caching.
    """

    traffic: LayerTraffic
    config: GpuConfig
    tile: int = DEFAULT_TILE
    label: str = ""

    def key(self) -> str:
        return cache_key(self.config, self.traffic, self.tile)


def _lowering_key(unit: SimUnit) -> tuple:
    """Everything :func:`~repro.sim.workloads.layer_streams` reads of a
    unit: the config's four geometry fields, the tagged traffic without
    its name and the tile.  The name does not reach the streams (it only
    names the throwaway heap's regions), so it is left out, as
    :func:`cache_key` leaves it out.  Units that differ only in the
    memory controller's engine, or in the name of a same-shape layer,
    share one stream set."""
    config = unit.config
    return (
        config.num_sms,
        config.line_bytes,
        config.macs_per_sm_per_cycle,
        config.num_channels,
        replace(unit.traffic, name=""),
        unit.tile,
    )


#: The last stream set :func:`simulate_unit` lowered, as ``(lowering key,
#: LoweredStreams)``: a one-entry memo, so a unit whose lowering key
#: matches its predecessor's skips the lowering.  Streams are never
#: mutated by a run; :func:`run_units` empties the memo around each
#: fan-out, so its counts do not depend on earlier calls.
_last_lowering: tuple | None = None


def simulate_unit(unit: SimUnit) -> SimResult:
    """Run one unit cold (no result cache, current process).

    Lowering is timed as ``sim.lower``, or counted as ``sim.lower.reused``
    when the previous unit lowered the same stream set;
    :meth:`GpuSimulator.run` times the ``sim.compile`` and ``sim.kernel``
    stages after it.
    """
    global _last_lowering
    tracer = get_tracer()
    with tracer.span(
        "sim.unit", {"label": unit.label, "tile": unit.tile} if tracer.enabled else None
    ):
        simulator = GpuSimulator(unit.config)
        key = _lowering_key(unit)
        last = _last_lowering
        if last is not None and last[0] == key:
            streams = last[1]
            get_metrics().count("sim.lower.reused")
        else:
            _last_lowering = None  # free the old set before lowering the next
            with instrument("sim.lower"):
                streams = layer_streams(
                    unit.config, unit.traffic, tile=unit.tile, heap=SecureHeap()
                )
            _last_lowering = (key, streams)
        return simulator.run(streams, label=unit.label)


def _timed_unit(unit: SimUnit) -> SimResult:
    """The unit worker: :func:`simulate_unit` (looked up per call), timed
    as ``parallel.unit`` in the ambient registry — the caller's inline, a
    worker slot's otherwise."""
    with get_metrics().timer("parallel.unit"):
        return simulate_unit(unit)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` → CPU count."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be a positive integer, 0, or None")
    return jobs


def run_units(
    units: list[SimUnit] | tuple[SimUnit, ...],
    *,
    jobs: int | None = 1,
    cache: SimulationCache | None | bool = None,
    metrics: MetricsRegistry | None = None,
    policy: RetryPolicy | None = None,
) -> list[SimResult]:
    """Execute simulation units, deduplicated and (optionally) in parallel.

    Results come back in submission order — ``results[i]`` belongs to
    ``units[i]`` — independent of worker count and completion order.  Units
    whose cache key already resolved (earlier in this batch, or in a prior
    call through ``cache``) are not re-simulated; their stored result is
    re-labelled with the unit's own label.  Per-unit hit/miss counts land
    in ``metrics`` under ``sim.cache.hits`` / ``sim.cache.misses``.

    Execution is hardened (see :mod:`repro.faults.runner`): ``policy``
    grants per-unit retries and timeouts, a crashed worker only charges the
    units that were in flight, and a unit that fails permanently raises a
    :class:`~repro.faults.UnitExecutionError` naming its cache key — after
    every other unit has completed and been written to ``cache``.
    """
    global _last_lowering
    units = list(units)
    jobs = resolve_jobs(jobs)
    metrics = metrics if metrics is not None else get_metrics()
    store = _resolve_cache(cache)

    keys = [unit.key() for unit in units]
    resolved: dict[str, SimResult] = {}
    pending: "OrderedDict[str, SimUnit]" = OrderedDict()
    for unit, key in zip(units, keys):
        if key in resolved or key in pending:
            continue
        stored = store.get(key) if store is not None else None
        if stored is not None:
            resolved[key] = stored
        else:
            pending[key] = unit

    computed: set[str] = set(pending)
    if pending:
        # Units sharing a stream set run back to back (groups in order of
        # first appearance), so simulate_unit lowers each set once.
        groups: dict[tuple, list] = {}
        for key, unit in pending.items():
            groups.setdefault(_lowering_key(unit), []).append((key, unit.label, unit))
        todo = [entry for group in groups.values() for entry in group]

        def deliver(key: str, unit: object, result: SimResult) -> None:
            resolved[key] = result
            if store is not None:
                store.put(key, result)

        with instrument(
            "parallel.compute",
            {"units": len(units), "pending": len(todo), "jobs": jobs},
            metrics=metrics,
        ):
            _last_lowering = None
            try:
                run_hardened(
                    _timed_unit,
                    todo,
                    jobs=jobs,
                    policy=policy,
                    metrics=metrics,
                    on_result=deliver,
                )
            finally:
                _last_lowering = None

    first_compute_claimed: set[str] = set()
    merged: list[SimResult] = []
    for unit, key in zip(units, keys):
        if key in computed and key not in first_compute_claimed:
            first_compute_claimed.add(key)
            metrics.count("sim.cache.misses")
        else:
            metrics.count("sim.cache.hits")
        merged.append(replace(resolved[key], label=unit.label))
    metrics.count("parallel.units", len(units))
    return merged
