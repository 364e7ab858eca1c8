"""Counters, wall-clock timers, and cache statistics with JSON emission.

The experiment harness (:mod:`repro.sim.parallel`, :func:`repro.sim.runner
.run_model`, ``repro.eval.experiments``, the security sweep in
:mod:`repro.attacks.sweep` and substitute training in
:mod:`repro.nn.training` / :mod:`repro.attacks.augmentation`) records what
it does into a process-wide :class:`MetricsRegistry`.  A registry serialises to a stable
JSON document (``schema`` = :data:`METRICS_SCHEMA`) so benchmark scripts and
the CLI can persist machine-readable run trajectories::

    {
      "schema": "repro.metrics/v1",
      "counters": {"sim.kernel_runs": 110, "sim.cache.hits": 35, ...},
      "timers": {"sim.kernel": {"count": 75, "total_seconds": 1.9, ...}},
      "derived": {"cache_hit_rate": 0.318, ...}
    }

Counter names are dotted paths (``component.event``).  The registry is
deliberately tiny — a dict of ints and a dict of timer aggregates behind a
lock — so hooking it into the simulator's hot path costs microseconds.
Worker processes record into their own registries and the parent merges
their snapshots or deltas (see :meth:`MetricsRegistry.merge` and
:meth:`MetricsRegistry.delta`).
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

__all__ = [
    "METRICS_SCHEMA",
    "RESERVOIR_SIZE",
    "WINDOW_MAX_SAMPLES",
    "TimerStat",
    "WindowedTimerStat",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "reset_metrics",
]

#: Version tag written into every emitted metrics document.
METRICS_SCHEMA = "repro.metrics/v1"

#: Bounded per-timer reservoir feeding the p50/p95/p99 estimates — large
#: enough for stable tail estimates on the workloads here, small enough
#: that a serialised timer stays a few hundred bytes.
RESERVOIR_SIZE = 64

#: Memory bound on a :class:`WindowedTimerStat`'s in-window sample list.
WINDOW_MAX_SAMPLES = 2048


@dataclass
class TimerStat:
    """Aggregate of one named timer: count / total / min / max seconds,
    plus a bounded reservoir sample feeding p50/p95/p99 estimates.

    The reservoir holds at most :data:`RESERVOIR_SIZE` observations,
    selected by standard reservoir sampling with a deterministic RNG (the
    same observation sequence always keeps the same sample, so parallel
    and serial runs of identical work serialise identically).  Quantiles
    are nearest-rank estimates over the sample — exact below
    ``RESERVOIR_SIZE`` observations, approximate above.
    """

    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = math.inf
    max_seconds: float = 0.0
    samples: list[float] = field(default_factory=list, repr=False)
    _rng: random.Random = field(
        default_factory=lambda: random.Random(0x5EA1), repr=False, compare=False
    )

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)
        if len(self.samples) < RESERVOIR_SIZE:
            self.samples.append(seconds)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self.samples[slot] = seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate from the reservoir (0.0 empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def to_dict(self) -> dict[str, object]:
        min_seconds = self.min_seconds if math.isfinite(self.min_seconds) else 0.0
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "min_seconds": min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
            "samples": list(self.samples),
        }

    def merge(self, other: dict[str, object]) -> None:
        """Fold a serialised :meth:`to_dict` aggregate into this one.

        Robust to hand-built or partial aggregates: a missing or
        non-finite ``min_seconds`` never poisons this side's minimum (the
        historical bug left ``min_seconds = inf`` on a stat whose only
        observations arrived via merge, which then serialised as the
        non-JSON token ``Infinity``), and min/max are only consulted on
        the side that actually observed something.
        """
        count = int(other.get("count", 0))  # type: ignore[arg-type]
        if count <= 0:
            return
        self.count += count
        self.total_seconds += float(other.get("total_seconds", 0.0))  # type: ignore[arg-type]
        other_min = float(other.get("min_seconds", math.inf))  # type: ignore[arg-type]
        if math.isfinite(other_min):
            self.min_seconds = min(self.min_seconds, other_min)
        self.max_seconds = max(self.max_seconds, float(other.get("max_seconds", 0.0)))  # type: ignore[arg-type]
        self._merge_samples(other.get("samples") or ())  # type: ignore[arg-type]

    def _merge_samples(self, samples: Sequence[float]) -> None:
        """Fold another reservoir in, keeping quantile structure.

        Oversized unions are compacted to evenly-spaced order statistics of
        the sorted union — a deterministic sketch compaction that
        preserves quantile estimates far better than random eviction.
        """
        if not samples:
            return
        union = self.samples + [
            float(value) for value in samples if math.isfinite(float(value))
        ]
        if len(union) == len(self.samples):
            return
        if len(union) <= RESERVOIR_SIZE:
            self.samples = union
            return
        union.sort()
        step = (len(union) - 1) / (RESERVOIR_SIZE - 1)
        self.samples = [union[round(index * step)] for index in range(RESERVOIR_SIZE)]


@dataclass
class WindowedTimerStat:
    """Rolling *last-N-seconds* timer aggregate (vs the cumulative
    :class:`TimerStat`).

    Each observation is stored with its wall-clock timestamp; every read
    first prunes entries older than ``window_seconds``, so ``count`` /
    quantiles describe only the trailing window.  Edge cases are pinned
    down by ``tests/obs/test_live.py``:

    * ``quantile()`` over an empty window returns ``0.0`` — defined, never
      a raise and never ``inf``;
    * ``merge()`` of another windowed stat drops incoming samples whose
      timestamps have already fallen outside the window, so merging a
      stale snapshot cannot resurrect old latency into current quantiles;
    * the sample list is bounded at ``max_samples`` (oldest evicted first).

    A ``clock`` is injectable for deterministic tests; production code
    uses ``time.time``.
    """

    window_seconds: float = 60.0
    max_samples: int = WINDOW_MAX_SAMPLES
    samples: list[tuple[float, float]] = field(default_factory=list, repr=False)
    clock: Callable[[], float] = field(default=time.time, repr=False, compare=False)

    def observe(self, seconds: float, now: float | None = None) -> None:
        if not math.isfinite(seconds):
            return
        now = self.clock() if now is None else now
        self.samples.append((now, seconds))
        self.prune(now)

    def prune(self, now: float | None = None) -> None:
        """Drop samples that have aged out of the window (or over budget)."""
        now = self.clock() if now is None else now
        horizon = now - self.window_seconds
        if self.samples and self.samples[0][0] < horizon:
            self.samples = [item for item in self.samples if item[0] >= horizon]
        if len(self.samples) > self.max_samples:
            del self.samples[: len(self.samples) - self.max_samples]

    def count(self, now: float | None = None) -> int:
        self.prune(now)
        return len(self.samples)

    def quantile(self, q: float, now: float | None = None) -> float:
        """Nearest-rank quantile over the window; ``0.0`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        self.prune(now)
        if not self.samples:
            return 0.0
        ordered = sorted(value for _, value in self.samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def snapshot(self, now: float | None = None) -> dict[str, object]:
        """JSON-ready window aggregate (all fields finite, even empty)."""
        now = self.clock() if now is None else now
        self.prune(now)
        values = [value for _, value in self.samples]
        total = sum(values)
        n = len(values)
        return {
            "window_seconds": self.window_seconds,
            "count": n,
            "total_seconds": total,
            "min_seconds": min(values) if values else 0.0,
            "max_seconds": max(values) if values else 0.0,
            "mean_seconds": total / n if n else 0.0,
            "p50_seconds": self.quantile(0.50, now),
            "p95_seconds": self.quantile(0.95, now),
            "p99_seconds": self.quantile(0.99, now),
        }

    def to_dict(self, now: float | None = None) -> dict[str, object]:
        """:meth:`snapshot` plus the timestamped samples, for merging."""
        doc = self.snapshot(now)
        doc["samples"] = [list(item) for item in self.samples]
        return doc

    def merge(
        self, other: "WindowedTimerStat | dict[str, object]", now: float | None = None
    ) -> None:
        """Fold another windowed stat (or its :meth:`to_dict`) into this one.

        Incoming samples older than the window *as of now* are dropped —
        merging never resurrects expired observations — and non-finite
        values are filtered so a hand-built document cannot poison the
        quantiles.
        """
        now = self.clock() if now is None else now
        if isinstance(other, WindowedTimerStat):
            incoming: Sequence[object] = other.samples
        else:
            incoming = other.get("samples") or ()  # type: ignore[assignment]
        horizon = now - self.window_seconds
        for item in incoming:
            try:
                stamp, value = float(item[0]), float(item[1])  # type: ignore[index]
            except (TypeError, ValueError, IndexError):
                continue
            if stamp < horizon or not math.isfinite(value) or not math.isfinite(stamp):
                continue
            self.samples.append((stamp, value))
        self.samples.sort(key=lambda item: item[0])
        self.prune(now)


@dataclass
class MetricsRegistry:
    """Thread-safe bag of named counters and wall-clock timers."""

    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, TimerStat] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    # Optional observation tap for the live telemetry plane
    # (repro.obs.live).  ``None`` when telemetry is off — the hot path
    # then pays one attribute load and a falsy branch, which is what the
    # <2% disabled-overhead guard in tests/obs/test_live_overhead.py
    # measures.
    _tap: Callable[[str, float], None] | None = field(
        default=None, repr=False, compare=False
    )

    # -- recording ------------------------------------------------------
    def count(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Record one ``seconds``-long observation under timer ``name``."""
        with self._lock:
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat()
            stat.observe(seconds)
            tap = self._tap
        if tap is not None:
            # Called outside the registry lock: taps take their own locks
            # (the TelemetryHub's rolling windows) and must not nest ours.
            tap(name, seconds)

    # -- live-telemetry tap ---------------------------------------------
    def install_tap(self, tap: Callable[[str, float], None] | None) -> None:
        """Install (or clear, with ``None``) the observation tap.

        At most one tap is active; installing replaces the previous one.
        The tap receives ``(timer_name, seconds)`` for every
        :meth:`observe` call and must be fast and exception-free.
        """
        with self._lock:
            self._tap = tap

    def remove_tap(self, tap: Callable[[str, float], None]) -> None:
        """Clear the tap iff ``tap`` is the one currently installed.

        Equality, not identity: taps are typically bound methods, and
        every ``hub._on_observe`` access builds a fresh bound-method
        object that is ``==`` but never ``is`` the installed one.
        """
        with self._lock:
            if self._tap == tap:
                self._tap = None

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing its body into timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reading / serialising ------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def cache_hit_rate(self) -> float:
        """Hits / (hits + misses) over the ``sim.cache.*`` counters."""
        with self._lock:
            hits = self.counters.get("sim.cache.hits", 0)
            misses = self.counters.get("sim.cache.misses", 0)
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict[str, object]:
        """JSON-ready view of everything recorded so far."""
        with self._lock:
            counters = dict(sorted(self.counters.items()))
            timers = {
                name: stat.to_dict() for name, stat in sorted(self.timers.items())
            }
        def ratio(numerator: float, denominator: float) -> float | None:
            """Guarded division: every derived ratio goes through here, so
            a zero or missing denominator yields absence, never a crash."""
            if not denominator:
                return None
            return numerator / denominator

        derived: dict[str, float] = {"cache_hit_rate": self.cache_hit_rate()}
        kernel = timers.get("sim.kernel")
        if kernel:
            derived["mean_kernel_seconds"] = kernel["mean_seconds"]
        cell = timers.get("sweep.cell")
        if cell:
            derived["mean_cell_seconds"] = cell["mean_seconds"]
        queries = counters.get("attack.queries")
        if queries and cell:
            queries_per_cell = ratio(queries, cell["count"])
            if queries_per_cell is not None:
                derived["queries_per_cell"] = queries_per_cell
        detection = ratio(
            counters.get("faults.detected", 0), counters.get("faults.injected", 0)
        )
        if detection is not None:
            derived["fault_detection_rate"] = detection
        retry_rate = ratio(
            counters.get("runner.retries", 0), counters.get("runner.attempts", 0)
        )
        if retry_rate is not None:
            derived["runner_retry_rate"] = retry_rate
        ctr = timers.get("crypto.ctr")
        if ctr:
            ctr_rate = ratio(
                counters.get("crypto.ctr.blocks", 0), ctr["total_seconds"]
            )
            if ctr_rate:
                derived["crypto_ctr_blocks_per_second"] = ctr_rate
        gmac = timers.get("crypto.gmac")
        if gmac:
            gmac_rate = ratio(
                counters.get("crypto.gmac.tags", 0), gmac["total_seconds"]
            )
            if gmac_rate:
                derived["crypto_gmac_tags_per_second"] = gmac_rate
        # Serving front end (docs/serving.md; populated by `repro serve`).
        request = timers.get("serve.request")
        if request:
            derived["serve_request_p50_seconds"] = request["p50_seconds"]
            derived["serve_request_p99_seconds"] = request["p99_seconds"]
        batch_mean = ratio(
            counters.get("serve.batch.requests", 0),
            counters.get("serve.batches", 0),
        )
        if batch_mean is not None:
            derived["serve_batch_mean_requests"] = batch_mean
        admitted = counters.get("serve.requests.total")
        if admitted:
            derived["serve_rejection_rate"] = (
                counters.get("serve.requests.rejected.backpressure", 0)
                + counters.get("serve.requests.rejected.quota", 0)
            ) / admitted
        batch = timers.get("serve.batch")
        if batch:
            lines_rate = ratio(
                counters.get("serve.lines.sealed", 0)
                + counters.get("serve.lines.unsealed", 0)
                + counters.get("serve.lines.verified", 0),
                batch["total_seconds"],
            )
            if lines_rate:
                derived["serve_lines_per_second"] = lines_rate
        return {
            "schema": METRICS_SCHEMA,
            "counters": counters,
            "timers": timers,
            "derived": derived,
        }

    def delta(self) -> dict[str, object]:
        """Counters and raw timer aggregates recorded since the last call,
        then cleared.

        The per-item payload of a long-lived worker slot
        (:mod:`repro.faults.worker`): no derived ratios, sorting or
        quantiles.  The parent folds it with :meth:`merge`, as it would a
        :meth:`snapshot`.
        """
        with self._lock:
            counters, self.counters = self.counters, {}
            timers, self.timers = self.timers, {}
        fields = ("count", "total_seconds", "min_seconds", "max_seconds", "samples")
        return {
            "counters": counters,
            "timers": {
                name: {field: getattr(stat, field) for field in fields}
                for name, stat in timers.items()
            },
        }

    def merge(self, snapshot: dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` or :meth:`delta` into
        this registry.

        Used to aggregate worker-process metrics into the parent.  The
        observation tap does not see merged timers.
        """
        for name, value in (snapshot.get("counters") or {}).items():  # type: ignore[union-attr]
            self.count(name, int(value))
        with self._lock:
            for name, agg in (snapshot.get("timers") or {}).items():  # type: ignore[union-attr]
                stat = self.timers.get(name)
                if stat is None:
                    stat = self.timers[name] = TimerStat()
                stat.merge(agg)

    def emit(self, path: str | Path) -> Path:
        """Write the snapshot as JSON to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n")
        return path

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.timers.clear()
            self._tap = None


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------
_GLOBAL = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry all instrumentation hooks record into."""
    return _GLOBAL


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Worker processes install a fresh registry so their instrumentation can
    be snapshotted and merged back into the parent without double counting.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


def reset_metrics() -> MetricsRegistry:
    """Clear the process-wide registry (tests, CLI runs) and return it."""
    _GLOBAL.reset()
    return _GLOBAL
