"""Hardened unit execution: timeouts, bounded retry, crash isolation.

:func:`repro.sim.parallel.run_units` and :func:`repro.attacks.sweep
.run_sweep` both fan independent, content-keyed units over worker
processes — the long-lived slots of :mod:`repro.faults.worker`, one unit
in flight per slot, driven from one :func:`asyncio.run` per fan-out.  A
plain process pool shares its failure modes among the units: one raising
worker surfaces as a bare traceback with no unit named, a crashed worker
aborts every in-flight unit, and a hung worker stalls the run forever.  :func:`run_hardened` is the shared execution
layer that fixes all three:

* **named failures** — any unit that fails permanently is reported as a
  :class:`UnitExecutionError` carrying the unit's cache key and label, so
  the operator knows exactly which checkpoint/cache entry to look at;
* **bounded retry with deterministic backoff** — :class:`RetryPolicy`
  grants each unit ``max_attempts`` tries with ``backoff_seconds ×
  backoff_factor^(attempt-1)`` pauses (no jitter: identical runs retry at
  identical offsets);
* **per-unit timeout** — a unit running past ``timeout_seconds`` is
  killed with its slot, which is forked afresh for the next unit;
* **one worker, two places** — the same ``worker`` runs inline (with the
  caller's registry installed as the ambient one) or in a slot, wrapped
  in :func:`~repro.faults.worker.traced_delta` after the chaos probe; the
  slot's metrics delta is merged into the caller's registry and its spans
  are re-rooted under the caller's current span, so every delivered unit
  lands the same metrics and one trace tree either way (a failed slot
  attempt ships none);
* **crash isolation** — a slot that dies is restarted alone and only the
  unit it was running is charged; units on other slots run on
  undisturbed.  A *poisoned* unit (one that fails on every attempt) fails
  alone, after every other unit has completed and been delivered through
  ``on_result`` — which is what lets callers checkpoint the survivors
  before the error propagates.

Counters land in the caller's metrics registry under a shared prefix
(default ``runner``): ``runner.attempts``, ``runner.retries``,
``runner.failures``, ``runner.timeouts``, ``runner.crashes``,
``runner.pool_restarts`` (one per slot restarted after a crash or a
timeout kill).

Progress is also *streamed* as ``repro.events/v1`` events
(:mod:`repro.obs.events`) so a long fan-out is watchable live (``repro
top``, ``--events-out``): ``unit.started`` on a unit's first attempt,
``unit.finished`` on delivery, ``unit.retried`` per granted retry, and
``unit.failed`` when a unit is declared poisoned — each carrying the
unit's short key, label, and the campaign prefix.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from ..obs.events import get_events
from ..obs.metrics import MetricsRegistry, get_metrics, set_metrics
from ..obs.trace import get_tracer
from .chaos import chaos_probe
from .worker import AsyncSlotPool, SlotCrashed, SlotTimeout, traced_delta

__all__ = ["RetryPolicy", "UnitExecutionError", "run_hardened"]

@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a unit poisoned.

    The default policy preserves the historical behaviour — one attempt,
    no timeout — so hardening is opt-in per call site; crash isolation and
    named failures apply regardless.
    """

    max_attempts: int = 1
    timeout_seconds: float | None = None
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.backoff_seconds < 0 or self.backoff_factor <= 0:
            raise ValueError("backoff must be non-negative, factor positive")

    def backoff(self, attempt: int) -> float:
        """Deterministic pause before retry number ``attempt`` (1-based)."""
        return self.backoff_seconds * self.backoff_factor ** (attempt - 1)


class UnitExecutionError(RuntimeError):
    """A unit failed permanently; the unit's cache key names the culprit.

    ``kind`` is ``"error"`` (the worker raised), ``"timeout"`` (the worker
    exceeded the per-unit budget) or ``"crash"`` (the worker process
    died).  ``more_failures`` lists any further units that also failed in
    the same run — everything else completed and was delivered.
    """

    def __init__(
        self,
        key: str,
        label: str,
        attempts: int,
        kind: str,
        cause: BaseException | None = None,
        more_failures: Sequence["UnitExecutionError"] = (),
    ) -> None:
        self.key = key
        self.label = label
        self.attempts = attempts
        self.kind = kind
        self.cause = cause
        self.more_failures = tuple(more_failures)
        message = (
            f"unit {label or key!r} (key {key[:16]}) failed after "
            f"{attempts} attempt(s) [{kind}]"
        )
        if cause is not None:
            message += f": {cause!r}"
        if self.more_failures:
            others = ", ".join(f.label or f.key[:16] for f in self.more_failures)
            message += f" (+{len(self.more_failures)} more failed unit(s): {others})"
        super().__init__(message)


@dataclass
class _Failure:
    key: str
    label: str
    attempts: int
    kind: str
    cause: BaseException | None


_FAILURE_COUNTERS = {"error": "failures", "timeout": "timeouts", "crash": "crashes"}


def _slot_unit(worker: Callable, message: tuple[str, str, object]) -> tuple[object, dict, list[dict]]:
    """Slot side of one unit: the chaos probe (a no-op unless
    ``REPRO_CHAOS`` is set), then ``worker`` with its metrics delta and
    spans."""
    key, label, item = message
    chaos_probe(key, label)
    return traced_delta(worker, item)


def run_hardened(
    worker: Callable,
    todo: Sequence[tuple[str, str, object]],
    *,
    jobs: int = 1,
    policy: RetryPolicy | None = None,
    metrics: MetricsRegistry | None = None,
    prefix: str = "runner",
    on_result: Callable[[str, object, object], None] | None = None,
    event_prefix: str = "unit",
) -> dict[str, object]:
    """Execute ``worker(item)`` for every ``(key, label, item)`` in ``todo``.

    Returns ``{key: result}``.  ``on_result(key, item, result)`` fires the
    moment each unit completes (checkpoint/cache hook) — including for
    units that complete before some other unit fails permanently.  With
    ``jobs == 1`` everything runs inline in this process, with ``metrics``
    as the ambient registry (no timeout enforcement — there is no second
    process to preempt from); otherwise units run on ``min(jobs,
    len(todo))`` forked worker slots, one unit in flight each, which
    inherit ``worker`` and receive the pickled items; results must be
    picklable too.

    Raises :class:`UnitExecutionError` for the first permanently-failed
    unit (others attached via ``more_failures``) only after every
    remaining unit has been driven to completion.
    """
    policy = policy or RetryPolicy()
    metrics = metrics if metrics is not None else get_metrics()
    events = get_events()
    failures: list[_Failure] = []
    results: dict[str, object] = {}
    items = {key: item for key, _, item in todo}
    labels = {key: label for key, label, _ in todo}

    def deliver(key: str, value: object) -> None:
        results[key] = value
        events.emit(
            f"{event_prefix}.finished",
            key=key[:16],
            label=labels[key],
            campaign=prefix,
        )
        if on_result is not None:
            on_result(key, items[key], value)

    def attempt_failed(key: str, attempts: int, kind: str, cause: BaseException | None) -> bool:
        """Record one failed attempt; True if the unit may retry."""
        metrics.count(f"{prefix}.{_FAILURE_COUNTERS[kind]}")
        if attempts < policy.max_attempts:
            metrics.count(f"{prefix}.retries")
            events.emit(
                f"{event_prefix}.retried",
                key=key[:16],
                label=labels[key],
                campaign=prefix,
                attempt=attempts,
                kind=kind,
            )
            return True
        failures.append(_Failure(key, labels[key], attempts, kind, cause))
        events.emit(
            f"{event_prefix}.failed",
            key=key[:16],
            label=labels[key],
            campaign=prefix,
            attempts=attempts,
            kind=kind,
        )
        return False

    def note_started(key: str) -> None:
        events.emit(
            f"{event_prefix}.started",
            key=key[:16],
            label=labels[key],
            campaign=prefix,
        )

    async def run_pool(width: int) -> None:
        # One call per slot: a crash or a timeout charges only its own
        # unit.  The gate wakes waiters in order, so units start in
        # ``todo`` order and a retry queues behind those already waiting.
        pool = AsyncSlotPool(
            partial(_slot_unit, worker),
            width,
            on_restart=lambda: metrics.count(f"{prefix}.pool_restarts"),
        )
        gate = asyncio.Semaphore(width)
        tracer = get_tracer()

        async def run(key: str, label: str, item: object) -> None:
            attempts = 0
            while True:
                async with gate:
                    attempts += 1
                    metrics.count(f"{prefix}.attempts")
                    if attempts == 1:
                        note_started(key)
                    try:
                        value, delta, spans = await pool.call(
                            (key, label, item), policy.timeout_seconds
                        )
                    except SlotTimeout:  # the slot was killed with the unit
                        kind, cause = "timeout", None
                    except SlotCrashed as error:
                        kind, cause = "crash", error
                    except Exception as error:  # noqa: BLE001 — wrapped below
                        kind, cause = "error", error
                    else:
                        metrics.merge(delta)
                        tracer.adopt(spans)  # under the caller's current span
                        deliver(key, value)
                        return
                    if not attempt_failed(key, attempts, kind, cause):
                        return
                await asyncio.sleep(policy.backoff(attempts))

        units = [asyncio.ensure_future(run(*unit)) for unit in todo]
        try:
            await asyncio.gather(*units)
        finally:
            for unit in units:
                unit.cancel()
            await pool.stop()

    if jobs <= 1 or len(todo) == 1:
        previous = set_metrics(metrics)
        try:
            for key, _, item in todo:
                attempts = 0
                note_started(key)
                while True:
                    attempts += 1
                    metrics.count(f"{prefix}.attempts")
                    try:
                        value = worker(item)
                    except Exception as error:  # noqa: BLE001 — wrapped below
                        if attempt_failed(key, attempts, "error", error):
                            time.sleep(policy.backoff(attempts))
                            continue
                        break
                    deliver(key, value)
                    break
        finally:
            set_metrics(previous)
    else:
        asyncio.run(run_pool(min(jobs, len(todo))))

    if failures:
        errors = [
            UnitExecutionError(f.key, f.label, f.attempts, f.kind, f.cause)
            for f in failures
        ]
        first = failures[0]
        raise UnitExecutionError(
            first.key, first.label, first.attempts, first.kind, first.cause,
            more_failures=errors[1:],
        )
    return results
