"""Hardened unit execution: timeouts, bounded retry, crash isolation.

:func:`repro.sim.parallel.run_units` and :func:`repro.attacks.sweep
.run_sweep` both fan independent, content-keyed units over worker
processes — the long-lived slots of :mod:`repro.faults.worker`, one unit
in flight per slot.  A plain process pool shares its failure modes among
the units: one raising worker surfaces as a bare traceback with no unit
named, a crashed worker aborts every in-flight unit, and a hung worker
stalls the run forever.  :func:`run_hardened` is the shared execution
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

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..obs.events import get_events
from ..obs.metrics import MetricsRegistry, get_metrics
from .worker import SlotCrashed, SlotPool

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
    ``jobs == 1`` everything runs inline in this process (no timeout
    enforcement — there is no second process to preempt from); otherwise
    units run on ``min(jobs, len(todo))`` forked worker slots
    (:class:`~repro.faults.worker.SlotPool`), which inherit ``worker``
    and receive the pickled items; results must be picklable too.

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

    if jobs <= 1 or len(todo) == 1:
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
    else:
        _run_pool(
            worker,
            todo,
            jobs=jobs,
            policy=policy,
            metrics=metrics,
            prefix=prefix,
            deliver=deliver,
            attempt_failed=attempt_failed,
            note_started=note_started,
        )

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


def _run_pool(
    worker: Callable,
    todo: Sequence[tuple[str, str, object]],
    *,
    jobs: int,
    policy: RetryPolicy,
    metrics: MetricsRegistry,
    prefix: str,
    deliver: Callable[[str, object], None],
    attempt_failed: Callable[[str, int, str, BaseException | None], bool],
    note_started: Callable[[str], None] = lambda key: None,
) -> None:
    items = {key: item for key, _, item in todo}
    attempts = dict.fromkeys(items, 0)
    ready = deque(items)
    retry_at: list[tuple[float, str]] = []  # (release time, key)
    timeout = policy.timeout_seconds

    def failed(key: str, kind: str, cause: BaseException | None) -> None:
        if attempt_failed(key, attempts[key], kind, cause):
            retry_at.append((time.monotonic() + policy.backoff(attempts[key]), key))

    pool = SlotPool(
        worker,
        min(jobs, len(todo)),
        on_restart=lambda: metrics.count(f"{prefix}.pool_restarts"),
    )
    try:
        while ready or retry_at or pool.busy:
            now = time.monotonic()
            ready.extend(key for release, key in retry_at if release <= now)
            retry_at = [entry for entry in retry_at if entry[0] > now]
            for index in pool.idle()[: len(ready)]:
                key = ready.popleft()
                attempts[key] += 1
                metrics.count(f"{prefix}.attempts")
                if attempts[key] == 1:
                    note_started(key)
                pool.submit(index, key, items[key])

            # Sleep until a reply, the next retry release or the first
            # unit deadline, whichever comes first.
            wakeups = [release for release, _ in retry_at]
            if timeout is not None:
                wakeups += [started + timeout for _, started in pool.busy.values()]
            wait_for = max(0.0, min(wakeups) - now) if wakeups else None
            if not pool.busy:
                time.sleep(wait_for or 0.0)
                continue
            for key, ok, value in pool.wait(wait_for):
                if ok:
                    deliver(key, value)
                else:
                    failed(key, "crash" if isinstance(value, SlotCrashed) else "error", value)

            if timeout is not None:
                now = time.monotonic()
                for index, (key, started) in list(pool.busy.items()):
                    if now - started >= timeout:
                        pool.kill(index)  # the only way to reclaim the slot
                        failed(key, "timeout", None)
    finally:
        pool.stop()
