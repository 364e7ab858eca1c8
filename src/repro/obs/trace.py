"""Hierarchical tracing: spans, cross-process re-rooting, two exporters.

Where :mod:`repro.obs.metrics` answers *how much* (flat counters and timer
aggregates), this module answers *where*: a :class:`Span` is one named,
timed region of a run — a scheme comparison, one layer's kernel
simulation, a sweep cell, a crypto batch — with a parent pointer, so a
whole run serialises as a tree and a profile viewer can show exactly where
wall-clock goes.  The design mirrors :class:`~repro.obs.metrics
.MetricsRegistry`: one process-wide :class:`Tracer` behind a lock,
**disabled by default**, with a no-op fast path cheap enough to leave the
instrumentation permanently wired into the simulator's hot paths (the
guard test in ``tests/obs/test_trace_overhead.py`` pins the disabled
overhead below 2 % of a small sim benchmark).

Worker propagation
------------------
The parallel fan-outs (:func:`repro.sim.parallel.run_units`,
:func:`repro.attacks.sweep.run_sweep`) run units in worker processes.  A
worker builds its own enabled tracer (workers detect the parent's tracing
request through the :data:`TRACE_ENV_VAR` environment variable, which
survives both fork and spawn), serialises its finished spans with
:meth:`Tracer.span_dicts`, and ships them back next to its metrics
snapshot.  The parent then calls :meth:`Tracer.adopt`, which **re-roots**
the worker's span trees: every root span's ``parent_id`` is rewritten to
the dispatching span's id and every span joins the parent's trace, so the
merged document reads as one tree no matter how many processes produced
it.  Each worker keeps its own ``pid`` label (``worker-<os pid>``) so the
Chrome export renders one process row per worker.

Emission
--------
Two formats, both derived from the same :meth:`Tracer.snapshot` document:

* :func:`write_trace` — ``repro.trace/v1`` JSON (schema in
  ``docs/tracing.md``), the machine-readable record ``repro report``
  consumes;
* :func:`write_chrome_trace` — Chrome trace-event format, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``, with
  process/thread name metadata rows.

>>> tracer = Tracer(enabled=True, process="doctest")
>>> with tracer.span("outer") as outer:
...     with tracer.span("inner", attrs={"layer": "conv1"}) as inner:
...         inner.event("cache.miss", {"address": 64})
>>> [s.name for s in tracer.finished_spans()]
['inner', 'outer']
>>> tracer.finished_spans()[0].parent_id == outer.span_id
True
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import ContextManager, Iterator, Sequence

from .metrics import MetricsRegistry, get_metrics

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_ENV_VAR",
    "SpanEvent",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "reset_tracer",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "worker_tracer",
    "instrument",
    "chrome_trace_events",
    "write_trace",
    "write_chrome_trace",
    "write_trace_document",
]

#: Version tag written into every emitted trace document.
TRACE_SCHEMA = "repro.trace/v1"

#: Set (to any non-empty value) while tracing is on, so worker processes —
#: forked *or* spawned after the flag is set — know to record spans too.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Per-span cap on recorded events; extras are dropped (the span notes how
#: many) so a pathological loop cannot balloon a trace document.
MAX_EVENTS_PER_SPAN = 256


@dataclass
class SpanEvent:
    """One point-in-time annotation inside a span (cache miss, injection)."""

    name: str
    time: float  # wall-clock epoch seconds
    attrs: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "time": self.time, "attrs": self.attrs}


@dataclass
class Span:
    """One named, timed region of a run.

    ``start`` is wall-clock epoch seconds (comparable across processes on
    one machine); ``duration`` is measured with the monotonic clock, so it
    is immune to wall-clock steps.  ``pid``/``tid`` are *display* rows for
    the Chrome export (process label, thread/SM label) — they take no part
    in the tree structure, which lives entirely in ``parent_id``.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float
    duration: float = 0.0
    attrs: dict[str, object] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    pid: str = "main"
    tid: str = "main"
    dropped_events: int = 0
    _t0: float = field(default=0.0, repr=False, compare=False)

    def set_attr(self, name: str, value: object) -> None:
        self.attrs[name] = value

    def event(self, name: str, attrs: dict[str, object] | None = None) -> None:
        """Record a timestamped event on this span (bounded per span)."""
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self.dropped_events += 1
            return
        self.events.append(SpanEvent(name, time.time(), dict(attrs or {})))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
            "events": [event.to_dict() for event in self.events],
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.dropped_events:
            out["dropped_events"] = self.dropped_events
        return out

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Span":
        span = cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=(
                None if data.get("parent_id") is None else str(data["parent_id"])
            ),
            start=float(data["start"]),  # type: ignore[arg-type]
            duration=float(data.get("duration", 0.0)),  # type: ignore[arg-type]
            attrs=dict(data.get("attrs") or {}),  # type: ignore[arg-type]
            pid=str(data.get("pid", "main")),
            tid=str(data.get("tid", "main")),
            dropped_events=int(data.get("dropped_events", 0)),  # type: ignore[arg-type]
        )
        for event in data.get("events") or ():  # type: ignore[union-attr]
            span.events.append(
                SpanEvent(
                    name=str(event["name"]),
                    time=float(event["time"]),
                    attrs=dict(event.get("attrs") or {}),
                )
            )
        return span


class NullSpan:
    """No-op stand-in yielded while tracing is disabled.

    Falsy, so instrumentation can skip attribute/event preparation with a
    bare ``if span:`` — the pattern every hot path in this repo uses.  It
    is its own context manager, so a disabled :meth:`Tracer.span` returns
    it directly instead of building a generator per call.
    """

    __slots__ = ()
    span_id = None

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attr(self, name: str, value: object) -> None:
        pass

    def event(self, name: str, attrs: dict[str, object] | None = None) -> None:
        pass


NULL_SPAN = NullSpan()


class Tracer:
    """Process-wide span recorder with a thread-local active-span stack.

    Finished spans accumulate (bounded by ``max_spans``) in completion
    order; the active stack is per thread, so concurrent threads each get
    their own nesting chain while sharing one output list.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        process: str = "main",
        trace_id: str | None = None,
        max_spans: int = 200_000,
    ) -> None:
        self.enabled = enabled
        self.process = process
        self.trace_id = trace_id or f"trace-{os.getpid():x}-{id(self) & 0xFFFF:x}"
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        return f"{os.getpid():x}-{next(self._ids):x}"

    def current(self) -> Span | None:
        """The innermost open span on this thread (None outside any)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(
        self,
        name: str,
        attrs: dict[str, object] | None = None,
        *,
        tid: str | None = None,
    ) -> ContextManager[Span | NullSpan]:
        """Open a child span of the thread's current span for the body.

        Disabled tracers return the shared :data:`NULL_SPAN` without
        recording anything — the fast path costs one attribute check.
        """
        if not self.enabled:
            return NULL_SPAN
        return self._open_span(name, attrs, tid)

    @contextmanager
    def _open_span(
        self, name: str, attrs: dict[str, object] | None, tid: str | None
    ) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=self._next_id(),
            parent_id=parent.span_id if parent is not None else None,
            start=time.time(),
            attrs=dict(attrs or {}),
            pid=self.process,
            tid=tid if tid is not None else threading.current_thread().name,
            _t0=time.perf_counter(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - span._t0
            stack.pop()
            self._store(span)

    def event(self, name: str, attrs: dict[str, object] | None = None) -> None:
        """Record an event on the current span (no-op outside any span)."""
        if not self.enabled:
            return
        span = self.current()
        if span is not None:
            span.event(name, attrs)

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        attrs: dict[str, object] | None = None,
        tid: str | None = None,
        parent: Span | None = None,
    ) -> Span | NullSpan:
        """Append an externally-timed span (e.g. a simulated SM's occupancy
        window reconstructed after the fact) under ``parent`` or the
        current span."""
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = self.current()
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=self._next_id(),
            parent_id=parent.span_id if parent is not None else None,
            start=start,
            duration=duration,
            attrs=dict(attrs or {}),
            pid=self.process,
            tid=tid if tid is not None else threading.current_thread().name,
        )
        self._store(span)
        return span

    def _store(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped_spans += 1
                return
            self._spans.append(span)

    # -- cross-process propagation --------------------------------------
    def adopt(
        self,
        spans: Sequence[dict[str, object]],
        *,
        parent: Span | None = None,
    ) -> int:
        """Re-root serialised worker spans under ``parent`` (default: the
        current span) and fold them into this tracer.

        Root spans of the incoming forest — those whose ``parent_id`` is
        ``None`` or points outside the batch — are re-parented onto the
        dispatching span; every span joins this tracer's trace id.  The
        workers' own ``pid`` labels are preserved, which is what gives the
        Chrome export its one-row-per-worker layout.  Returns the number
        of spans adopted.
        """
        if not self.enabled or not spans:
            return 0
        if parent is None:
            parent = self.current()
        parent_id = parent.span_id if parent is not None else None
        local_ids = {span.get("span_id") for span in spans}
        adopted = 0
        for data in spans:
            span = Span.from_dict(data)
            span.trace_id = self.trace_id
            if span.parent_id is None or span.parent_id not in local_ids:
                span.parent_id = parent_id
            self._store(span)
            adopted += 1
        return adopted

    # -- reading / serialising ------------------------------------------
    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def span_dicts(self) -> list[dict[str, object]]:
        """Finished spans as JSON-ready dicts (the worker wire format)."""
        return [span.to_dict() for span in self.finished_spans()]

    def snapshot(self) -> dict[str, object]:
        """JSON-ready ``repro.trace/v1`` document of everything recorded."""
        document: dict[str, object] = {
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "process": self.process,
            "spans": self.span_dicts(),
        }
        if self.dropped_spans:
            document["dropped_spans"] = self.dropped_spans
        return document

    def emit(self, path: str | Path) -> Path:
        """Write the ``repro.trace/v1`` snapshot as JSON to ``path``."""
        return write_trace(self.snapshot(), path)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped_spans = 0


# ----------------------------------------------------------------------
# Process-wide default tracer
# ----------------------------------------------------------------------
_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer all instrumentation hooks record into."""
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one.

    Worker processes install a fresh enabled tracer so their spans can be
    snapshotted and re-rooted into the parent without duplication.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = tracer
    return previous


def reset_tracer() -> Tracer:
    """Clear the process-wide tracer (tests, CLI runs) and return it."""
    _GLOBAL.reset()
    return _GLOBAL


def tracing_enabled() -> bool:
    return _GLOBAL.enabled


def enable_tracing(process: str = "main") -> Tracer:
    """Turn the process-wide tracer on (fresh), and flag workers via env.

    Setting :data:`TRACE_ENV_VAR` here is what propagates the request into
    pool workers regardless of start method — forked children inherit the
    current environment, spawned children receive it at exec time.
    """
    tracer = get_tracer()
    tracer.reset()
    tracer.enabled = True
    tracer.process = process
    os.environ[TRACE_ENV_VAR] = "1"
    return tracer


def disable_tracing() -> Tracer:
    """Turn the process-wide tracer off and clear the worker env flag."""
    tracer = get_tracer()
    tracer.enabled = False
    os.environ.pop(TRACE_ENV_VAR, None)
    return tracer


@contextmanager
def worker_tracer() -> Iterator[Tracer | None]:
    """Worker-process context: a fresh tracer when the parent is tracing.

    Yields the local tracer (its ``span_dicts()`` are the payload to ship
    back) or ``None`` when tracing is off — the common case, costing one
    environment lookup.  Used by :func:`repro.faults.worker.traced_delta`,
    which every worker-slot handler runs its item under.
    """
    if not os.environ.get(TRACE_ENV_VAR):
        yield None
        return
    local = Tracer(enabled=True, process=f"worker-{os.getpid()}")
    previous = set_tracer(local)
    try:
        yield local
    finally:
        set_tracer(previous)


class _Timed:
    """:func:`instrument` with tracing off: no generator, one observation."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> NullSpan:
        self._start = time.perf_counter()
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


@contextmanager
def _traced(registry: MetricsRegistry, name: str, attrs) -> Iterator[Span]:
    try:
        with _GLOBAL.span(name, attrs) as span:
            yield span
    finally:  # after the span has closed and set its duration
        registry.observe(name, span.duration)


def instrument(
    name: str,
    attrs: dict[str, object] | None = None,
    *,
    metrics: MetricsRegistry | None = None,
) -> ContextManager[Span | NullSpan]:
    """Time the body into timer ``name`` (in ``metrics``, else the
    process-wide registry) and, while tracing is on, record it as a span of
    the same name whose duration is the number the timer observes.

    Registry and tracer are resolved per call, so a worker slot's installed
    registry applies.  Yields the span, or the falsy :data:`NULL_SPAN`
    while tracing is off.  Coroutines keep ``metrics.timer``: the span
    stack is per thread.
    """
    registry = metrics if metrics is not None else get_metrics()
    if _GLOBAL.enabled:
        return _traced(registry, name, attrs)
    return _Timed(registry, name)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def write_trace(document: dict[str, object], path: str | Path) -> Path:
    """Write a ``repro.trace/v1`` document as JSON (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def chrome_trace_events(document: dict[str, object]) -> list[dict[str, object]]:
    """Convert a ``repro.trace/v1`` document to Chrome trace events.

    Spans become complete events (``ph: "X"``), span events become instants
    (``ph: "i"``), and every distinct ``pid``/``tid`` label gets a
    ``process_name``/``thread_name`` metadata record so Perfetto and
    ``chrome://tracing`` show readable rows.  Timestamps are microseconds
    relative to the earliest span, so traces start near zero.
    """
    spans = [Span.from_dict(data) for data in document.get("spans") or ()]  # type: ignore[union-attr]
    base = min((span.start for span in spans), default=0.0)

    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    events: list[dict[str, object]] = []

    def pid_of(label: str) -> int:
        if label not in pids:
            pids[label] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[label],
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        return pids[label]

    def tid_of(pid_label: str, label: str) -> int:
        key = (pid_label, label)
        if key not in tids:
            tids[key] = sum(1 for p, _ in tids if p == pid_label) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid_of(pid_label),
                    "tid": tids[key],
                    "args": {"name": label},
                }
            )
        return tids[key]

    for span in spans:
        pid = pid_of(span.pid)
        tid = tid_of(span.pid, span.tid)
        args: dict[str, object] = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": round((span.start - base) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for point in span.events:
            events.append(
                {
                    "name": point.name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": round((point.time - base) * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": dict(point.attrs),
                }
            )
    return events


def write_chrome_trace(document: dict[str, object], path: str | Path) -> Path:
    """Write a document in Chrome trace-event format (Perfetto-loadable)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": chrome_trace_events(document),
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "trace_id": document.get("trace_id")},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_trace_document(
    document: dict[str, object], path: str | Path, format: str = "json"
) -> Path:
    """Dispatch on export format (``json`` | ``chrome``)."""
    if format == "json":
        return write_trace(document, path)
    if format == "chrome":
        return write_chrome_trace(document, path)
    raise ValueError(f"unknown trace format {format!r}; choose json or chrome")
