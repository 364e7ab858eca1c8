"""Text run reports from a metrics + trace document pair.

``python -m repro report --metrics m.json --trace t.json`` renders one
human-readable summary of a finished run: where wall-clock went (top-N
spans by *self* time — a span's duration minus its children's), what the
caches did, which crypto datapath ran and how fast, whether the fault
campaign held its contract, and how hard the hardened runner had to work
(retries, timeouts, quarantined checkpoints).  Either document may be
omitted; the report renders the sections it has inputs for.

The span tree and the counters describe the same run from two angles, so
the report also cross-checks them where both sides record the same event
(kernel simulations, sweep cells, fault campaigns) — a mismatch usually
means the two files came from different runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .metrics import METRICS_SCHEMA
from .trace import TRACE_SCHEMA

__all__ = [
    "SpanAggregate",
    "aggregate_spans",
    "load_document",
    "render_report",
]


@dataclass
class SpanAggregate:
    """All spans of one name, folded: counts, total and self durations."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


def aggregate_spans(trace: dict[str, object]) -> list[SpanAggregate]:
    """Per-name span aggregates, sorted by descending self-time.

    Self-time is a span's duration minus the summed durations of its
    direct children — the share of wall-clock spent in the span's own
    code rather than delegated further down.  Negative self-times (spans
    whose children ran concurrently, e.g. a dispatch span over a worker
    pool) clamp to zero so the ranking stays meaningful.

    Spans flagged ``attrs["lane"]`` are visualisation lanes (the per-SM
    occupancy rows, whose durations are scaled busy shares summed over
    every SM, not wall-clock) — they are excluded from the aggregation
    entirely so they neither rank nor eat their parent's self-time.
    """
    spans = [
        span
        for span in (trace.get("spans") or ())  # type: ignore[union-attr]
        if not (span.get("attrs") or {}).get("lane")
    ]
    child_seconds: dict[object, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + float(
                span.get("duration", 0.0)
            )
    by_name: dict[str, SpanAggregate] = {}
    for span in spans:
        name = str(span.get("name"))
        duration = float(span.get("duration", 0.0))
        self_time = max(0.0, duration - child_seconds.get(span.get("span_id"), 0.0))
        aggregate = by_name.setdefault(name, SpanAggregate(name))
        aggregate.count += 1
        aggregate.total_seconds += duration
        aggregate.self_seconds += self_time
    return sorted(
        by_name.values(), key=lambda a: (-a.self_seconds, -a.total_seconds, a.name)
    )


def load_document(path: str | Path, expected_schema: str) -> dict[str, object]:
    """Load and schema-check one JSON document."""
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or document.get("schema") != expected_schema:
        raise ValueError(f"{path} is not a {expected_schema} document")
    return document


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:7.2f}ms"
    return f"{seconds * 1e6:7.1f}us"


def _trace_sections(trace: dict[str, object], top: int) -> list[str]:
    from ..eval.reporting import ascii_table  # deferred: avoids import cycle

    spans = list(trace.get("spans") or ())  # type: ignore[arg-type]
    aggregates = aggregate_spans(trace)
    wall = sum(
        float(span.get("duration", 0.0))
        for span in spans
        if span.get("parent_id") is None
    )
    processes = sorted({str(span.get("pid", "main")) for span in spans})
    lines = [
        f"trace {trace.get('trace_id')}: {len(spans)} spans across "
        f"{len(processes)} process(es) ({', '.join(processes)}), "
        f"root wall-clock {wall:.3f}s"
    ]
    if not aggregates:
        # A trace with no (non-lane) spans happens when tracing was enabled
        # but the command recorded nothing; an empty ranking table would
        # read as missing data, so say what happened instead.
        lines.append("no spans recorded — self-time ranking skipped")
        return lines
    rows = []
    for aggregate in aggregates[:top]:
        share = aggregate.self_seconds / wall if wall else 0.0
        rows.append(
            (
                aggregate.name,
                aggregate.count,
                _format_seconds(aggregate.total_seconds),
                _format_seconds(aggregate.self_seconds),
                _format_seconds(aggregate.mean_seconds),
                f"{share:6.1%}",
            )
        )
    lines.append(
        f"top {min(top, len(aggregates))} spans by self-time:\n"
        + ascii_table(
            ("span", "count", "total", "self", "mean", "% wall"), rows
        )
    )
    return lines


def _counter(metrics: dict[str, object], name: str) -> int:
    counters = metrics.get("counters") or {}
    return int(counters.get(name, 0))  # type: ignore[union-attr]


def _derived(metrics: dict[str, object], name: str) -> float | None:
    derived = metrics.get("derived") or {}
    value = derived.get(name)  # type: ignore[union-attr]
    return None if value is None else float(value)


#: The simulator's timed stages, in pipeline order.
_SIM_STAGES = ("sim.lower", "sim.compile", "sim.kernel")


def _metrics_sections(metrics: dict[str, object]) -> list[str]:
    lines: list[str] = []

    hit_rate = _derived(metrics, "cache_hit_rate")
    hits = _counter(metrics, "sim.cache.hits")
    misses = _counter(metrics, "sim.cache.misses")
    if hits or misses or hit_rate:
        lines.append(
            f"sim cache: {hits} hits / {misses} misses "
            f"(hit rate {hit_rate or 0.0:.1%})"
        )

    sim_backends = [
        name.rsplit(".", 1)[1]
        for name in (metrics.get("counters") or {})  # type: ignore[union-attr]
        if name.startswith("sim.backend.")
    ]
    if sim_backends:
        runs = sum(
            _counter(metrics, f"sim.backend.{name}") for name in sim_backends
        )
        lines.append(
            f"sim backend(s): {', '.join(sorted(sim_backends))} "
            f"({runs} kernel run(s))"
        )

    timers: dict = metrics.get("timers") or {}  # type: ignore[assignment]
    stages = [
        f"{name} {timers[name]['count']}x "
        f"{_format_seconds(timers[name]['total_seconds']).strip()}"
        for name in _SIM_STAGES
        if name in timers
    ]
    if stages:
        lines.append("sim stages: " + " | ".join(stages))

    backends = [
        name.rsplit(".", 1)[1]
        for name in (metrics.get("counters") or {})  # type: ignore[union-attr]
        if name.startswith("crypto.backend.")
    ]
    if backends:
        parts = [f"crypto backend(s): {', '.join(sorted(backends))}"]
        ctr_rate = _derived(metrics, "crypto_ctr_blocks_per_second")
        if ctr_rate is not None:
            parts.append(f"CTR {ctr_rate:,.0f} blocks/s")
        gmac_rate = _derived(metrics, "crypto_gmac_tags_per_second")
        if gmac_rate is not None:
            parts.append(f"GMAC {gmac_rate:,.0f} tags/s")
        lines.append(" | ".join(parts))

    injected = _counter(metrics, "faults.injected")
    if injected:
        detection = _derived(metrics, "fault_detection_rate") or 0.0
        lines.append(
            f"faults: {injected} injected, detection rate {detection:.1%}, "
            f"{_counter(metrics, 'faults.silent.plaintext')} silent plaintext "
            f"corruption(s), {_counter(metrics, 'faults.undetected.encrypted')} "
            "undetected on encrypted lines"
        )

    attempts = _counter(metrics, "runner.attempts")
    if attempts:
        retry_rate = _derived(metrics, "runner_retry_rate") or 0.0
        lines.append(
            f"runner: {attempts} attempt(s), "
            f"{_counter(metrics, 'runner.retries')} retri(es) "
            f"(rate {retry_rate:.1%}), "
            f"{_counter(metrics, 'runner.timeouts')} timeout(s), "
            f"{_counter(metrics, 'runner.crashes')} crash(es), "
            f"{_counter(metrics, 'runner.pool_restarts')} pool restart(s)"
        )

    total = _counter(metrics, "sweep.cells.total")
    if total:
        lines.append(
            f"sweep: {total} cell(s) — "
            f"{_counter(metrics, 'sweep.cells.resumed')} resumed, "
            f"{_counter(metrics, 'sweep.cells.computed')} computed, "
            f"{_counter(metrics, 'sweep.checkpoints.written')} checkpoint(s) "
            f"written, {_counter(metrics, 'sweep.checkpoints.quarantined')} "
            "quarantined"
        )
    return lines


#: (span name, counter name) pairs that count the same underlying event —
#: the basis of the trace/metrics cross-check.
_CONSISTENCY_PAIRS = (
    ("sim.kernel", "sim.kernel_runs"),
    ("sweep.cell", "sweep.cells.computed"),
    ("train.epoch", "train.epochs"),
    ("attack.augment.round", "attack.augmentation_rounds"),
)


def _consistency_sections(
    trace: dict[str, object], metrics: dict[str, object]
) -> list[str]:
    counts: dict[str, int] = {}
    for span in trace.get("spans") or ():  # type: ignore[union-attr]
        name = str(span.get("name"))
        counts[name] = counts.get(name, 0) + 1
    checks: list[str] = []
    for span_name, counter_name in _CONSISTENCY_PAIRS:
        span_count = counts.get(span_name, 0)
        counter = _counter(metrics, counter_name)
        if not span_count and not counter:
            continue
        verdict = "ok" if span_count == counter else "MISMATCH"
        checks.append(
            f"  {span_name} spans {span_count} vs {counter_name} "
            f"{counter}: {verdict}"
        )
    if not checks:
        return []
    return ["trace/metrics consistency:\n" + "\n".join(checks)]


def render_report(
    metrics: dict[str, object] | None = None,
    trace: dict[str, object] | None = None,
    *,
    top: int = 10,
) -> str:
    """Render the run report (see the module docstring for the sections)."""
    if metrics is not None and metrics.get("schema") != METRICS_SCHEMA:
        raise ValueError(f"metrics document is not {METRICS_SCHEMA}")
    if trace is not None and trace.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"trace document is not {TRACE_SCHEMA}")
    if metrics is None and trace is None:
        raise ValueError("report needs a metrics and/or trace document")
    sections: list[str] = ["run report\n" + "=" * len("run report")]
    if trace is not None:
        sections += _trace_sections(trace, top)
    if metrics is not None:
        sections += _metrics_sections(metrics)
    if trace is not None and metrics is not None:
        sections += _consistency_sections(trace, metrics)
    return "\n\n".join(sections)
