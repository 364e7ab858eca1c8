"""Run-report rendering: self-time ranking, sections, consistency checks."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import SpanAggregate, aggregate_spans, render_report
from repro.obs.trace import TRACE_SCHEMA, Tracer


def _trace_with(*spans):
    return {"schema": TRACE_SCHEMA, "trace_id": "t", "process": "main",
            "spans": list(spans)}


def _span(name, span_id, parent_id, start, duration, pid="main"):
    return {"name": name, "trace_id": "t", "span_id": span_id,
            "parent_id": parent_id, "start": start, "duration": duration,
            "attrs": {}, "events": [], "pid": pid, "tid": "main"}


class TestAggregateSpans:
    def test_self_time_subtracts_direct_children(self):
        trace = _trace_with(
            _span("root", "1", None, 0.0, 1.0),
            _span("child", "2", "1", 0.1, 0.4),
            _span("grandchild", "3", "2", 0.2, 0.1),
        )
        aggregates = {a.name: a for a in aggregate_spans(trace)}
        assert aggregates["root"].self_seconds == pytest.approx(0.6)
        assert aggregates["child"].self_seconds == pytest.approx(0.3)
        assert aggregates["grandchild"].self_seconds == pytest.approx(0.1)

    def test_concurrent_children_clamp_to_zero(self):
        # A dispatch span whose pool children overlap can have more child
        # time than its own duration; self-time clamps at zero.
        trace = _trace_with(
            _span("dispatch", "1", None, 0.0, 1.0),
            _span("unit", "2", "1", 0.0, 0.8),
            _span("unit", "3", "1", 0.0, 0.8),
        )
        aggregates = {a.name: a for a in aggregate_spans(trace)}
        assert aggregates["dispatch"].self_seconds == 0.0
        assert aggregates["unit"].count == 2
        assert aggregates["unit"].total_seconds == pytest.approx(1.6)

    def test_sorted_by_descending_self_time(self):
        trace = _trace_with(
            _span("small", "1", None, 0.0, 0.1),
            _span("big", "2", None, 0.0, 2.0),
        )
        names = [a.name for a in aggregate_spans(trace)]
        assert names == ["big", "small"]

    def test_lane_spans_excluded_from_aggregation(self):
        # Per-SM occupancy lanes carry scaled busy shares, not wall-clock:
        # summed over the SMs they would dwarf (and zero out) the kernel.
        lane = _span("sim.sm", "2", "1", 0.0, 0.9)
        lane["attrs"] = {"sm": 0, "lane": True}
        trace = _trace_with(_span("sim.kernel", "1", None, 0.0, 1.0), lane)
        aggregates = {a.name: a for a in aggregate_spans(trace)}
        assert "sim.sm" not in aggregates
        assert aggregates["sim.kernel"].self_seconds == pytest.approx(1.0)

    def test_mean_seconds(self):
        aggregate = SpanAggregate("x", count=4, total_seconds=2.0)
        assert aggregate.mean_seconds == 0.5
        assert SpanAggregate("y").mean_seconds == 0.0


class TestRenderReport:
    def test_requires_at_least_one_document(self):
        with pytest.raises(ValueError):
            render_report()

    def test_rejects_wrong_schemas(self):
        with pytest.raises(ValueError):
            render_report(metrics={"schema": "nope"})
        with pytest.raises(ValueError):
            render_report(trace={"schema": "nope"})

    def test_trace_only_report_ranks_spans(self):
        trace = _trace_with(
            _span("sim.kernel", "1", None, 0.0, 2.0),
            _span("sim.lower", "2", None, 0.0, 0.5),
        )
        text = render_report(trace=trace, top=1)
        assert "top 1 spans by self-time" in text
        assert "sim.kernel" in text
        assert "sim.lower" not in text.split("self-time")[1]

    def test_metrics_only_report_sections(self):
        registry = MetricsRegistry()
        registry.count("sim.cache.hits", 3)
        registry.count("sim.cache.misses", 1)
        registry.count("crypto.backend.vector", 1)
        registry.count("faults.injected", 8)
        registry.count("faults.detected", 8)
        registry.count("runner.attempts", 5)
        registry.count("sweep.cells.total", 4)
        text = render_report(metrics=registry.snapshot())
        assert "sim cache: 3 hits / 1 misses" in text
        assert "crypto backend(s): vector" in text
        assert "faults: 8 injected" in text
        assert "runner: 5 attempt(s)" in text
        assert "sweep: 4 cell(s)" in text

    def test_consistency_check_flags_mismatch(self):
        tracer = Tracer(enabled=True)
        with tracer.span("sim.kernel"):
            pass
        registry = MetricsRegistry()
        registry.count("sim.kernel_runs", 2)  # deliberately off by one
        text = render_report(metrics=registry.snapshot(), trace=tracer.snapshot())
        assert "sim.kernel spans 1 vs sim.kernel_runs 2: MISMATCH" in text

    def test_consistency_check_passes_when_counts_agree(self):
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        with tracer.span("sim.kernel"):
            registry.count("sim.kernel_runs")
        text = render_report(metrics=registry.snapshot(), trace=tracer.snapshot())
        assert "sim.kernel spans 1 vs sim.kernel_runs 1: ok" in text

    def test_live_run_report_matches_counters(self):
        """End-to-end: trace + metrics from one simulated run agree."""
        from repro.nn.models import build_model
        from repro.obs.metrics import set_metrics
        from repro.obs.trace import disable_tracing, enable_tracing
        from repro.sim.runner import compare_schemes

        registry = MetricsRegistry()
        previous = set_metrics(registry)
        tracer = enable_tracing()
        try:
            model = build_model("mlp", width_scale=0.25)
            compare_schemes(model, ("Baseline",), jobs=1, cache=False)
            text = render_report(
                metrics=registry.snapshot(), trace=tracer.snapshot()
            )
        finally:
            disable_tracing()
            tracer.reset()
            set_metrics(previous)
        kernel_runs = registry.counter("sim.kernel_runs")
        assert kernel_runs > 0
        assert f"sim.kernel spans {kernel_runs} vs sim.kernel_runs {kernel_runs}: ok" in text
        for stage in ("sim.lower", "sim.compile", "sim.kernel"):
            assert f"{stage} {kernel_runs}x " in text
        assert "run report" in text
