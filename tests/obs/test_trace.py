"""Span trees, cross-process re-rooting, exporters, and the golden file."""

import json
import threading
from pathlib import Path

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    Span,
    SpanEvent,
    Tracer,
    chrome_trace_events,
    disable_tracing,
    enable_tracing,
    get_tracer,
    worker_tracer,
    write_chrome_trace,
    write_trace,
    write_trace_document,
)

GOLDEN = Path(__file__).with_name("golden_chrome_trace.json")


@pytest.fixture
def tracing():
    """Process-wide tracing on for the test, fully torn down after."""
    tracer = enable_tracing(process="test")
    yield tracer
    disable_tracing()
    tracer.reset()


class TestSpanTree:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        spans = tracer.finished_spans()
        assert [span.name for span in spans] == ["inner", "sibling", "outer"]
        assert outer.parent_id is None
        assert outer.duration > 0.0

    def test_span_ids_unique(self):
        tracer = Tracer(enabled=True)
        for _ in range(10):
            with tracer.span("x"):
                pass
        ids = [span.span_id for span in tracer.finished_spans()]
        assert len(set(ids)) == len(ids)

    def test_events_recorded_and_bounded(self):
        from repro.obs.trace import MAX_EVENTS_PER_SPAN

        tracer = Tracer(enabled=True)
        with tracer.span("loop") as span:
            for index in range(MAX_EVENTS_PER_SPAN + 5):
                span.event("tick", {"i": index})
        (finished,) = tracer.finished_spans()
        assert len(finished.events) == MAX_EVENTS_PER_SPAN
        assert finished.dropped_events == 5
        assert finished.to_dict()["dropped_events"] == 5

    def test_disabled_tracer_yields_shared_null_span(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything", {"ignored": 1}) as span:
            assert span is NULL_SPAN
            assert not span
            span.set_attr("a", 1)
            span.event("b")
        assert tracer.finished_spans() == []

    def test_max_spans_cap(self):
        tracer = Tracer(enabled=True, max_spans=3)
        for _ in range(5):
            with tracer.span("x"):
                pass
        assert len(tracer.finished_spans()) == 3
        assert tracer.dropped_spans == 2
        assert tracer.snapshot()["dropped_spans"] == 2

    def test_round_trip_through_dict(self):
        tracer = Tracer(enabled=True)
        with tracer.span("kernel", {"layer": "conv1"}) as span:
            span.event("cache.miss", {"address": 64})
        data = tracer.span_dicts()[0]
        clone = Span.from_dict(json.loads(json.dumps(data)))
        assert clone.name == "kernel"
        assert clone.attrs == {"layer": "conv1"}
        assert clone.events[0].name == "cache.miss"
        assert clone.to_dict() == data


class TestThreadSafety:
    def test_threads_get_independent_nesting_chains(self):
        tracer = Tracer(enabled=True)
        errors = []

        def work(thread_index):
            try:
                for _ in range(50):
                    with tracer.span(f"outer-{thread_index}") as outer:
                        with tracer.span(f"inner-{thread_index}") as inner:
                            assert inner.parent_id == outer.span_id
                        assert tracer.current() is outer
            except BaseException as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        spans = tracer.finished_spans()
        assert len(spans) == 4 * 50 * 2
        # Every inner span's parent is an outer span of the SAME thread.
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.name.startswith("inner"):
                parent = by_id[span.parent_id]
                assert parent.name == "outer" + span.name[len("inner"):]


class TestAdopt:
    def _worker_spans(self):
        worker = Tracer(enabled=True, process="worker-1234")
        with worker.span("sim.unit"):
            with worker.span("sim.kernel"):
                pass
        return worker.span_dicts()

    def test_adopt_reroots_under_parent(self):
        parent = Tracer(enabled=True)
        with parent.span("dispatch") as dispatch:
            adopted = parent.adopt(self._worker_spans(), parent=dispatch)
        assert adopted == 2
        spans = {span.name: span for span in parent.finished_spans()}
        assert spans["sim.unit"].parent_id == spans["dispatch"].span_id
        # The worker-internal edge survives untouched.
        assert spans["sim.kernel"].parent_id == spans["sim.unit"].span_id
        # Everything joins the parent's trace; worker pid label survives.
        assert spans["sim.unit"].trace_id == parent.trace_id
        assert spans["sim.unit"].pid == "worker-1234"

    def test_adopt_defaults_to_current_span(self):
        parent = Tracer(enabled=True)
        with parent.span("dispatch") as dispatch:
            parent.adopt(self._worker_spans())
        roots = [s for s in parent.finished_spans() if s.name == "sim.unit"]
        assert roots[0].parent_id == dispatch.span_id

    def test_adopt_disabled_or_empty_is_noop(self):
        parent = Tracer(enabled=False)
        assert parent.adopt(self._worker_spans()) == 0
        enabled = Tracer(enabled=True)
        assert enabled.adopt([]) == 0


class TestWorkerPropagation:
    def test_worker_tracer_off_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        with worker_tracer() as tracer:
            assert tracer is None

    def test_worker_tracer_on_with_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with worker_tracer() as tracer:
            assert tracer is not None
            assert tracer.enabled
            assert get_tracer() is tracer
            with tracer.span("unit"):
                pass
        assert get_tracer() is not tracer
        assert [span["name"] for span in tracer.span_dicts()] == ["unit"]

    def test_run_units_reroots_worker_spans(self, tracing):
        """Spans from a 2-worker pool end up re-rooted under the dispatch
        span, one pid label per worker process."""
        from repro.sim.parallel import SimUnit, run_units
        from repro.sim.runner import scheme_config
        from repro.sim.workloads import matmul_traffic

        traffic = matmul_traffic(64, 64, 64, encrypted=True)
        units = [
            SimUnit(
                traffic=traffic,
                config=scheme_config("SEAL-C", counter_cache_kb=kb),
                label=f"u{kb}",
            )
            for kb in (24, 48, 96, 384)
        ]
        run_units(units, jobs=2, cache=False)
        spans = tracing.finished_spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        (dispatch,) = by_name["parallel.compute"]
        assert dispatch.attrs["jobs"] == 2
        assert len(by_name["sim.unit"]) == 4
        for unit_span in by_name["sim.unit"]:
            assert unit_span.parent_id == dispatch.span_id
            assert unit_span.pid.startswith("worker-")
            assert unit_span.trace_id == tracing.trace_id
        kernels = by_name["sim.kernel"]
        unit_ids = {span.span_id for span in by_name["sim.unit"]}
        assert all(kernel.parent_id in unit_ids for kernel in kernels)


class TestExporters:
    def _fixed_document(self):
        spans = [
            Span(
                name="dispatch", trace_id="t", span_id="a-1", parent_id=None,
                start=100.0, duration=0.5, attrs={"jobs": 2},
                pid="main", tid="MainThread",
            ),
            Span(
                name="sim.unit", trace_id="t", span_id="b-1", parent_id="a-1",
                start=100.1, duration=0.2, attrs={"label": "u0"},
                pid="worker-7", tid="MainThread",
            ),
            Span(
                name="sim.sm", trace_id="t", span_id="b-2", parent_id="b-1",
                start=100.1, duration=0.05, attrs={"sm": 0},
                pid="worker-7", tid="sm0",
            ),
        ]
        spans[1].events.append(SpanEvent("counter_cache", 100.15, {"hits": 3}))
        return {
            "schema": "repro.trace/v1",
            "trace_id": "t",
            "process": "main",
            "spans": [span.to_dict() for span in spans],
        }

    def test_chrome_events_match_golden_file(self):
        events = chrome_trace_events(self._fixed_document())
        golden = json.loads(GOLDEN.read_text())
        assert events == golden

    def test_chrome_export_structure(self, tmp_path):
        path = write_chrome_trace(self._fixed_document(), tmp_path / "t.json")
        payload = json.loads(path.read_text())
        assert payload["otherData"]["schema"] == "repro.trace/v1"
        events = payload["traceEvents"]
        kinds = {event["ph"] for event in events}
        assert kinds == {"M", "X", "i"}
        # One process row per pid label, named metadata first-class.
        names = [
            event["args"]["name"]
            for event in events
            if event["name"] == "process_name"
        ]
        assert sorted(names) == ["main", "worker-7"]
        # Timestamps are rebased to the earliest span.
        complete = [event for event in events if event["ph"] == "X"]
        assert min(event["ts"] for event in complete) == 0.0

    def test_json_export_round_trips(self, tmp_path):
        document = self._fixed_document()
        path = write_trace(document, tmp_path / "out" / "trace.json")
        assert json.loads(path.read_text()) == document

    def test_write_trace_document_dispatch(self, tmp_path):
        document = self._fixed_document()
        json_path = write_trace_document(document, tmp_path / "a.json", "json")
        chrome_path = write_trace_document(document, tmp_path / "b.json", "chrome")
        assert "spans" in json.loads(json_path.read_text())
        assert "traceEvents" in json.loads(chrome_path.read_text())
        with pytest.raises(ValueError):
            write_trace_document(document, tmp_path / "c.json", "svg")
