"""One fixed workload's metric and span names, and one number per
instrumented region.

The workload — a five-scheme ``compare_schemes`` on the MLP, a
``seal-se`` and a ``direct`` seal/verify/unseal, one CTR keystream, and a
tiny fault campaign — runs once with a fresh registry and an enabled tracer.  The
sorted counter, timer, derived and span names are pinned: timer names are
a contract (Prometheus, ``repro.metrics/v1``, CI, the BENCH documents).
Every region that :func:`repro.obs.instrument` wraps must record as many
timer observations as spans, and the timer's total must be the sum of the
span durations: one clock, one number.
"""

import pytest

from repro.crypto.modes import CounterModeEncryptor
from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign
from repro.nn.models import build_model
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer, set_tracer
from repro.schemes import get_scheme
from repro.sim.runner import SCHEMES, compare_schemes

from .reference_derived import reference_derived

COUNTERS = (
    "crypto.backend.vector",
    "crypto.ctr.blocks",
    "crypto.direct.blocks",
    "crypto.gmac.tags",
    "faults.detected",
    "faults.false_positives",
    "faults.injected",
    "faults.silent.plaintext",
    "parallel.units",
    "runner.attempts",
    "runner.layer_sims",
    "sim.backend.vector",
    "sim.cache.misses",
    "sim.data_bytes",
    "sim.kernel_runs",
    "sim.lower.reused",
)
TIMERS = (
    "crypto.ctr",
    "crypto.direct",
    "crypto.gmac",
    "faults.campaign",
    "parallel.compute",
    "parallel.unit",
    "runner.compare_schemes",
    "sim.compile",
    "sim.kernel",
    "sim.lower",
)
DERIVED = (
    "cache_hit_rate",
    "crypto_ctr_blocks_per_second",
    "crypto_gmac_tags_per_second",
    "fault_detection_rate",
    "mean_kernel_seconds",
    "runner_retry_rate",
)
SPANS = (
    "crypto.ctr",
    "crypto.direct",
    "crypto.gmac",
    "faults.campaign",
    "faults.scenario",
    "parallel.compute",
    "runner.compare_schemes",
    "runner.lower",
    "sim.compile",
    "sim.kernel",
    "sim.lower",
    "sim.sm",
    "sim.unit",
)
#: Regions recorded both as a timer and as a span of the same name.
INSTRUMENTED = (
    "crypto.ctr",
    "crypto.direct",
    "crypto.gmac",
    "faults.campaign",
    "parallel.compute",
    "runner.compare_schemes",
    "sim.compile",
    "sim.kernel",
    "sim.lower",
)


def _workload() -> None:
    compare_schemes(build_model("mlp", width_scale=0.25), SCHEMES, jobs=1, cache=False)
    payload = bytes(range(256)) * 3
    for name in ("seal-se", "direct"):
        sealer = get_scheme(name).make_sealer(bytes(range(16)))
        sealed = sealer.seal(payload, base_address=0x4000, counter=3)
        assert all(sealer.verify(sealed))
        assert sealer.unseal(sealed) == payload
    CounterModeEncryptor(bytes(range(16))).keystream(0x4000, 3, 128)
    run_fault_campaign(
        FaultCampaignConfig(synthetic_lines=16, faults_per_class=2, seed=0)
    )


@pytest.fixture(scope="module")
def recorded():
    with pytest.MonkeyPatch.context() as env:
        # Backend names appear in counter names; pin them against the
        # CI matrix's REPRO_*_BACKEND settings.
        env.setenv("REPRO_CRYPTO_BACKEND", "vector")
        env.setenv("REPRO_SIM_BACKEND", "vector")
        registry = MetricsRegistry()
        tracer = Tracer(enabled=True, process="test")
        previous_metrics = set_metrics(registry)
        previous_tracer = set_tracer(tracer)
        try:
            _workload()
        finally:
            set_metrics(previous_metrics)
            set_tracer(previous_tracer)
    return registry.snapshot(), tracer.finished_spans()


class TestGoldenNames:
    def test_counter_names(self, recorded):
        snapshot, _ = recorded
        assert tuple(sorted(snapshot["counters"])) == COUNTERS

    def test_timer_names(self, recorded):
        snapshot, _ = recorded
        assert tuple(sorted(snapshot["timers"])) == TIMERS

    def test_derived_names(self, recorded):
        snapshot, _ = recorded
        assert tuple(sorted(snapshot["derived"])) == DERIVED

    def test_span_names(self, recorded):
        _, spans = recorded
        assert tuple(sorted({span.name for span in spans})) == SPANS

    def test_derived_equals_the_hand_written_branches(self, recorded):
        snapshot, _ = recorded
        assert snapshot["derived"] == reference_derived(
            snapshot["counters"], snapshot["timers"]
        )


class TestOneNumberPerRegion:
    @pytest.mark.parametrize("name", INSTRUMENTED)
    def test_timer_count_equals_span_count(self, recorded, name):
        snapshot, spans = recorded
        matching = [span for span in spans if span.name == name]
        assert snapshot["timers"][name]["count"] == len(matching) > 0

    @pytest.mark.parametrize("name", INSTRUMENTED)
    def test_timer_total_is_the_span_durations(self, recorded, name):
        snapshot, spans = recorded
        durations = [span.duration for span in spans if span.name == name]
        assert snapshot["timers"][name]["total_seconds"] == sum(durations)


@pytest.fixture
def installed():
    """A fresh ambient registry, and a tracer the test may enable."""
    registry = MetricsRegistry()
    tracer = Tracer(enabled=False, process="test")
    previous_metrics = set_metrics(registry)
    previous_tracer = set_tracer(tracer)
    yield registry, tracer
    set_metrics(previous_metrics)
    set_tracer(previous_tracer)


class TestInstrument:
    def test_tracing_off_times_into_the_ambient_registry(self, installed):
        registry, tracer = installed
        with instrument("region", {"unused": 1}) as span:
            assert not span
        assert registry.timers["region"].count == 1
        assert tracer.finished_spans() == []

    def test_explicit_registry_wins(self, installed):
        ambient, _ = installed
        own = MetricsRegistry()
        with instrument("region", metrics=own):
            pass
        assert own.timers["region"].count == 1
        assert "region" not in ambient.timers

    @pytest.mark.usefixtures("installed")
    def test_registry_is_resolved_per_call(self):
        slot = MetricsRegistry()
        previous = set_metrics(slot)
        try:
            with instrument("region"):
                pass
        finally:
            set_metrics(previous)
        assert slot.timers["region"].count == 1

    @pytest.mark.parametrize("traced", [False, True])
    def test_a_raising_body_is_still_recorded(self, installed, traced):
        registry, tracer = installed
        tracer.enabled = traced
        with pytest.raises(RuntimeError):
            with instrument("region"):
                raise RuntimeError("boom")
        assert registry.timers["region"].count == 1
        assert len(tracer.finished_spans()) == int(traced)

    def test_tracing_on_timer_observes_the_span_duration(self, installed):
        registry, tracer = installed
        tracer.enabled = True
        with tracer.span("outer") as outer:
            with instrument("region", {"op": "batch"}) as span:
                span.set_attr("lines", 3)
        assert span.parent_id == outer.span_id
        assert span.attrs == {"op": "batch", "lines": 3}
        assert registry.timers["region"].total_seconds == span.duration
