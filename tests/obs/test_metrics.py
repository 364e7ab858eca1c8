"""TimerStat quantiles, reservoir merging, and derived-field guards."""

import json
import math

import pytest

from repro.obs.metrics import RESERVOIR_SIZE, MetricsRegistry, TimerStat, sim_backends_ran

from .reference_derived import reference_derived


class TestQuantiles:
    def test_exact_below_reservoir_size(self):
        stat = TimerStat()
        for value in (0.1, 0.2, 0.3, 0.4):
            stat.observe(value)
        assert stat.quantile(0.5) == 0.2
        assert stat.quantile(0.0) == 0.1
        assert stat.quantile(1.0) == 0.4

    def test_empty_stat_quantile_is_zero(self):
        assert TimerStat().quantile(0.95) == 0.0

    def test_to_dict_carries_quantile_keys(self):
        stat = TimerStat()
        for index in range(10):
            stat.observe(index / 10.0)
        data = stat.to_dict()
        assert data["p50_seconds"] <= data["p95_seconds"] <= data["p99_seconds"]
        assert data["samples"] == stat.samples

    def test_reservoir_is_bounded_and_deterministic(self):
        a, b = TimerStat(), TimerStat()
        for index in range(10 * RESERVOIR_SIZE):
            a.observe(index / 1000.0)
            b.observe(index / 1000.0)
        assert len(a.samples) == RESERVOIR_SIZE
        assert a.samples == b.samples  # seeded RNG: same sequence, same sample
        # The tail estimate stays in the right ballpark of the true p95.
        assert abs(a.quantile(0.95) - 0.608) < 0.06

    def test_large_quantiles_reasonable(self):
        stat = TimerStat()
        for index in range(1000):
            stat.observe(index / 1000.0)
        assert 0.3 < stat.quantile(0.5) < 0.7
        assert stat.quantile(0.99) > stat.quantile(0.5)


class TestMerge:
    def test_merge_unions_small_reservoirs(self):
        a, b = TimerStat(), TimerStat()
        a.observe(0.1)
        b.observe(0.2)
        a.merge(b.to_dict())
        assert sorted(a.samples) == [0.1, 0.2]
        assert a.count == 2

    def test_merge_compacts_to_reservoir_size(self):
        a, b = TimerStat(), TimerStat()
        for index in range(RESERVOIR_SIZE):
            a.observe(index * 1.0)
            b.observe(1000.0 + index)
        a.merge(b.to_dict())
        assert len(a.samples) == RESERVOIR_SIZE
        # Compaction keeps order statistics from both ends of the union.
        assert min(a.samples) == 0.0
        assert max(a.samples) == 1000.0 + RESERVOIR_SIZE - 1

    def test_merge_empty_other_is_noop(self):
        stat = TimerStat()
        stat.observe(0.5)
        stat.merge(TimerStat().to_dict())
        assert stat.count == 1
        assert stat.min_seconds == 0.5

    def test_merge_nonfinite_min_does_not_poison(self):
        """Regression: merging a snapshot whose min is inf (or missing)
        onto a count==0 stat used to leave ``min_seconds = inf``, which
        ``json.dumps`` serialises as the invalid token ``Infinity``."""
        stat = TimerStat()
        stat.merge({"count": 3, "total_seconds": 0.3, "min_seconds": math.inf,
                    "max_seconds": 0.2})
        document = json.dumps(stat.to_dict())
        assert "Infinity" not in document
        parsed = json.loads(document)
        assert parsed["min_seconds"] == 0.0
        assert parsed["count"] == 3

    def test_empty_stat_serialises_finite_min(self):
        document = json.dumps(TimerStat().to_dict())
        assert "Infinity" not in document
        assert json.loads(document)["min_seconds"] == 0.0

    def test_registry_merge_round_trips_through_json(self):
        worker = MetricsRegistry()
        worker.count("sim.kernel_runs", 4)
        worker.observe("sim.kernel", 0.01)
        parent = MetricsRegistry()
        parent.merge(json.loads(json.dumps(worker.snapshot())))
        snap = parent.snapshot()
        assert snap["counters"]["sim.kernel_runs"] == 4
        assert snap["timers"]["sim.kernel"]["count"] == 1

    def test_registry_merge_of_a_count_zero_aggregate_creates_no_timer(self):
        registry = MetricsRegistry()
        registry.merge({"timers": {"sim.kernel": {"count": 0}}})
        snap = registry.snapshot()
        assert "sim.kernel" not in snap["timers"]
        assert "mean_kernel_seconds" not in snap["derived"]

    def test_merged_deltas_equal_one_merged_snapshot(self):
        # A long-lived worker ships one delta per batch; folding them must
        # give the parent what one snapshot of the same observations gives.
        batches = [
            [("crypto.ctr", 0.002), ("crypto.gmac", 0.001)],
            [("crypto.ctr", 0.004)],
            [],
            [("crypto.ctr", 0.003), ("serve.batch", 0.01), ("crypto.gmac", 0.0005)],
        ]
        worker, reference = MetricsRegistry(), MetricsRegistry()
        by_delta, by_snapshot = MetricsRegistry(), MetricsRegistry()
        for observations in batches:
            for registry in (worker, reference):
                registry.count("crypto.ctr.blocks", 8 * len(observations))
                for name, seconds in observations:
                    registry.observe(name, seconds)
            by_delta.merge(worker.delta())
        by_snapshot.merge(reference.snapshot())
        assert by_delta.snapshot() == by_snapshot.snapshot()
        assert worker.delta() == {"counters": {}, "timers": {}}

    def test_delta_carries_raw_aggregates_only(self):
        registry = MetricsRegistry()
        registry.observe("crypto.ctr", 0.5)
        timer = registry.delta()["timers"]["crypto.ctr"]
        assert set(timer) == {
            "count", "total_seconds", "min_seconds", "max_seconds", "samples"
        }
        assert "derived" not in registry.delta()


class TestDerivedGuards:
    def test_zero_denominators_leave_fields_absent(self):
        registry = MetricsRegistry()
        # Counters present, all denominators zero: no derived field may
        # divide by zero or emit a bogus value.
        registry.count("attack.queries", 10)
        registry.count("faults.detected", 0)
        registry.count("runner.retries", 0)
        registry.observe("crypto.ctr", 0.0)
        registry.observe("crypto.gmac", 0.0)
        derived = registry.snapshot()["derived"]
        assert "fault_detection_rate" not in derived
        assert "runner_retry_rate" not in derived
        assert "crypto_ctr_blocks_per_second" not in derived
        assert "crypto_gmac_tags_per_second" not in derived
        assert "queries_per_cell" not in derived

    def test_ratios_present_when_denominators_are(self):
        registry = MetricsRegistry()
        registry.count("faults.injected", 4)
        registry.count("faults.detected", 3)
        registry.count("runner.attempts", 10)
        registry.count("runner.retries", 1)
        derived = registry.snapshot()["derived"]
        assert derived["fault_detection_rate"] == 0.75
        assert derived["runner_retry_rate"] == 0.1

    def test_snapshot_always_json_serialisable(self):
        registry = MetricsRegistry()
        registry.observe("sim.kernel", 0.001)
        registry.count("sim.cache.hits", 1)
        json.dumps(registry.snapshot())


def _zero_numerators(registry):
    registry.count("attack.queries", 0)
    registry.observe("sweep.cell", 0.2)
    registry.count("faults.injected", 4)
    registry.count("runner.attempts", 3)
    registry.observe("crypto.ctr", 0.1)
    registry.observe("crypto.gmac", 0.1)
    registry.observe("serve.batch", 0.1)
    registry.count("serve.batches", 2)
    registry.count("serve.requests.total", 5)


def _empty_timers(registry):
    # Count-0 aggregates: the merge skips them, so no timer exists.
    registry.merge(
        {
            "timers": {
                name: {"count": 0}
                for name in ("sim.kernel", "sweep.cell", "serve.request", "crypto.ctr")
            }
        }
    )
    registry.count("attack.queries", 5)
    registry.count("crypto.ctr.blocks", 8)


def _everything(registry):
    for name, value in {
        "sim.cache.hits": 3, "sim.cache.misses": 1, "attack.queries": 40,
        "faults.injected": 8, "faults.detected": 6, "runner.attempts": 4,
        "runner.retries": 1, "crypto.ctr.blocks": 96, "crypto.gmac.tags": 12,
        "serve.batch.requests": 9, "serve.batches": 3,
        "serve.requests.total": 10, "serve.requests.rejected.backpressure": 1,
        "serve.requests.rejected.quota": 2, "serve.lines.sealed": 30,
        "serve.lines.unsealed": 7, "serve.lines.verified": 5,
    }.items():
        registry.count(name, value)
    for name in ("sim.kernel", "sweep.cell", "crypto.ctr", "crypto.gmac",
                 "serve.request", "serve.batch"):
        for seconds in (0.01, 0.03, 0.02):
            registry.observe(name, seconds)


class TestDerivedTable:
    """``DERIVED_FIELDS`` read by one loop gives the dict the hand-written
    branches gave, key order included."""

    @pytest.mark.parametrize(
        "fill", [lambda registry: None, _zero_numerators, _empty_timers, _everything]
    )
    def test_equals_the_hand_written_branches(self, fill):
        registry = MetricsRegistry()
        fill(registry)
        snapshot = registry.snapshot()
        expected = reference_derived(snapshot["counters"], snapshot["timers"])
        assert list(snapshot["derived"].items()) == list(expected.items())


class TestSimBackendsRan:
    @pytest.mark.parametrize(
        "counters, expected",
        [
            ({}, None),
            ({"sim.kernel_runs": 3, "crypto.backend.vector": 2}, None),
            ({"sim.backend.vector": 810}, "vector"),
            ({"sim.backend.scalar": 25, "sim.kernel_runs": 25}, "scalar"),
            ({"sim.backend.vector": 2, "sim.backend.scalar": 1}, ["scalar", "vector"]),
            ({"sim.backend.vector": 0, "sim.backend.scalar": 4}, "scalar"),
        ],
    )
    def test_names_the_engines_that_ran(self, counters, expected):
        assert sim_backends_ran(counters) == expected

    def test_reads_a_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.count("sim.backend.scalar")
        assert sim_backends_ran(registry.snapshot()["counters"]) == "scalar"
