"""Hardened run_units: named failures, retry, crash isolation, cache safety."""

import math
from dataclasses import fields

import pytest

from repro.core.plan import LayerTraffic
from repro.faults.chaos import CHAOS_ENV_VAR
from repro.faults.runner import RetryPolicy, UnitExecutionError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.sim import parallel
from repro.sim.parallel import SimulationCache, run_units
from repro.sim.runner import layer_unit


def _traffic(name: str, m: int = 8) -> LayerTraffic:
    return LayerTraffic(
        name=name,
        kind="fc",
        macs=m * m * m,
        weight_bytes_encrypted=m * m * 2,
        weight_bytes_plain=m * m * 2,
        input_bytes_encrypted=m * m * 2,
        input_bytes_plain=m * m * 2,
        output_bytes_encrypted=m * m * 2,
        output_bytes_plain=m * m * 2,
        gemm_m=m,
        gemm_n=m,
        gemm_k=m,
    )


def test_serial_failure_names_the_unit_key(monkeypatch):
    units = [layer_unit(_traffic("alpha"), "Baseline"), layer_unit(_traffic("beta", 12), "SEAL-D")]
    real = parallel.simulate_unit

    def sabotage(unit):
        if unit.label == units[1].label:
            raise RuntimeError("simulator exploded")
        return real(unit)

    monkeypatch.setattr(parallel, "simulate_unit", sabotage)
    cache = SimulationCache()
    with pytest.raises(UnitExecutionError) as excinfo:
        run_units(units, jobs=1, cache=cache, metrics=MetricsRegistry())
    assert excinfo.value.key == units[1].key()
    assert units[1].key()[:16] in str(excinfo.value)
    assert excinfo.value.label == units[1].label
    # the healthy unit's result was cached before the error propagated
    assert cache.get(units[0].key()) is not None


def test_serial_retry_recovers_flaky_unit(monkeypatch):
    unit = layer_unit(_traffic("gamma"), "Baseline")
    real = parallel.simulate_unit
    calls = {"n": 0}

    def flaky(u):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return real(u)

    monkeypatch.setattr(parallel, "simulate_unit", flaky)
    metrics = MetricsRegistry()
    results = run_units(
        [unit],
        jobs=1,
        cache=False,
        metrics=metrics,
        policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
    )
    assert len(results) == 1 and results[0].label == unit.label
    assert metrics.counter("runner.retries") == 1
    assert metrics.snapshot()["derived"]["runner_retry_rate"] == 0.5


def test_pool_chaos_failure_spares_other_units(monkeypatch, tmp_path):
    units = [
        layer_unit(_traffic("alpha"), "Baseline"),
        layer_unit(_traffic("beta", 12), "Baseline"),
    ]
    monkeypatch.setenv(
        CHAOS_ENV_VAR, '{"fail": ["%s"]}' % units[1].label
    )
    cache = SimulationCache()
    with pytest.raises(UnitExecutionError) as excinfo:
        run_units(units, jobs=2, cache=cache, metrics=MetricsRegistry())
    assert excinfo.value.label == units[1].label
    assert cache.get(units[0].key()) is not None
    # rerun without chaos: the survivor is a cache hit, only the failed
    # unit recomputes, and the batch completes
    monkeypatch.delenv(CHAOS_ENV_VAR)
    metrics = MetricsRegistry()
    results = run_units(units, jobs=2, cache=cache, metrics=metrics)
    assert [r.label for r in results] == [u.label for u in units]
    assert metrics.counter("sim.cache.hits") == 1


def test_pool_chaos_crash_retried_with_policy(monkeypatch, tmp_path):
    units = [
        layer_unit(_traffic("alpha"), "Baseline"),
        layer_unit(_traffic("beta", 12), "Baseline"),
    ]
    monkeypatch.setenv(
        CHAOS_ENV_VAR,
        '{"crash": ["%s"], "sentinel_dir": "%s"}' % (units[0].label, tmp_path),
    )
    metrics = MetricsRegistry()
    results = run_units(
        units,
        jobs=2,
        cache=False,
        metrics=metrics,
        policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
    )
    assert [r.label for r in results] == [u.label for u in units]
    assert metrics.counter("runner.crashes") >= 1
    assert metrics.counter("runner.pool_restarts") >= 1


def test_hardened_results_match_plain_serial_run():
    units = [
        layer_unit(_traffic("alpha"), scheme)
        for scheme in ("Baseline", "SEAL-D", "Counter")
    ]
    plain = run_units(units, jobs=1, cache=False, metrics=MetricsRegistry())
    hardened = run_units(
        units,
        jobs=2,
        cache=False,
        metrics=MetricsRegistry(),
        policy=RetryPolicy(max_attempts=3, timeout_seconds=120.0),
    )
    for a, b in zip(plain, hardened):
        for f in fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb, f.name


@pytest.mark.parametrize("jobs", [1, 2])
def test_stage_timers_land_in_the_callers_registry(jobs):
    units = [layer_unit(_traffic("alpha"), "Baseline"), layer_unit(_traffic("beta", 12), "SEAL-D")]
    ambient = MetricsRegistry()
    previous = set_metrics(ambient)
    try:
        metrics = MetricsRegistry()
        run_units(units, jobs=jobs, cache=False, metrics=metrics)
    finally:
        set_metrics(previous)
    assert metrics.counter("sim.cache.misses") == 2
    # One lowering or one reuse per miss, in whichever process ran it.
    lowered = metrics.timers["sim.lower"].count
    assert lowered + metrics.counter("sim.lower.reused") == metrics.counter(
        "sim.cache.misses"
    )
    for stage in ("sim.lower", "sim.compile", "sim.kernel", "parallel.unit"):
        assert metrics.timers[stage].count == 2, stage
    assert ambient.timers == {} and ambient.counters == {}

