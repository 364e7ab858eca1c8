"""The sweep trains each experiment's victim once, whatever ``--jobs`` is."""

import pytest

from repro.attacks import sweep
from repro.attacks.sweep import plan_units, run_sweep
from repro.obs.metrics import MetricsRegistry
from tests.attacks.test_sweep import tiny_config


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty victim memo in this process (slots fork from it)."""
    monkeypatch.setattr(sweep, "_VICTIM_CACHE", {})


@pytest.mark.parametrize("jobs", [1, 2])
def test_victim_trained_once(cold_memo, jobs):
    units = plan_units(tiny_config())
    metrics = MetricsRegistry()
    run_sweep(units, jobs=jobs, metrics=metrics)
    assert metrics.counter("sweep.victims.trained") == 1
    assert metrics.counter("sweep.victims.cached") == len(units) - (jobs == 1)
    assert metrics.timers["sweep.victim_fit"].count == 1


def test_serial_sweep_fits_the_victim_inside_the_first_cell(cold_memo):
    """At ``jobs=1`` nothing runs before the first cell, so per-cell
    timings keep the victim fit in that cell."""
    metrics = MetricsRegistry()
    run_sweep(plan_units(tiny_config()), jobs=1, metrics=metrics)
    fit = metrics.timers["sweep.victim_fit"].total_seconds
    assert metrics.timers["sweep.cell"].max_seconds >= fit


def test_full_memo_keeps_the_victims_a_parallel_sweep_just_trained(monkeypatch):
    """Stale entries from an earlier sweep fill most of the memo; training
    two new victims before the fork must evict only stale ones, or every
    slot retrains the victim the second insert pushed out."""
    stale = sweep._VictimContext(None, None, None, None, 0.0)
    monkeypatch.setattr(
        sweep, "_VICTIM_CACHE", {f"stale-{i}": stale for i in range(3)}
    )
    units = [
        unit
        for seed in (0, 1)
        for unit in plan_units(tiny_config(ratios=(0.5,), seed=seed))
    ]
    metrics = MetricsRegistry()
    run_sweep(units, jobs=2, metrics=metrics)
    assert metrics.counter("sweep.victims.trained") == 2
