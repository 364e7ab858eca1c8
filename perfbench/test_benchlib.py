"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402


def test_quantile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert benchlib.quantile(values, 0.5) == 3.0
    assert benchlib.quantile(values, 0.0) == 1.0
    assert benchlib.quantile(values, 1.0) == 5.0
    assert benchlib.quantile(list(range(1, 101)), 0.9) == 90
    with pytest.raises(ValueError):
        benchlib.quantile([], 0.5)


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (99, None),  # p90 leaves only 9 beyond
        (100, 90.0),
        (199, 90.0),  # p95 leaves 9
        (200, 95.0),
        (1000, 99.0),
        (9999, 99.0),  # p99.9 leaves 9
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert benchlib.tail_percentile(n) == expected


def test_summarize_reports_median_tail_and_count():
    values = [float(i) for i in range(1, 201)]
    summary = benchlib.summarize(values)
    assert summary == {"n": 200, "p50": 100.0, "tail_percentile": 95.0, "tail": 190.0}
    small = benchlib.summarize([3.0, 1.0, 2.0])
    assert small["p50"] == 2.0 and small["tail_percentile"] is None and small["tail"] == 3.0
    assert benchlib.summarize([])["n"] == 0


def test_failure_share_and_counting():
    assert benchlib.failure_share(10, 0) == 0.0
    assert benchlib.failure_share(8, 2) == 0.25
    assert benchlib.failure_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        benchlib.failure_share(3, 4)
    assert benchlib.count_outcomes([True, False, True, False, False]) == (5, 3)
    assert benchlib.count_outcomes([]) == (0, 0)


def test_payloads_are_deterministic_per_seed():
    first = benchlib.serve_payloads(7, 0)
    assert first == benchlib.serve_payloads(7, 0)
    assert first != benchlib.serve_payloads(8, 0)
    assert first != benchlib.serve_payloads(7, 1)


def test_payload_mix_does_not_depend_on_the_seed():
    sizes = benchlib.SERVE_LINE_SIZES
    line = benchlib.LINE_BYTES
    for seed in range(5):
        pool = benchlib.serve_payloads(seed, 0)
        counts = sorted(-(-len(payload) // line) for payload, _ in pool)
        assert counts == sorted(list(sizes) * (len(pool) // len(sizes)))
        assert all(base % line == 0 for _, base in pool)
