"""Telemetry-plane cost: serving throughput with the hub off vs on.

The live telemetry plane (``repro.obs.live``) promises to be effectively
free when nobody is watching: with no :class:`TelemetryHub` attached, the
only residue on the hot path is one ``None`` check per metrics
observation and per SLO recording point.  This bench pins that promise
with the same in-process ``seal`` workload in two modes:

* **off** — a plain server, no hub, no subscribers (the default);
* **on** — the hub attached (rolling windows + per-tenant SLO recording
  live), with a frame built per probe batch the way ``--telemetry-out``
  or a ``subscribe`` watcher would.

The two modes run as interleaved off/on pairs (:data:`PAIRS`), so a slow
spell on a shared host lands on both sides of a pair instead of on one
mode.  The recorded artefact reports median seals/s for both modes, the
median and interquartile range of the per-pair enabled delta, and the
*projected* disabled-mode overhead (per-observation cost of the
``None``-check fast path × observations the workload makes).  Only the
projection is asserted, under the 2% bar shared with the tracer — the
same quantity ``tests/obs/test_live_overhead.py`` guards, measured here
against the serving workload itself.  The enabled delta is reported, not
asserted (wall-clock differentials are noisy on shared runners).
"""

import asyncio
import statistics
import time

from repro.eval.reporting import ascii_table
from repro.obs.events import EventLog, set_events
from repro.obs.live import TelemetryHub
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.serve.protocol import Request, to_b64
from repro.serve.server import ModelServer, ServeConfig

LINE_BYTES = 128
REQUESTS = 300
PAIRS = 11
MAX_DISABLED_OVERHEAD = 0.02


def _payloads() -> list[bytes]:
    return [
        bytes(((index * 7) + offset) & 0xFF for offset in range(4 * LINE_BYTES))
        for index in range(REQUESTS)
    ]


async def _drive(server: ModelServer, hub: TelemetryHub | None) -> None:
    for index, payload in enumerate(_payloads()):
        request = Request(
            id=str(index),
            op="seal",
            params={"payload": to_b64(payload), "counter": index + 1},
        )
        response = await server.handle_request(request)
        assert response.ok, response.message
        if hub is not None and index % 50 == 49:
            hub.frame(gauges=server._gauges())


def _run_mode(*, telemetry: bool) -> dict:
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    events = set_events(EventLog())
    try:

        async def scenario() -> float:
            async with ModelServer(ServeConfig()) as server:
                hub = server._ensure_hub() if telemetry else None
                start = time.perf_counter()
                await _drive(server, hub)
                return time.perf_counter() - start

        seconds = asyncio.run(scenario())
        observations = sum(
            stat["count"] for stat in registry.snapshot()["timers"].values()
        )
        return {
            "mode": "on" if telemetry else "off",
            "seconds": seconds,
            "seals_per_s": REQUESTS / seconds,
            "observations": observations,
        }
    finally:
        set_metrics(previous)
        set_events(events)


def _disabled_per_call_cost() -> float:
    """Per-observation cost of the no-hub fast path (attribute + branch)."""
    probe = MetricsRegistry()
    assert probe._tap is None
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        tap = probe._tap
        if tap is not None:
            tap("bench", 0.0)
    return (time.perf_counter() - start) / calls


def _median_run(runs: list[dict]) -> dict:
    """The run with the median wall time (``PAIRS`` is odd)."""
    return sorted(runs, key=lambda run: run["seconds"])[len(runs) // 2]


def test_telemetry_overhead(record_report, record_metrics):
    offs, ons = [], []
    for _ in range(PAIRS):
        offs.append(_run_mode(telemetry=False))
        ons.append(_run_mode(telemetry=True))
    deltas = [
        (off["seals_per_s"] - on["seals_per_s"]) / off["seals_per_s"]
        for off, on in zip(offs, ons)
    ]
    q1, median_delta, q3 = statistics.quantiles(deltas, n=4)
    off, on = _median_run(offs), _median_run(ons)

    per_call = _disabled_per_call_cost()
    projected = per_call * off["observations"]
    projected_fraction = projected / off["seconds"]

    rows = [
        ("off", f"{off['seals_per_s']:.0f}", f"{off['seconds'] * 1e3:.1f}"),
        ("on", f"{on['seals_per_s']:.0f}", f"{on['seconds'] * 1e3:.1f}"),
    ]
    table = ascii_table(("telemetry", "seals/s (median)", "wall ms"), rows)
    summary = (
        f"{table}\n"
        f"observations (off run): {off['observations']}\n"
        f"disabled fast path: {per_call * 1e9:.0f}ns/observation, "
        f"projected {projected * 1e6:.1f}us = "
        f"{projected_fraction:.3%} of the run (bar {MAX_DISABLED_OVERHEAD:.0%})\n"
        f"enabled delta over {PAIRS} interleaved off/on pairs: median "
        f"{median_delta:+.1%}, IQR {q3 - q1:.1%} ({q1:+.1%} to {q3:+.1%}; "
        "informational)"
    )
    record_report("telemetry_overhead", summary)
    record_metrics(
        "telemetry_overhead",
        payload={
            "requests": REQUESTS,
            "pairs": PAIRS,
            "off": off,
            "on": on,
            "disabled_per_call_seconds": per_call,
            "projected_disabled_fraction": projected_fraction,
            "enabled_deltas": deltas,
            "measured_enabled_delta": median_delta,
            "enabled_delta_iqr": q3 - q1,
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        },
    )

    assert projected_fraction < MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry projects to {projected_fraction:.3%} of the "
        f"serving run (> {MAX_DISABLED_OVERHEAD:.0%})"
    )
