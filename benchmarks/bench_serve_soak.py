"""Sustained soak under injected chaos: the serving resilience artefact.

A live :class:`repro.serve.server.ModelServer` (worker pool, crash
isolation) takes a sustained multi-tenant ``seal``/``unseal``/``verify``
mix while the ``REPRO_CHAOS`` hooks sabotage it on purpose:

* **connection drops** — responses to the ``drop-*`` tenants are
  truncated mid-write and the socket hard-closed;
* **worker kill** — the first batch carrying the ``killer`` tenant
  hard-exits its worker slot (the slot is restarted);
* **write stalls** — responses to the ``stall-*`` tenants are delayed.

Every fault is one-shot (sentinel files), so the retrying client's
replay lands on a healthy path: the recorded claim is **100% eventual
availability under chaos, with zero hung clients** — every request
completes as success-or-typed-error inside a hard wall-clock budget, and
every retried ``seal`` is a byte-identical pinned-counter replay
(``serve.seal.replays``, never ``serve.seal.pad_reuse``).  Alongside the
availability numbers the artefact records client-observed p50/p95/p99
(which include retry/backoff time) next to the server-side
``serve.request`` quantiles and the client's own retry-pause and
(re)connect time (``serve.client.backoff`` / ``serve.client.connect``),
extending the latency floor recorded by ``bench_serve_latency.py`` to a
faulty network.
"""

import asyncio
import json
import time

from repro.core.seal import LineSealer
from repro.eval.reporting import ascii_table
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.serve import ModelServer, RetryPolicy, ServeClient, ServeConfig
from repro.serve.client import ServeError

LINE_BYTES = 128

#: One client connection per tenant; chaos targets tenants by label.
TENANTS = ("steady", "drop-0", "drop-1", "drop-2", "killer", "stall-0", "stall-1")

RETRY = RetryPolicy(max_attempts=5, base_delay=0.02, max_delay=0.5)

#: Hard budget for the whole soak: if any client hangs, the bench fails
#: loudly here instead of wedging CI.
SOAK_WALL_BUDGET = 120.0


def _chaos_spec(sentinel_dir: str) -> str:
    return json.dumps(
        {
            "drop": ["serve:drop-0", "serve:drop-1", "serve:drop-2"],
            "crash": ["serve:killer"],
            "stall": ["serve:stall-0", "serve:stall-1"],
            "stall_seconds": 0.05,
            "sentinel_dir": sentinel_dir,
        }
    )


def _payload(index: int) -> bytes:
    lines = (1, 2, 4)[index % 3]
    seed = (index * 17) & 0xFF
    return bytes((seed + o) & 0xFF for o in range(lines * LINE_BYTES))


async def _tenant_worker(
    tenant: str,
    jobs: list[int],
    port: int,
    outcomes: list[dict],
    reference: LineSealer,
) -> None:
    """Round-trip each job: pinned seal → unseal → verify, all retried."""
    async with await ServeClient.connect("127.0.0.1", port, retry=RETRY) as client:
        for index in jobs:
            payload = _payload(index)
            counter = 1000 + index  # pinned and unique: retries replay
            base_address = index * 64 * LINE_BYTES
            start = time.perf_counter()
            try:
                sealed = await client.seal(
                    payload,
                    base_address=base_address,
                    counter=counter,
                    tenant=tenant,
                )
                expected = reference.seal(
                    payload, base_address=base_address, counter=counter
                )
                if sealed["ciphertext"] != expected.ciphertext:
                    raise AssertionError(
                        f"seal {index} not byte-identical to the oracle"
                    )
                round_tripped = await client.unseal(**sealed, tenant=tenant)
                if round_tripped != payload:
                    raise AssertionError(f"unseal {index} mismatched payload")
                verdict = await client.verify(
                    sealed["ciphertext"],
                    sealed["tags"],
                    base_address=base_address,
                    counter=counter,
                    tenant=tenant,
                )
                if not verdict["all_ok"]:
                    raise AssertionError(f"verify {index} rejected good tags")
                outcome = {"ok": True, "error": None}
            except ServeError as error:  # typed failure: counted, not hung
                outcome = {"ok": False, "error": error.code.value}
            outcome["tenant"] = tenant
            outcome["seconds"] = time.perf_counter() - start
            outcomes.append(outcome)


def _quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    position = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[position]


def _run_soak(n_requests: int, sentinel_dir: str, monkeypatch) -> dict:
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    monkeypatch.setenv("REPRO_CHAOS", _chaos_spec(sentinel_dir))
    outcomes: list[dict] = []
    try:

        async def scenario() -> float:
            config = ServeConfig(workers=1, request_timeout=30.0)
            reference = LineSealer(config.key)
            async with ModelServer(config) as server:
                shares = {
                    tenant: list(range(n_requests))[i :: len(TENANTS)]
                    for i, tenant in enumerate(TENANTS)
                }
                start = time.perf_counter()
                # The zero-hung-clients claim, enforced: the entire fleet
                # must finish inside the wall budget or the bench errors.
                await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            _tenant_worker(
                                tenant, jobs, server.port, outcomes, reference
                            )
                            for tenant, jobs in shares.items()
                            if jobs
                        )
                    ),
                    timeout=SOAK_WALL_BUDGET,
                )
                return time.perf_counter() - start

        wall_seconds = asyncio.run(scenario())
    finally:
        monkeypatch.delenv("REPRO_CHAOS")
        set_metrics(previous)

    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    timers = snapshot["timers"]

    def timer_ms(name: str, field: str) -> float:
        return timers[name][field] * 1e3 if name in timers else 0.0

    ok = sum(1 for o in outcomes if o["ok"])
    failed = [o for o in outcomes if not o["ok"]]
    latencies = [o["seconds"] for o in outcomes]
    return {
        "requests": len(outcomes),
        "ok": ok,
        "typed_errors": len(failed),
        "error_codes": sorted({o["error"] for o in failed}),
        "eventual_availability": ok / len(outcomes),
        "wall_seconds": wall_seconds,
        "requests_per_second": len(outcomes) / wall_seconds,
        "client_p50_ms": _quantile(latencies, 0.50) * 1e3,
        "client_p95_ms": _quantile(latencies, 0.95) * 1e3,
        "client_p99_ms": _quantile(latencies, 0.99) * 1e3,
        "server_p50_ms": snapshot["timers"]["serve.request"]["p50_seconds"] * 1e3,
        "server_p95_ms": snapshot["timers"]["serve.request"]["p95_seconds"] * 1e3,
        "server_p99_ms": snapshot["timers"]["serve.request"]["p99_seconds"] * 1e3,
        "faults": {
            "connection_drops": counters.get("serve.chaos.connection_drops", 0),
            "worker_crashes": counters.get("serve.worker_crashes", 0),
            "write_stalls": counters.get("serve.chaos.write_stalls", 0),
        },
        "resilience": {
            "client_retries": counters.get("serve.client.retries", 0),
            "client_reconnects": counters.get("serve.client.reconnects", 0),
            "client_giveups": counters.get("serve.client.giveups", 0),
            # Where client time goes outside the server: retry pauses and
            # (re)dials, as totals and per-event p99.
            "client_backoff_total_ms": timer_ms("serve.client.backoff", "total_seconds"),
            "client_backoff_p99_ms": timer_ms("serve.client.backoff", "p99_seconds"),
            "client_connect_total_ms": timer_ms("serve.client.connect", "total_seconds"),
            "client_connect_p99_ms": timer_ms("serve.client.connect", "p99_seconds"),
            "seal_replays": counters.get("serve.seal.replays", 0),
            "pad_reuse": counters.get("serve.seal.pad_reuse", 0),
            "pool_restarts": counters.get("serve.pool_restarts", 0),
        },
        "snapshot": snapshot,
    }


def test_serve_soak(
    benchmark, record_report, record_metrics, bench_scale, monkeypatch, tmp_path
):
    n_requests = 210 if bench_scale == "full" else 63

    result = benchmark.pedantic(
        lambda: _run_soak(n_requests, str(tmp_path), monkeypatch),
        iterations=1,
        rounds=1,
    )

    # Fold the soak's registry into the process one so the BENCH document
    # carries serve.* counters/timers next to the payload.
    get_metrics().merge(result.pop("snapshot"))

    faults = result["faults"]
    resilience = result["resilience"]
    report = (
        f"serve soak under chaos ({result['requests']} round-trip requests, "
        f"{len(TENANTS)} tenants, one-shot faults)\n"
        + ascii_table(
            ("metric", "value"),
            [
                ("eventual availability", f"{result['eventual_availability']:.3f}"),
                ("success / typed error", f"{result['ok']} / {result['typed_errors']}"),
                ("requests/s", f"{result['requests_per_second']:,.0f}"),
                ("client p50/p95/p99 ms",
                 f"{result['client_p50_ms']:.2f} / {result['client_p95_ms']:.2f}"
                 f" / {result['client_p99_ms']:.2f}"),
                ("server p50/p95/p99 ms",
                 f"{result['server_p50_ms']:.2f} / {result['server_p95_ms']:.2f}"
                 f" / {result['server_p99_ms']:.2f}"),
                ("faults injected (drop/crash/stall)",
                 f"{faults['connection_drops']} / {faults['worker_crashes']}"
                 f" / {faults['write_stalls']}"),
                ("client retries / reconnects",
                 f"{resilience['client_retries']} / {resilience['client_reconnects']}"),
                ("client backoff / connect total ms",
                 f"{resilience['client_backoff_total_ms']:.2f}"
                 f" / {resilience['client_connect_total_ms']:.2f}"),
                ("seal replays (benign) / pad reuse",
                 f"{resilience['seal_replays']} / {resilience['pad_reuse']}"),
            ],
        )
        + "\nfloor: every request completes as success-or-typed-error inside "
        f"{SOAK_WALL_BUDGET:g}s; one-shot faults ⇒ availability 1.0"
    )
    record_report("serve_soak", report)
    record_metrics(
        "serve_soak",
        payload={
            "line_bytes": LINE_BYTES,
            "tenants": list(TENANTS),
            "retry_policy": {
                "max_attempts": RETRY.max_attempts,
                "base_delay": RETRY.base_delay,
                "max_delay": RETRY.max_delay,
            },
            **result,
        },
    )

    # Chaos actually fired: the soak is meaningless against a calm server.
    assert faults["connection_drops"] == 3
    assert faults["worker_crashes"] == 1
    assert faults["write_stalls"] == 2
    # The acceptance claims.  One-shot faults + a retrying client mean the
    # soak converges to full availability — and every retried seal was a
    # byte-identical replay, never a fresh-counter re-encryption.
    assert result["eventual_availability"] == 1.0, result["error_codes"]
    assert resilience["client_retries"] >= 1
    assert resilience["pad_reuse"] == 0
    assert resilience["seal_replays"] >= 1
