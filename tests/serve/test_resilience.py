"""Resilience tests: reconnect, retry, drain, health, degraded mode.

Exercises the failure paths end to end on loopback sockets: servers are
restarted under a live client, responses are dropped mid-write via the
``REPRO_CHAOS`` service-layer hooks, worker pools are crashed into the
degraded-mode circuit breaker, and a draining server is probed for the
liveness exemptions.  The crypto-specific invariant throughout: a
retried pinned-counter ``seal`` must be a byte-identical replay
(``serve.seal.replays``), never a fresh encryption or a pad-reuse event.
"""

import asyncio
import contextlib
import json

import pytest

from repro.core.seal import LineSealer
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.serve import (
    ModelServer,
    RetryPolicy,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import ErrorCode, Request

LINE = 128

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.1)
NO_RETRY = RetryPolicy(max_attempts=1)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


@contextlib.asynccontextmanager
async def serving(config: ServeConfig, retry: RetryPolicy = FAST_RETRY):
    async with ModelServer(config) as server:
        client = await ServeClient.connect("127.0.0.1", server.port, retry=retry)
        try:
            yield server, client
        finally:
            await client.close()


def run(coroutine):
    return asyncio.run(coroutine)


class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=2.0, jitter=0.5)
        delays = [policy.delay(n, "c7") for n in range(8)]
        assert delays == [policy.delay(n, "c7") for n in range(8)]
        for n, delay in enumerate(delays):
            cap = min(2.0, 0.05 * 2**n)
            assert cap / 2 <= delay <= cap
        # Distinct tokens decorrelate (same backoff, different jitter).
        assert policy.delay(3, "c7") != policy.delay(3, "c8")

    def test_retry_after_raises_the_pause(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=2.0)
        assert policy.delay(0, "t", retry_after=0.5) >= 0.5
        # ... but is still capped by max_delay.
        assert policy.delay(0, "t", retry_after=99.0) <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestRetryability:
    def test_classification(self):
        retryable = ServeClient._retryable
        for op in ("verify", "plan", "stats", "ping", "health"):
            assert retryable(op, {})
        assert retryable("unseal", {"counter": 1})
        assert retryable("seal", {"counter": 5})  # pinned: safe replay
        assert not retryable("seal", {})  # defaulted: would burn counters
        assert not retryable("seal", {"counter": None})
        assert not retryable("shutdown", {})


class TestConnectionLoss:
    def test_in_flight_future_fails_promptly_typed(self, registry):
        async def scenario():
            async def handler(reader, writer):
                await reader.readline()  # swallow the request...
                writer.close()  # ...and hang up without answering

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServeClient.connect("127.0.0.1", port, retry=NO_RETRY)
            try:
                with pytest.raises(ServeError) as info:
                    await asyncio.wait_for(client.ping(), timeout=2.0)
                assert info.value.code is ErrorCode.CONNECTION_LOST
                assert info.value.status == 503
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            assert registry.counters["serve.client.connection_lost"] >= 1

        run(scenario())

    def test_close_fails_in_flight_and_is_idempotent(self, registry):
        async def scenario():
            async def handler(reader, writer):
                await reader.readline()
                await asyncio.sleep(3600)  # never answer, never close

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServeClient.connect("127.0.0.1", port, retry=NO_RETRY)
            pending = asyncio.ensure_future(client.ping())
            await asyncio.sleep(0.05)  # let the request hit the wire
            await client.close()
            with pytest.raises(ServeError) as info:
                await asyncio.wait_for(pending, timeout=2.0)
            assert info.value.code is ErrorCode.CONNECTION_LOST
            await client.close()  # second close: no-op, no raise
            with pytest.raises(ServeError):
                await client.ping()  # closed client refuses new work
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_reconnects_after_server_restart(self, registry):
        async def scenario():
            config = ServeConfig()
            async with ModelServer(config) as first:
                port = first.port
                client = await ServeClient.connect("127.0.0.1", port, retry=FAST_RETRY)
                assert (await client.ping())["pong"] is True
            # First server is gone; bring a replacement up on the same port.
            async with ModelServer(ServeConfig(port=port)):
                sealed = await client.seal(b"r" * LINE, counter=11)
                assert sealed["counter"] == 11
                await client.close()
            assert registry.counters["serve.client.reconnects"] >= 1

        run(scenario())


class TestChaosDropAndStall:
    def test_dropped_response_is_retried_transparently(
        self, registry, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"drop": ["serve:droppy"], "sentinel_dir": str(tmp_path)}),
        )

        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                sealed = await client.seal(b"d" * LINE, counter=3, tenant="ok")
                verdict = await client.verify(
                    sealed["ciphertext"], sealed["tags"],
                    counter=3, tenant="droppy",
                )
                assert verdict["all_ok"] is True
            assert registry.counters["serve.chaos.connection_drops"] == 1
            assert registry.counters["serve.client.retries"] >= 1
            assert registry.counters["serve.client.retries.verify"] >= 1
            assert registry.counters["serve.client.reconnects"] >= 1

        run(scenario())

    def test_retry_pause_and_redial_are_timed(
        self, registry, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"drop": ["serve:droppy"], "sentinel_dir": str(tmp_path)}),
        )

        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                assert (await client.ping())["pong"] is True
                await client.request("stats", tenant="droppy")
            retries = registry.counters["serve.client.retries"]
            assert retries == 1
            assert registry.timers["serve.client.backoff"].count == retries
            # The first dial plus the redial after the dropped response.
            assert registry.timers["serve.client.connect"].count == 2

        run(scenario())

    def test_pinned_seal_retry_is_byte_identical_replay(
        self, registry, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"drop": ["serve:sealdrop"], "sentinel_dir": str(tmp_path)}),
        )

        async def scenario():
            config = ServeConfig()
            async with serving(config) as (_, client):
                payload = b"\xa5" * 300
                sealed = await client.seal(
                    payload, base_address=0x40, counter=77, tenant="sealdrop"
                )
                reference = LineSealer(config.key).seal(
                    payload, base_address=0x40, counter=77
                )
                assert sealed["ciphertext"] == reference.ciphertext
                assert sealed["tags"] == list(reference.tags)
                assert await client.unseal(**sealed) == payload
            # The replayed seal hit the same (base_address, counter) pair
            # with identical bytes: benign replay, NOT a pad-reuse event.
            assert registry.counters["serve.client.retries.seal"] >= 1
            assert registry.counters["serve.seal.replays"] == 1
            assert "serve.seal.pad_reuse" not in registry.counters

        run(scenario())

    def test_unpinned_seal_is_not_retried(self, registry, monkeypatch, tmp_path):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"drop": ["serve:lossy"], "sentinel_dir": str(tmp_path)}),
        )

        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                with pytest.raises(ServeError) as info:
                    await client.seal(b"u" * LINE, tenant="lossy")
                assert info.value.code is ErrorCode.CONNECTION_LOST
            assert "serve.client.retries.seal" not in registry.counters

        run(scenario())

    def test_stalled_write_delays_but_delivers(
        self, registry, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps(
                {
                    "stall": ["serve:slow"],
                    "stall_seconds": 0.05,
                    "sentinel_dir": str(tmp_path),
                }
            ),
        )

        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                assert (
                    await client.request("ping", tenant="slow")
                )["pong"] is True
            assert registry.counters["serve.chaos.write_stalls"] == 1

        run(scenario())


class TestDrain:
    def test_drain_rejects_work_but_answers_liveness(self, registry):
        async def scenario():
            async with serving(ServeConfig(drain_timeout=0.5)) as (server, client):
                await client.seal(b"w" * LINE, counter=2)
                assert await server.drain() is True
                # Work is refused with a typed, dated rejection...
                with pytest.raises(ServeError) as info:
                    await client.verify(b"x" * LINE, [b"t" * 8], counter=2)
                assert info.value.code is ErrorCode.UNAVAILABLE
                assert info.value.detail and "retry_after" in info.value.detail
                # ...while liveness ops keep answering.
                assert (await client.ping())["pong"] is True
                health = await client.health()
                assert health["status"] == "draining"
                assert health["draining"] is True
                stats = await client.stats()
                assert stats["counters"]["serve.requests.rejected.draining"] >= 1
            assert registry.counters["serve.drain.started"] == 1
            assert registry.counters["serve.drain.completed"] == 1

        run(scenario())

    def test_drain_times_out_with_stuck_in_flight(self, registry):
        async def scenario():
            async with ModelServer(ServeConfig()) as server:
                server._in_flight = 1  # simulate a stuck request
                assert await server.drain(timeout=0.1) is False
                server._in_flight = 0
            assert registry.counters["serve.drain.timeout"] == 1

        run(scenario())

    def test_drain_is_idempotent(self, registry):
        async def scenario():
            async with ModelServer(ServeConfig()) as server:
                first = asyncio.ensure_future(server.drain(timeout=0.5))
                second = asyncio.ensure_future(server.drain(timeout=0.5))
                assert await first is True
                assert await second is True
            assert registry.counters["serve.drain.started"] == 1

        run(scenario())


class TestHealth:
    def test_health_reports_queue_and_workers(self, registry):
        async def scenario():
            async with serving(ServeConfig(workers=0)) as (_, client):
                health = await client.health()
                assert health["status"] == "ok"
                assert health["degraded"] is False
                assert set(health["queued"]) == {"seal", "unseal", "verify"}
                assert health["workers"]["configured"] == 0
                assert health["workers"]["pool_live"] is False

        run(scenario())

    def test_health_is_quota_and_backpressure_exempt(self, registry):
        async def scenario():
            config = ServeConfig(quota_rate=1e-9, quota_burst=1e-9, queue_limit=1)
            async with serving(config) as (server, client):
                with pytest.raises(ServeError) as info:
                    await client.seal(b"q" * LINE, counter=1)
                assert info.value.code is ErrorCode.QUOTA_EXHAUSTED
                # Saturate the admission queue artificially: liveness ops
                # must answer even when every slot is taken.
                server._in_flight = server.config.queue_limit
                for op in ("ping", "stats", "health"):
                    response = await server.handle_request(Request(id="x", op=op))
                    assert response.ok, op
                server._in_flight = 0

        run(scenario())


class TestDegradedMode:
    def test_circuit_opens_and_serves_inline(self, registry, monkeypatch):
        # No sentinel_dir: the crash fires on *every* pool attempt, so
        # only the degraded fallback (which strips worker chaos) can
        # possibly serve this tenant.
        monkeypatch.setenv(
            "REPRO_CHAOS", json.dumps({"crash": ["serve:boom"]})
        )

        async def scenario():
            config = ServeConfig(
                workers=1,
                request_timeout=30.0,
                degraded_threshold=1,
                degraded_recovery=60.0,
            )
            async with serving(config, retry=NO_RETRY) as (server, client):
                with pytest.raises(ServeError) as info:
                    await client.seal(b"b" * LINE, tenant="boom")
                assert info.value.code is ErrorCode.CRASHED
                assert server.degraded is True
                # Degraded now: the same request succeeds inline — chaos
                # is stripped on the fallback path, by design.
                sealed = await client.seal(b"b" * LINE, counter=4, tenant="boom")
                reference = LineSealer(config.key).seal(
                    b"b" * LINE, base_address=0, counter=4
                )
                assert sealed["ciphertext"] == reference.ciphertext
                health = await client.health()
                assert health["status"] == "degraded"
            assert registry.counters["serve.degraded.entered"] == 1
            assert registry.counters["serve.degraded.batches"] >= 1
            assert registry.counters["serve.degraded.requests"] >= 1

        run(scenario())

    def test_recovery_probe_closes_the_circuit(
        self, registry, monkeypatch, tmp_path
    ):
        # once-semantics: the crash fires exactly once, so the recovery
        # probe finds a healthy pool and the circuit closes again.
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"crash": ["serve:flaky"], "sentinel_dir": str(tmp_path)}),
        )

        async def scenario():
            config = ServeConfig(
                workers=1,
                request_timeout=30.0,
                degraded_threshold=1,
                degraded_recovery=0.0,  # probe immediately
            )
            async with serving(config) as (server, client):
                # Pinned counter: the client retries the crashed seal; the
                # retry is the recovery probe and heals the server.
                sealed = await client.seal(
                    b"f" * LINE, counter=21, tenant="flaky"
                )
                assert sealed["counter"] == 21
                assert server.degraded is False
            assert registry.counters["serve.degraded.entered"] == 1
            assert registry.counters["serve.degraded.probes"] >= 1
            assert registry.counters["serve.degraded.recovered"] == 1
            assert registry.counters["serve.client.retries.seal"] >= 1

        run(scenario())


class TestBatcherStop:
    def test_submit_after_stop_fails_fast(self):
        async def scenario():
            async def execute(items):
                return list(items)

            batcher = MicroBatcher(execute)
            await batcher.start()
            assert await batcher.submit("x") == "x"
            await batcher.stop()
            with pytest.raises(RuntimeError, match="batcher stopped"):
                await batcher.submit("y")
            await batcher.start()  # explicit restart re-arms it
            assert await batcher.submit("z") == "z"
            await batcher.stop()

        run(scenario())
