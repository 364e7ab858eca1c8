"""Server behaviour tests: admission control, hardening, observability.

Each test runs a real :class:`ModelServer` on a loopback socket inside its
own event loop — small and fast because the payloads are a few cache
lines.  The worker-pool tests reuse the ``REPRO_CHAOS`` hooks from
:mod:`repro.faults.chaos` (label ``serve:<tenant>``) to crash and hang
workers on demand.
"""

import asyncio
import contextlib
import json
import multiprocessing

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
from repro.serve.protocol import STREAM_LIMIT_BYTES, ErrorCode

LINE = 128


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


@contextlib.asynccontextmanager
async def serving(config: ServeConfig):
    async with ModelServer(config) as server:
        client = await ServeClient.connect("127.0.0.1", server.port)
        try:
            yield server, client
        finally:
            await client.close()


def run(coroutine):
    return asyncio.run(coroutine)


class TestRoundTrips:
    def test_seal_unseal_verify(self, registry):
        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                payload = bytes(range(256)) + b"tail"  # unaligned length
                sealed = await client.seal(
                    payload, base_address=0x2000, counter=9
                )
                assert len(sealed["ciphertext"]) % LINE == 0
                assert sealed["length"] == len(payload)
                assert await client.unseal(**sealed) == payload
                verdict = await client.verify(
                    sealed["ciphertext"], sealed["tags"],
                    base_address=0x2000, counter=9,
                )
                assert verdict["all_ok"] is True

        run(scenario())

    def test_served_seal_matches_serial_sealer(self, registry):
        async def scenario():
            config = ServeConfig()
            async with serving(config) as (_, client):
                payload = b"\x5a" * 777
                sealed = await client.seal(payload, base_address=64, counter=3)
                reference = LineSealer(config.key).seal(
                    payload, base_address=64, counter=3
                )
                assert sealed["ciphertext"] == reference.ciphertext
                assert sealed["tags"] == list(reference.tags)

        run(scenario())

    def test_tampered_unseal_names_lines(self, registry):
        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                sealed = await client.seal(b"\x11" * (LINE * 3))
                corrupted = bytearray(sealed["ciphertext"])
                corrupted[LINE] ^= 0x01  # line 1
                with pytest.raises(ServeError) as info:
                    await client.unseal(
                        bytes(corrupted), sealed["tags"],
                        base_address=sealed["base_address"],
                        counter=sealed["counter"],
                        length=sealed["length"],
                    )
                assert info.value.code is ErrorCode.VERIFY_FAILED
                assert info.value.status == 403
                assert info.value.detail == {"lines": [1]}
                verdict = await client.verify(
                    bytes(corrupted), sealed["tags"],
                    base_address=sealed["base_address"],
                    counter=sealed["counter"],
                )
                assert verdict["line_ok"] == [True, False, True]

        run(scenario())

    def test_plan_and_ping_and_stats(self, registry):
        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                assert (await client.ping())["pong"] is True
                plan = await client.plan("mlp", 0.5)
                assert plan["model"].startswith("MLP")
                assert 0.5 <= plan["realized_ratio"] <= 1.0
                assert any(layer["boundary"] for layer in plan["layers"])
                await client.seal(b"x" * LINE)
                stats = await client.stats()
                assert stats["protocol"] == "repro.serve/v1"
                assert stats["counters"]["serve.lines.sealed"] == 1
                assert stats["timers"]["serve.request"]["count"] >= 1

        run(scenario())

    def test_bad_requests_are_rejected_not_fatal(self, registry):
        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                for op, params in [
                    ("seal", {}),  # missing payload
                    ("seal", {"payload": ""}),  # empty payload
                    ("seal", {"payload": "###"}),  # invalid base64
                    ("unseal", {"ciphertext": "QQ==", "tags": []}),  # misaligned
                    ("plan", {"model": "gpt"}),  # unknown model
                    ("plan", {"ratio": 2.0}),  # out of range
                ]:
                    with pytest.raises(ServeError) as info:
                        await client.request(op, params)
                    assert info.value.code is ErrorCode.BAD_REQUEST
                # The connection survives all of the above.
                assert (await client.ping())["pong"] is True

        run(scenario())

    def test_shutdown_op_stops_server(self, registry):
        async def scenario():
            server = ModelServer(ServeConfig())
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            client = await ServeClient.connect("127.0.0.1", port)
            assert (await client.shutdown())["stopping"] is True
            await asyncio.wait_for(serve_task, timeout=5)
            await client.close()

        run(scenario())


class TestAdmissionControl:
    def test_backpressure_rejects_beyond_queue_limit(self, registry):
        async def scenario():
            config = ServeConfig(queue_limit=1, max_batch=1)
            async with serving(config) as (_, client):
                payload = b"p" * (LINE * 64)
                results = await asyncio.gather(
                    *(client.seal(payload) for _ in range(12)),
                    return_exceptions=True,
                )
                rejected = [
                    r for r in results
                    if isinstance(r, ServeError)
                    and r.code is ErrorCode.OVERLOADED
                ]
                succeeded = [r for r in results if isinstance(r, dict)]
                assert rejected and succeeded
                assert len(rejected) + len(succeeded) == 12
                stats = await client.stats()
                assert stats["counters"][
                    "serve.requests.rejected.backpressure"
                ] == len(rejected)

        run(scenario())

    def test_quota_charges_per_line_and_isolates_tenants(self, registry):
        async def scenario():
            # Negligible refill: the burst is the whole budget.
            config = ServeConfig(quota_rate=1e-6, quota_burst=4.0)
            async with serving(config) as (_, client):
                await client.seal(b"q" * (LINE * 4), tenant="meter")
                with pytest.raises(ServeError) as info:
                    await client.seal(b"q" * LINE, tenant="meter")
                assert info.value.code is ErrorCode.QUOTA_EXHAUSTED
                assert info.value.status == 429
                # A different tenant has an untouched bucket.
                await client.seal(b"q" * LINE, tenant="fresh")
                stats = await client.stats()
                assert stats["counters"]["serve.requests.rejected.quota"] == 1
                assert stats["tenants"] == ["fresh", "meter"]

        run(scenario())


class TestHardening:
    def test_worker_crash_is_isolated_and_pool_restarts(
        self, registry, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", json.dumps({"crash": ["serve:evil"]}))

        async def scenario():
            config = ServeConfig(workers=1, request_timeout=30.0)
            async with serving(config) as (_, client):
                # Explicit counter: the determinism assertion below needs
                # an identical keystream before and after the restart.
                before = await client.seal(b"c" * LINE, tenant="good", counter=7)
                with pytest.raises(ServeError) as info:
                    await client.seal(b"c" * LINE, tenant="evil")
                assert info.value.code is ErrorCode.CRASHED
                monkeypatch.delenv("REPRO_CHAOS")
                after = await client.seal(b"c" * LINE, tenant="good", counter=7)
                assert after["ciphertext"] == before["ciphertext"]
                stats = await client.stats()
                assert stats["counters"]["serve.pool_restarts"] == 1
                assert stats["counters"]["serve.worker_crashes"] == 1

        run(scenario())

    def test_hung_worker_times_out_and_pool_recovers(
        self, registry, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"hang": ["serve:sloth"], "hang_seconds": 60}),
        )

        async def scenario():
            config = ServeConfig(workers=1, request_timeout=0.8)
            async with serving(config) as (_, client):
                with pytest.raises(ServeError) as info:
                    await client.seal(b"t" * LINE, tenant="sloth")
                assert info.value.code is ErrorCode.TIMEOUT
                assert info.value.status == 504
                monkeypatch.delenv("REPRO_CHAOS")
                await client.seal(b"t" * LINE, tenant="good")
                stats = await client.stats()
                assert stats["counters"]["serve.requests.timeout"] == 1
                assert stats["counters"]["serve.pool_restarts"] == 1

        run(scenario())

    def test_inline_timeout_without_pool(self, registry, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"hang": ["serve:sloth"], "hang_seconds": 2}),
        )

        async def scenario():
            config = ServeConfig(workers=0, request_timeout=0.3)
            async with serving(config) as (_, client):
                with pytest.raises(ServeError) as info:
                    await client.seal(b"i" * LINE, tenant="sloth")
                assert info.value.code is ErrorCode.TIMEOUT

        run(scenario())

    def test_inline_timeouts_abandon_threads_without_starving_later_batches(
        self, registry, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"hang": ["serve:sloth"], "hang_seconds": 1.5}),
        )

        async def scenario():
            config = ServeConfig(workers=0, request_timeout=0.3)
            async with serving(config) as (_, client):
                sealed = await client.seal(b"w" * LINE, counter=5, tenant="good")
                hung = await asyncio.gather(
                    client.seal(b"w" * LINE, counter=6, tenant="sloth"),
                    client.unseal(**sealed, tenant="sloth"),
                    client.verify(
                        sealed["ciphertext"], sealed["tags"], counter=5,
                        tenant="sloth",
                    ),
                    return_exceptions=True,
                )
                assert [error.code for error in hung] == [ErrorCode.TIMEOUT] * 3
                # One wedged thread per batched op: a shared executor of
                # that size would now be full until the hangs end.
                start = asyncio.get_running_loop().time()
                assert await client.unseal(**sealed, tenant="good") == b"w" * LINE
                assert asyncio.get_running_loop().time() - start < 1.0
                health = await client.health()
                assert health["workers"]["inline_abandoned"] == 3
            assert registry.counters["serve.inline.abandoned"] == 3

        run(scenario())


class TestWorkerSlots:
    def test_crash_fails_every_pipelined_batch_then_the_slot_restarts(
        self, registry, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps(
                {"hang": ["serve:sloth"], "hang_seconds": 0.8, "crash": ["serve:evil"]}
            ),
        )

        async def scenario():
            config = ServeConfig(workers=1, request_timeout=30.0)
            async with ModelServer(config) as server:
                client = await ServeClient.connect(
                    "127.0.0.1", server.port, retry=RetryPolicy(max_attempts=1)
                )
                try:
                    sealed = await client.seal(b"p" * LINE, counter=3, tenant="good")
                    # One slot, three ops: the verify holds the slot, the
                    # crashing seal and the unseal queue behind it.
                    slow = asyncio.ensure_future(
                        client.verify(
                            sealed["ciphertext"], sealed["tags"], counter=3,
                            tenant="sloth",
                        )
                    )
                    await asyncio.sleep(0.1)
                    doomed = asyncio.ensure_future(
                        client.seal(b"p" * LINE, counter=4, tenant="evil")
                    )
                    await asyncio.sleep(0.05)
                    behind = asyncio.ensure_future(
                        client.unseal(**sealed, tenant="good")
                    )
                    assert (await slow)["all_ok"] is True
                    for task in (doomed, behind):
                        with pytest.raises(ServeError) as info:
                            await task
                        assert info.value.code is ErrorCode.CRASHED
                    assert await client.unseal(**sealed, tenant="good") == b"p" * LINE
                    counters = (await client.stats())["counters"]
                    assert counters["serve.worker_crashes"] == 2
                    assert counters["serve.pool_restarts"] == 1
                finally:
                    await client.close()

        run(scenario())

    def test_worker_exception_is_a_typed_error_and_the_slot_survives(
        self, registry, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", json.dumps({"fail": ["serve:poison"]}))

        async def scenario():
            async with serving(ServeConfig(workers=1)) as (_, client):
                with pytest.raises(ServeError) as info:
                    await client.seal(b"x" * LINE, counter=1, tenant="poison")
                assert info.value.code is ErrorCode.INTERNAL
                assert "ChaosFault" in str(info.value)
                await client.seal(b"x" * LINE, counter=1, tenant="good")
                counters = (await client.stats())["counters"]
                assert "serve.pool_restarts" not in counters
                assert "serve.worker_crashes" not in counters

        run(scenario())

    def test_ping_answers_while_a_4096_line_seal_is_in_flight(
        self, registry, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"hang": ["serve:sloth"], "hang_seconds": 1.5}),
        )
        payload = bytes(range(256)) * (4096 * LINE // 256)

        async def scenario():
            config = ServeConfig(workers=1, request_timeout=30.0)
            async with serving(config) as (server, client):
                sealed = await client.seal(b"s" * LINE, counter=1, tenant="good")
                loop = asyncio.get_running_loop()
                start = loop.time()
                slow = asyncio.ensure_future(
                    client.verify(
                        sealed["ciphertext"], sealed["tags"], counter=1,
                        tenant="sloth",
                    )
                )
                await asyncio.sleep(0.1)
                # Its 512 kB frame queues behind the hung verify.  Client
                # and server share this loop, so a blocking write would
                # hold the ping below until the hang ends.
                big = asyncio.ensure_future(
                    client.seal(payload, counter=2, tenant="big")
                )
                await asyncio.sleep(0.2)
                other = await ServeClient.connect("127.0.0.1", server.port)
                try:
                    assert (await other.ping())["pong"] is True
                    assert loop.time() - start < 1.0
                    assert not (slow.done() or big.done())
                finally:
                    await other.close()
                await slow
                reference = LineSealer(config.key).seal(
                    payload, base_address=0, counter=2
                )
                assert (await big)["ciphertext"] == reference.ciphertext

        run(scenario())

    def test_no_worker_process_outlives_the_server(self, registry):
        async def scenario():
            async with serving(ServeConfig(workers=2)) as (_, client):
                await asyncio.gather(
                    *(client.seal(b"z" * LINE, counter=i) for i in range(8))
                )
                assert multiprocessing.active_children()

        run(scenario())
        assert multiprocessing.active_children() == []


class TestStreamLimits:
    def test_large_payload_exceeds_default_stream_limit(self, registry):
        """A payload whose wire line tops asyncio's 64 KiB StreamReader
        default must round-trip (regression: start_server/open_connection
        now pass limit=STREAM_LIMIT_BYTES)."""

        async def scenario():
            config = ServeConfig()
            async with serving(config) as (_, client):
                payload = bytes(range(256)) * 384  # 96 KiB -> ~128 KiB line
                sealed = await client.seal(
                    payload, base_address=0x4000, counter=2
                )
                reference = LineSealer(config.key).seal(
                    payload, base_address=0x4000, counter=2
                )
                assert sealed["ciphertext"] == reference.ciphertext
                assert await client.unseal(**sealed) == payload

        run(scenario())

    def test_oversized_line_gets_error_response_then_close(self, registry):
        """A line over STREAM_LIMIT_BYTES draws a bad_request response
        (not a silent connection drop); framing is lost so the server
        then closes the connection."""

        async def scenario():
            async with ModelServer(ServeConfig()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    writer.write(
                        b'{"id":"big","op":"ping","params":{"pad":"'
                        + b"x" * (STREAM_LIMIT_BYTES + 64)
                        + b'"}}\n'
                    )
                    with contextlib.suppress(
                        ConnectionResetError, BrokenPipeError
                    ):
                        await writer.drain()
                    document = json.loads(await reader.readline())
                    assert document["ok"] is False
                    assert document["error"]["code"] == "bad_request"
                    assert "exceeds" in document["error"]["message"]
                    assert await reader.readline() == b""  # closed
                finally:
                    writer.close()
                    with contextlib.suppress(
                        ConnectionResetError, BrokenPipeError, OSError
                    ):
                        await writer.wait_closed()

        run(scenario())


class TestNonceHygiene:
    def test_defaulted_seals_never_share_a_counter(self, registry):
        """Omitting ``counter`` must yield a fresh server-assigned one
        per seal — two defaulted seals of the same bytes may never share
        a CTR pad (their ciphertext XOR would reveal the plaintext XOR).
        """

        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                payload = b"same bytes, sealed twice" * 8
                first = await client.seal(payload)
                second = await client.seal(payload)
                assert first["counter"] != second["counter"]
                assert first["ciphertext"] != second["ciphertext"]
                assert await client.unseal(**first) == payload
                assert await client.unseal(**second) == payload
                stats = await client.stats()
                assert "serve.seal.pad_reuse" not in stats["counters"]

        run(scenario())

    def test_explicit_counter_reuse_is_counted(self, registry):
        async def scenario():
            async with serving(ServeConfig()) as (_, client):
                await client.seal(b"a" * LINE, base_address=0, counter=5)
                await client.seal(b"b" * LINE, base_address=0, counter=5)
                # Different base address: a distinct pad, no reuse.
                await client.seal(
                    b"c" * LINE, base_address=LINE * 64, counter=5
                )
                stats = await client.stats()
                assert stats["counters"]["serve.seal.pad_reuse"] == 1

        run(scenario())


class TestShutdownGating:
    def test_shutdown_token_required_when_configured(self, registry):
        async def scenario():
            server = ModelServer(ServeConfig(shutdown_token="s3cret"))
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                for attempt in (None, "wrong"):
                    with pytest.raises(ServeError) as info:
                        await client.shutdown(token=attempt)
                    assert info.value.code is ErrorCode.FORBIDDEN
                    assert info.value.status == 403
                assert (await client.ping())["pong"] is True  # still up
                stats = await client.stats()
                assert stats["counters"][
                    "serve.requests.rejected.shutdown"
                ] == 2
                result = await client.shutdown(token="s3cret")
                assert result["stopping"] is True
                await asyncio.wait_for(serve_task, timeout=5)
            finally:
                await client.close()

        run(scenario())

    def test_non_loopback_bind_refuses_unauthenticated_shutdown(
        self, registry
    ):
        async def scenario():
            config = ServeConfig(host="0.0.0.0")
            async with ModelServer(config) as server:
                client = await ServeClient.connect("127.0.0.1", server.port)
                try:
                    with pytest.raises(ServeError) as info:
                        await client.shutdown()
                    assert info.value.code is ErrorCode.FORBIDDEN
                    assert (await client.ping())["pong"] is True
                finally:
                    await client.close()

        run(scenario())

    def test_allow_remote_shutdown_opts_in(self, registry):
        async def scenario():
            config = ServeConfig(host="0.0.0.0", allow_remote_shutdown=True)
            server = ModelServer(config)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                assert (await client.shutdown())["stopping"] is True
                await asyncio.wait_for(serve_task, timeout=5)
            finally:
                await client.close()

        run(scenario())
