"""Clients for the ``repro.serve/v1`` protocol — resilient by default.

:class:`ServeClient` is the native asyncio client: one TCP connection,
requests multiplexed by id, responses demultiplexed by a background
reader task — so a single client can keep many requests in flight (which
is exactly what the load-generating benches do).  On top of that sits
the resilience layer this module exists for:

* **automatic reconnect** — the client remembers its address; a dropped
  connection fails every in-flight future promptly with a typed
  ``connection_lost`` :class:`ServeError` and the next request (or retry)
  dials again (``serve.client.reconnects``);
* **bounded retry with deterministic jitter** — :class:`RetryPolicy`
  replays requests that failed with a code in
  :data:`~repro.serve.protocol.RETRYABLE_CODES`, backing off
  exponentially with jitter derived from a hash of the request token (so
  a retry schedule is reproducible, yet two clients never thunder in
  lockstep) and honouring a server-supplied ``retry_after`` hint;
* **nonce-safe replay** — ``verify``/``plan``/``stats``/``ping``/
  ``health`` retry freely and ``unseal`` always carries its counter, but
  ``seal`` retries *only* when the caller pinned ``(base_address,
  counter)``: the replay is then byte-identical (same CTR pad, same
  plaintext, same ciphertext).  A defaulted seal must NOT be replayed —
  each attempt would burn a fresh server-assigned counter and the client
  could not know which response, if any, was sealed (docs/serving.md,
  "Resilience").

Everything is observable as ``serve.client.*`` counters, the
``serve.client.connect`` (dial) and ``serve.client.backoff`` (retry
pause) timers and — when tracing is on — one ``serve.client.request``
span per logical request with its attempt count.
:class:`BlockingServeClient` wraps it all for
synchronous callers (tests, notebooks) via a private event loop on a
daemon thread.

Convenience methods decode base64 payloads back to ``bytes`` and raise
:class:`ServeError` (carrying the wire ``code``/``status``) on failure
responses, so callers never touch raw protocol dicts unless they want to
(:meth:`ServeClient.request` returns them verbatim).

>>> # against a running server (see docs/serving.md):
>>> # async with await ServeClient.connect("127.0.0.1", 7316) as client:
>>> #     sealed = await client.seal(b"weights", tenant="acme")
>>> #     assert await client.unseal(**sealed) == b"weights"
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from .protocol import (
    RETRYABLE_CODES,
    STREAM_LIMIT_BYTES,
    ErrorCode,
    ProtocolError,
    Response,
    decode_response,
    from_b64,
    to_b64,
)

__all__ = ["RetryPolicy", "ServeError", "ServeClient", "BlockingServeClient"]

#: Ops the client may always replay: they are read-only or idempotent at
#: the protocol level.  ``seal``/``unseal`` are decided per-request (see
#: :meth:`ServeClient._retryable`); ``shutdown`` is never replayed.
_ALWAYS_RETRYABLE_OPS = frozenset({"verify", "plan", "stats", "ping", "health"})


class ServeError(RuntimeError):
    """A failure response from the server (or a dead connection)."""

    def __init__(
        self,
        message: str,
        code: ErrorCode = ErrorCode.INTERNAL,
        detail: dict | None = None,
    ) -> None:
        self.code = code
        self.status = code.status
        self.detail = detail
        super().__init__(message)

    @classmethod
    def from_response(cls, response: Response) -> "ServeError":
        return cls(
            response.message or response.code.value if response.code else "error",
            response.code or ErrorCode.INTERNAL,
            response.detail,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry schedule (the serve-layer sibling of
    :class:`repro.faults.runner.RetryPolicy`, which governs pool units).

    ``max_attempts`` bounds the total tries (1 = no retry).  The pause
    before retry ``n`` (0-based) is ``base_delay * 2**n`` capped at
    ``max_delay``, shrunk by up to ``jitter`` (a fraction in [0, 1])
    using a *deterministic* jitter: a hash of ``(token, attempt)``, so a
    given request's schedule is reproducible in tests while distinct
    requests still decorrelate.  A server ``retry_after`` hint (sent
    with ``unavailable`` during drain) raises the pause to at least that
    long, capped at ``max_delay``.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def delay(
        self, attempt: int, token: str = "", retry_after: float | None = None
    ) -> float:
        """Seconds to pause before retry number ``attempt`` (0-based)."""
        backoff = min(self.max_delay, self.base_delay * (2.0**attempt))
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        pause = backoff * (1.0 - self.jitter * fraction)
        if retry_after is not None:
            pause = max(pause, min(float(retry_after), self.max_delay))
        return pause


class ServeClient:
    """Asyncio client: id-multiplexed requests, reconnect, bounded retry."""

    def __init__(
        self, host: str, port: int, *, retry: RetryPolicy | None = None
    ) -> None:
        self._host = host
        self._port = port
        self.retry = retry or RetryPolicy()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[str, asyncio.Future] = {}
        # Streaming subscriptions: id -> queue of responses.  Unlike
        # _pending futures (popped on the first response), a stream id
        # stays registered until its generator finishes — the server
        # sends many response lines under one id.
        self._streams: dict[str, asyncio.Queue] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()
        self._closed = False
        self._ever_connected = False

    @classmethod
    async def connect(
        cls, host: str, port: int, *, retry: RetryPolicy | None = None
    ) -> "ServeClient":
        """Open a connected client (fails fast if the server is down)."""
        client = cls(host, port, retry=retry)
        await client._ensure_connected()
        return client

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def close(self) -> None:
        """Tear down the connection; idempotent, never raises on re-call."""
        if self._closed:
            return
        self._closed = True
        task, self._reader_task = self._reader_task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._fail_pending(
            ServeError("client closed", ErrorCode.CONNECTION_LOST)
        )

    # -- connection management ------------------------------------------
    async def _ensure_connected(self) -> None:
        if self._closed:
            raise ServeError("client is closed", ErrorCode.CONNECTION_LOST)
        if self.connected:
            return
        async with self._connect_lock:
            if self._closed:
                raise ServeError("client is closed", ErrorCode.CONNECTION_LOST)
            if self.connected:  # a concurrent caller won the race
                return
            try:
                # Raise the 64 KiB default StreamReader limit to the
                # protocol's line bound, or large (legal) responses would
                # kill the reader.
                with get_metrics().timer("serve.client.connect"):
                    reader, writer = await asyncio.open_connection(
                        self._host, self._port, limit=STREAM_LIMIT_BYTES
                    )
            except OSError as error:
                get_metrics().count("serve.client.connect_failures")
                raise ServeError(
                    f"cannot connect to {self._host}:{self._port}: {error}",
                    ErrorCode.CONNECTION_LOST,
                ) from None
            self._reader, self._writer = reader, writer
            self._reader_task = asyncio.create_task(
                self._read_loop(reader), name="serve-client-read"
            )
            if self._ever_connected:
                get_metrics().count("serve.client.reconnects")
            self._ever_connected = True

    def _fail_pending(self, error: ServeError) -> None:
        """Promptly fail every in-flight future — no awaiter may hang on
        a connection that no longer exists."""
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)
        streams, self._streams = self._streams, {}
        for queue in streams.values():
            queue.put_nowait(error)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        error = ServeError(
            "server closed the connection", ErrorCode.CONNECTION_LOST
        )
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = decode_response(line)
                except ProtocolError:
                    continue  # tolerate garbage lines; ids still match up
                stream = self._streams.get(response.id)
                if stream is not None:
                    stream.put_nowait(response)
                    continue
                future = self._pending.pop(response.id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, asyncio.IncompleteReadError, OSError):
            pass
        except ValueError:
            # A response line overran the stream limit; framing is lost,
            # so the connection is unusable from here on.
            error = ServeError(
                "response overran the stream limit; framing lost",
                ErrorCode.CONNECTION_LOST,
            )
        finally:
            # Only the *current* reader may tear down state: a stale task
            # from a replaced connection must not fail the new one's
            # futures (close()/reconnect null the attribute first).
            if self._reader_task is asyncio.current_task():
                self._reader_task = None
                writer, self._writer = self._writer, None
                self._reader = None
                if writer is not None:
                    writer.close()
                get_metrics().count("serve.client.connection_lost")
                self._fail_pending(error)

    # -- request path ----------------------------------------------------
    @staticmethod
    def _retryable(op: str, params: dict) -> bool:
        """May this request be transparently replayed?

        ``unseal`` always carries its counter, so a replay decrypts the
        same bytes.  ``seal`` is replayable only with a caller-pinned
        counter: the server then computes the byte-identical ciphertext
        (counted as a benign ``serve.seal.replays``); a defaulted seal
        would burn a fresh counter per attempt, so it is surfaced to the
        caller instead.
        """
        if op in _ALWAYS_RETRYABLE_OPS:
            return True
        if op == "unseal":
            return True
        if op == "seal":
            return params.get("counter") is not None
        return False  # shutdown (and anything unknown)

    async def _attempt(
        self, op: str, params: dict, tenant: str, request_id: str
    ) -> dict:
        await self._ensure_connected()
        line = json.dumps(
            {"id": request_id, "op": op, "tenant": tenant, "params": params},
            separators=(",", ":"),
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                writer = self._writer
                if writer is None or writer.is_closing():
                    raise ConnectionResetError("connection went away")
                writer.write(line.encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as error:
            self._pending.pop(request_id, None)
            get_metrics().count("serve.client.connection_lost")
            raise ServeError(
                f"connection lost while sending: {error}",
                ErrorCode.CONNECTION_LOST,
            ) from None
        response: Response = await future
        if not response.ok:
            raise ServeError.from_response(response)
        return response.result or {}

    async def request(
        self, op: str, params: dict | None = None, *, tenant: str = "default"
    ) -> dict:
        """Send one logical request; reconnect and retry per the policy.

        Raises :class:`ServeError` with the final failure's code once the
        policy is exhausted (``serve.client.giveups``) or immediately for
        non-retryable codes/ops.
        """
        params = dict(params or {})
        retryable = self._retryable(op, params)
        policy = self.retry
        metrics = get_metrics()
        metrics.count("serve.client.requests")
        self._next_id += 1
        token = f"c{self._next_id}"
        attempts = 0
        status = "ok"
        wall_start = time.time()
        start = time.perf_counter()
        try:
            while True:
                attempts += 1
                # Fresh wire id per attempt: a late response to a previous
                # attempt must never be matched to the retry's future.
                request_id = token if attempts == 1 else f"{token}.{attempts}"
                try:
                    return await self._attempt(op, params, tenant, request_id)
                except ServeError as error:
                    if error.code not in RETRYABLE_CODES or not retryable:
                        status = error.code.value
                        raise
                    if attempts >= policy.max_attempts:
                        metrics.count("serve.client.giveups")
                        status = error.code.value
                        raise
                    metrics.count("serve.client.retries")
                    metrics.count(f"serve.client.retries.{op}")
                    retry_after = None
                    if isinstance(error.detail, dict):
                        hint = error.detail.get("retry_after")
                        if isinstance(hint, (int, float)):
                            retry_after = float(hint)
                    with metrics.timer("serve.client.backoff"):
                        await asyncio.sleep(
                            policy.delay(attempts - 1, token, retry_after)
                        )
        finally:
            duration = time.perf_counter() - start
            tracer = get_tracer()
            if tracer.enabled:
                tracer.add_span(
                    "serve.client.request",
                    wall_start,
                    duration,
                    attrs={
                        "op": op,
                        "tenant": tenant,
                        "status": status,
                        "attempts": attempts,
                    },
                    parent=None,
                )

    # -- convenience wrappers ------------------------------------------
    async def seal(
        self,
        payload: bytes,
        *,
        base_address: int = 0,
        counter: int | None = None,
        tenant: str = "default",
    ) -> dict:
        """Seal ``payload``; returns decoded kwargs for :meth:`unseal`.

        When ``counter`` is omitted the *server* assigns a fresh one
        (returned in the result) so repeated seals never reuse a CTR
        pad — and the request is NOT retried on connection loss, since
        each attempt would seal under a different counter.  Pass an
        explicit counter to pin a reproducible keystream (e.g. to mirror
        a simulator memory image); pinned seals retry safely because the
        replay is byte-identical.
        """
        params: dict = {
            "payload": to_b64(payload),
            "base_address": base_address,
        }
        if counter is not None:
            params["counter"] = counter
        result = await self.request("seal", params, tenant=tenant)
        return {
            "ciphertext": from_b64(result["ciphertext"], "ciphertext"),
            "tags": [from_b64(tag, "tag") for tag in result["tags"]],
            "base_address": result["base_address"],
            "counter": result["counter"],
            "length": result["length"],
        }

    async def unseal(
        self,
        ciphertext: bytes,
        tags: Sequence[bytes],
        *,
        base_address: int = 0,
        counter: int = 1,
        length: int | None = None,
        tenant: str = "default",
    ) -> bytes:
        result = await self.request(
            "unseal",
            {
                "ciphertext": to_b64(ciphertext),
                "tags": [to_b64(tag) for tag in tags],
                "base_address": base_address,
                "counter": counter,
                "length": length if length is not None else len(ciphertext),
            },
            tenant=tenant,
        )
        return from_b64(result["payload"], "payload")

    async def verify(
        self,
        ciphertext: bytes,
        tags: Sequence[bytes],
        *,
        base_address: int = 0,
        counter: int = 1,
        tenant: str = "default",
    ) -> dict:
        return await self.request(
            "verify",
            {
                "ciphertext": to_b64(ciphertext),
                "tags": [to_b64(tag) for tag in tags],
                "base_address": base_address,
                "counter": counter,
            },
            tenant=tenant,
        )

    async def plan(
        self,
        model: str = "mlp",
        ratio: float = 0.5,
        *,
        width_scale: float = 0.25,
        tenant: str = "default",
    ) -> dict:
        return await self.request(
            "plan",
            {"model": model, "ratio": ratio, "width_scale": width_scale},
            tenant=tenant,
        )

    async def ping(self) -> dict:
        return await self.request("ping")

    async def stats(self) -> dict:
        return await self.request("stats")

    async def health(self) -> dict:
        return await self.request("health")

    async def prometheus(self) -> str:
        """The server's Prometheus text exposition (full registry)."""
        result = await self.request("prometheus")
        return str(result.get("exposition", ""))

    async def subscribe(
        self,
        *,
        interval: float = 1.0,
        count: int | None = None,
        tenant: str = "default",
    ):
        """Async generator of ``repro.telemetry/v1`` frames.

        One ``subscribe`` request; the server answers with one frame per
        ``interval`` seconds under the same id until ``count`` frames (or
        forever when ``None``), the last marked ``final``.  Streams are
        not transparently retried — a dropped connection raises
        ``connection_lost`` and the caller decides whether to resubscribe
        (frames are snapshots; there is nothing to replay).
        """
        await self._ensure_connected()
        self._next_id += 1
        request_id = f"s{self._next_id}"
        params: dict = {"interval": interval}
        if count is not None:
            params["count"] = count
        line = json.dumps(
            {
                "id": request_id,
                "op": "subscribe",
                "tenant": tenant,
                "params": params,
            },
            separators=(",", ":"),
        )
        queue: asyncio.Queue = asyncio.Queue()
        self._streams[request_id] = queue
        get_metrics().count("serve.client.subscriptions")
        try:
            try:
                async with self._write_lock:
                    writer = self._writer
                    if writer is None or writer.is_closing():
                        raise ConnectionResetError("connection went away")
                    writer.write(line.encode() + b"\n")
                    await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError) as error:
                get_metrics().count("serve.client.connection_lost")
                raise ServeError(
                    f"connection lost while subscribing: {error}",
                    ErrorCode.CONNECTION_LOST,
                ) from None
            while True:
                item = await queue.get()
                if isinstance(item, ServeError):
                    raise item
                response: Response = item
                if not response.ok:
                    raise ServeError.from_response(response)
                result = response.result or {}
                frame = result.get("frame")
                if isinstance(frame, dict):
                    yield frame
                if result.get("final"):
                    return
        finally:
            self._streams.pop(request_id, None)

    async def shutdown(self, *, token: str | None = None) -> dict:
        params = {"token": token} if token is not None else {}
        return await self.request("shutdown", params)


class BlockingServeClient:
    """Synchronous facade: private event loop on a daemon thread.

    Mirrors every :class:`ServeClient` method with a blocking signature;
    usable as a context manager.  Intended for tests and interactive use —
    high-concurrency callers should drive :class:`ServeClient` directly.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="serve-client", daemon=True
        )
        self._thread.start()
        self._client: ServeClient = self._call(
            ServeClient.connect(host, port, retry=retry)
        )

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(
            self.timeout
        )

    def __enter__(self) -> "BlockingServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self._client.close())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(self.timeout)
            self._loop.close()

    # -- mirrored methods ----------------------------------------------
    def request(self, op: str, params: dict | None = None, *, tenant: str = "default") -> dict:
        return self._call(self._client.request(op, params, tenant=tenant))

    def seal(self, payload: bytes, **kwargs) -> dict:
        return self._call(self._client.seal(payload, **kwargs))

    def unseal(self, ciphertext: bytes, tags: Sequence[bytes], **kwargs) -> bytes:
        return self._call(self._client.unseal(ciphertext, tags, **kwargs))

    def verify(self, ciphertext: bytes, tags: Sequence[bytes], **kwargs) -> dict:
        return self._call(self._client.verify(ciphertext, tags, **kwargs))

    def plan(self, model: str = "mlp", ratio: float = 0.5, **kwargs) -> dict:
        return self._call(self._client.plan(model, ratio, **kwargs))

    def ping(self) -> dict:
        return self._call(self._client.ping())

    def stats(self) -> dict:
        return self._call(self._client.stats())

    def health(self) -> dict:
        return self._call(self._client.health())

    def prometheus(self) -> str:
        return self._call(self._client.prometheus())

    def subscribe(self, *, interval: float = 1.0, count: int | None = None):
        """Blocking generator over :meth:`ServeClient.subscribe` frames.

        Each ``next()`` may wait up to ``timeout + interval`` seconds for
        the server's next frame.
        """
        stream = self._client.subscribe(interval=interval, count=count)
        wait = self.timeout + interval

        def _pull(coroutine):
            return asyncio.run_coroutine_threadsafe(
                coroutine, self._loop
            ).result(wait)

        try:
            while True:
                try:
                    yield _pull(stream.__anext__())
                except StopAsyncIteration:
                    return
        finally:
            with contextlib.suppress(Exception):
                _pull(stream.aclose())

    def shutdown(self, *, token: str | None = None) -> dict:
        return self._call(self._client.shutdown(token=token))
