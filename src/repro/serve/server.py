"""The asyncio seal-as-a-service server.

``python -m repro serve`` builds one :class:`ModelServer` over a TCP
socket speaking the newline-delimited-JSON protocol of
:mod:`repro.serve.protocol`.  Concurrent ``seal`` / ``unseal`` /
``verify`` requests coalesce through per-op
:class:`~repro.serve.batcher.MicroBatcher` instances into batched passes
over :class:`repro.core.seal.LineSealer` — the vectorized crypto fast
path — while ``plan`` / ``stats`` / ``ping`` execute directly.

Admission control mirrors a production front end in miniature:

* **backpressure** — at most ``queue_limit`` requests may be in flight;
  request ``queue_limit + 1`` is rejected immediately with a 429-style
  ``overloaded`` error (``serve.requests.rejected.backpressure``);
* **quotas** — per-tenant token buckets charge one token per cache line
  of crypto work (``serve.requests.rejected.quota``);
* **timeouts** — a request running past ``request_timeout`` fails with
  ``timeout`` (``serve.requests.timeout``); a hung worker slot is killed
  and forked afresh for the next batch, while with ``workers == 0`` the
  wedged thread is abandoned (``serve.inline.abandoned``) and later
  batches get a fresh thread executor;
* **crash isolation** — with ``workers > 0`` the crypto executes on
  long-lived worker slots (:class:`repro.faults.worker.AsyncSlotPool`,
  the same slots the sweep runner uses): each batch is pickled down a
  socketpair to the slot with the fewest pending batches, and the slot
  ships back the result plus a metrics delta.  A slot that dies fails
  only the batches it had in flight (``crashed``) and is restarted alone
  (``serve.pool_restarts``).  Workers honour the same ``REPRO_CHAOS``
  hooks as the sweep runners (label ``serve:<tenant>``), which is how the
  tests crash/hang them on purpose.

Observability: every admitted request lands one ``serve.request`` timer
observation (p50/p95/p99 via the reservoir quantiles of
:class:`repro.obs.metrics.TimerStat`) and — when tracing is enabled — one
``serve.request`` span; batch executions record ``serve.batch`` spans
with worker-side crypto spans re-rooted beneath them via
:meth:`repro.obs.trace.Tracer.adopt`.  Schema reference:
``docs/metrics.md`` and ``docs/tracing.md``; runbook: ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import signal
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from ..core.plan import ModelEncryptionPlan
from ..core.seal import LINE_BYTES
from ..schemes import get_scheme
from ..faults.chaos import chaos_io_action, chaos_probe
from ..faults.worker import AsyncSlotPool, SlotCrashed, traced_delta
from ..obs.events import get_events
from ..obs.live import SloPolicy, TelemetryHub
from ..obs.metrics import get_metrics
from ..obs.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..obs.trace import get_tracer
from .batcher import MicroBatcher
from .protocol import (
    BATCHED_OPS,
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA,
    STREAM_LIMIT_BYTES,
    ErrorCode,
    ProtocolError,
    Request,
    Response,
    decode_request,
    encode_response,
    from_b64,
    require_float,
    require_int,
    require_tags,
    to_b64,
)
from .quota import QuotaManager

__all__ = ["DEFAULT_KEY", "ServeConfig", "ModelServer", "run_server"]

#: Demo service key — a real deployment would provision per-tenant keys
#: from an HSM; the protocol carries no key material either way.
DEFAULT_KEY = bytes(range(16))

#: Cap on cache lines per single request (keeps one request from
#: monopolising a batch; larger payloads should be chunked client-side).
MAX_LINES_PER_REQUEST = 4096

#: First server-assigned write counter for ``seal`` requests that omit
#: one.  The CTR keystream depends on the (line address, counter) pair —
#: reusing a pair under one key hands an attacker the XOR of the two
#: plaintexts — so the server allocates a fresh counter per defaulted
#: seal.  Starting high keeps the assigned range clear of the small
#: counters clients tend to pick by hand; the datapath packs counters
#: into 32 bits, so assignment wraps (and pads repeat) only after ~2.7
#: billion defaulted seals.
SEAL_COUNTER_BASE = 0x5EA1_0000

#: How many recent (base_address, counter) seal pairs are remembered for
#: pad-reuse detection (``serve.seal.pad_reuse``); bounded LRU so the
#: tracker cannot grow without limit.
PAD_REUSE_TRACKED = 65536

#: Request outcomes that count *against* per-tenant availability in the
#: SLO tracker — the service's fault, not the client's.
_SLO_ERROR_STATUSES = frozenset(
    {
        ErrorCode.OVERLOADED.value,
        ErrorCode.UNAVAILABLE.value,
        ErrorCode.TIMEOUT.value,
        ErrorCode.CRASHED.value,
        ErrorCode.INTERNAL.value,
    }
)


@dataclass(frozen=True)
class ServeConfig:
    """Everything `python -m repro serve` lets you tune."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (printed in the banner)
    key: bytes = DEFAULT_KEY
    #: Protection scheme sealing the lines (a :mod:`repro.schemes`
    #: registry name); picks the cipher pipeline and default tag size.
    scheme: str = "seal-se"
    tag_bytes: int | None = None  # None = the scheme's default truncation
    line_bytes: int = LINE_BYTES
    backend: str | None = None  # crypto backend (None = env/default)
    max_batch: int = 64  # requests per micro-batch
    batch_window: float = 0.0  # linger for stragglers (seconds)
    queue_limit: int = 256  # max in-flight requests before 429
    workers: int = 0  # 0 = in-process threads; N = worker slots
    request_timeout: float | None = None  # seconds; None = unbounded
    quota_rate: float = 0.0  # tenant tokens (lines)/second; 0 = off
    quota_burst: float | None = None  # bucket capacity (default: rate)
    shutdown_token: str | None = None  # require params.token on shutdown
    allow_remote_shutdown: bool = False  # honour shutdown off-loopback
    drain_timeout: float = 5.0  # graceful-drain budget for in-flight work
    degraded_threshold: int = 3  # consecutive pool crashes before degrading
    degraded_recovery: float = 30.0  # seconds between pool recovery probes
    pad_reuse_tracked: int = PAD_REUSE_TRACKED  # LRU bound on tracked pairs
    # Live telemetry plane (docs/observability.md).  The hub only exists
    # — and the registry tap is only installed — once something asks for
    # it: a `subscribe` stream, `--telemetry-out`, or `--events-out`.
    telemetry_out: str | None = None  # periodic frame flush target
    telemetry_interval: float = 2.0  # seconds between file flushes
    events_out: str | None = None  # repro.events/v1 NDJSON sink
    slo_window: float = 60.0  # rolling window (seconds) for SLO state
    slo_availability: float = 0.999  # per-tenant availability target
    slo_p99: float = 0.25  # per-tenant p99 latency target (seconds)

    def resolved_tag_bytes(self) -> int:
        """Stored tag bytes per line: explicit override or scheme default."""
        if self.tag_bytes is not None:
            return self.tag_bytes
        return get_scheme(self.scheme).tag_bytes

    def make_sealer(self):
        """The scheme's batched line sealer for this configuration."""
        return get_scheme(self.scheme).make_sealer(
            self.key,
            line_bytes=self.line_bytes,
            backend=self.backend,
            tag_bytes=self.tag_bytes,
        )


# ----------------------------------------------------------------------
# Worker-slot entry points
# ----------------------------------------------------------------------
_WORKER_SEALERS: dict[tuple, object] = {}


def _worker_sealer(spec: dict):
    signature = (
        spec.get("scheme", "seal-se"),
        spec["key"],
        spec["tag_bytes"],
        spec["line_bytes"],
        spec["backend"],
    )
    sealer = _WORKER_SEALERS.get(signature)
    if sealer is None:
        scheme = get_scheme(spec.get("scheme", "seal-se"))
        sealer = _WORKER_SEALERS[signature] = scheme.make_sealer(
            spec["key"],
            tag_bytes=spec["tag_bytes"] or None,
            line_bytes=spec["line_bytes"],
            backend=spec["backend"],
        )
    return sealer


def _run_batch_spec(spec: dict) -> dict:
    """Execute one flattened batch spec (runs in a pool worker *or* an
    in-process thread — the only difference is who merges the metrics)."""
    for chaos_key, chaos_label in spec.get("chaos", ()):
        chaos_probe(chaos_key, chaos_label)
    sealer = _worker_sealer(spec)
    op = spec["op"]
    addresses = spec["addresses"]
    counters = spec["counters"]
    lines = spec["lines"]
    out: dict = {"op": op}
    with get_tracer().span("serve.batch") as span:
        if span:
            span.set_attr("op", op)
            span.set_attr("lines", len(lines))
            span.set_attr("requests", spec.get("requests", 1))
            span.set_attr("backend", sealer.backend)
        if op == "seal":
            ciphertexts, tags = sealer.seal_lines(addresses, counters, lines)
            out["ciphertexts"] = ciphertexts
            out["tags"] = tags
        elif op == "unseal":
            plaintexts, verdicts = sealer.open_lines(
                addresses, counters, lines, spec["tags"]
            )
            out["plaintexts"] = plaintexts
            out["verdicts"] = verdicts
        elif op == "verify":
            out["verdicts"] = sealer.verify_lines(
                addresses, counters, lines, spec["tags"]
            )
        else:  # pragma: no cover - guarded upstream
            raise ValueError(f"unbatchable op {op!r}")
    return out


def _pool_run_batch(spec: dict) -> tuple[dict, dict, list[dict]]:
    """Worker-slot wrapper: the result plus what the slot's long-lived
    registry recorded for this batch (a delta) and its spans."""
    return traced_delta(_run_batch_spec, spec)


def _slot_handler(spec: dict) -> tuple[dict, dict, list[dict]]:
    # Looked up by name on every batch, so a wrapper patched over
    # _pool_run_batch before the slot forked is the one that runs.
    return _pool_run_batch(spec)


# ----------------------------------------------------------------------
# Request → work item parsing
# ----------------------------------------------------------------------
@dataclass
class _WorkItem:
    """One batched request, flattened to its cache lines."""

    request: Request
    addresses: list[int]
    counters: list[int]
    lines: list[bytes]  # plaintext (seal) or ciphertext (unseal/verify)
    tags: list[bytes] = field(default_factory=list)
    length: int = 0  # original payload bytes (seal/unseal)

    @property
    def n_lines(self) -> int:
        return len(self.lines)


class _OpError(Exception):
    """Internal op failure carrying its wire error code."""

    def __init__(
        self, code: ErrorCode, message: str, detail: dict | None = None
    ) -> None:
        self.code = code
        self.detail = detail
        super().__init__(message)


def _split_lines(blob: bytes, line_bytes: int) -> list[bytes]:
    return [
        blob[offset : offset + line_bytes]
        for offset in range(0, len(blob), line_bytes)
    ]


def _parse_work_item(request: Request, line_bytes: int) -> _WorkItem:
    params = request.params
    base_address = require_int(params, "base_address", 0)
    counter = require_int(params, "counter", 1)
    if request.op == "seal":
        payload = from_b64(params.get("payload"), "payload")
        if not payload:
            raise ProtocolError("'payload' must not be empty")
        length = len(payload)
        payload += bytes(-length % line_bytes)
        lines = _split_lines(payload, line_bytes)
        tags: list[bytes] = []
    else:  # unseal / verify
        ciphertext = from_b64(params.get("ciphertext"), "ciphertext")
        if not ciphertext or len(ciphertext) % line_bytes:
            raise ProtocolError(
                f"'ciphertext' must be a non-empty multiple of {line_bytes} bytes"
            )
        lines = _split_lines(ciphertext, line_bytes)
        tags = require_tags(params, len(lines))
        length = (
            require_int(params, "length", len(ciphertext))
            if request.op == "unseal"
            else 0
        )
        if request.op == "unseal" and not 0 < length <= len(ciphertext):
            raise ProtocolError(
                "'length' must be within the ciphertext size"
            )
    if len(lines) > MAX_LINES_PER_REQUEST:
        raise ProtocolError(
            f"payload spans {len(lines)} lines; the per-request cap is "
            f"{MAX_LINES_PER_REQUEST} (chunk client-side)"
        )
    addresses = [base_address + index * line_bytes for index in range(len(lines))]
    return _WorkItem(
        request=request,
        addresses=addresses,
        counters=[counter] * len(lines),
        lines=lines,
        tags=tags,
        length=length,
    )


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class ModelServer:
    """Asyncio TCP server wiring protocol → admission → batcher → sealer."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.quota = QuotaManager(
            self.config.quota_rate, self.config.quota_burst
        )
        self._batchers = {
            op: MicroBatcher(
                self._make_executor(op),
                max_batch=self.config.max_batch,
                window_seconds=self.config.batch_window,
            )
            for op in BATCHED_OPS
        }
        # Slots fork at their first batch, so building the pool is free.
        self._pool = (
            AsyncSlotPool(
                _slot_handler,
                self.config.workers,
                on_restart=self._note_pool_restart,
                inherited=self._socket_fds,
            )
            if self.config.workers > 0
            else None
        )
        self._inline = self._inline_executor()
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._in_flight = 0
        self._stopping = asyncio.Event()
        self._seal_counter = SEAL_COUNTER_BASE
        self._sealed_pairs: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        # Lifecycle: graceful drain (stop accepting, finish in-flight).
        self._draining = False
        self._drain_deadline: float | None = None
        # Degraded mode: circuit breaker over the worker pool.
        self._degraded = False
        self._pool_crashes = 0  # consecutive, reset on any pool success
        self._probe_at = 0.0  # monotonic time of the next recovery probe
        # Live telemetry plane: hub and per-instance bookkeeping are
        # created lazily by _ensure_hub(); self._hub stays None until
        # telemetry is requested so the request hot path pays only one
        # attribute check when it is off.
        self._hub: TelemetryHub | None = None
        self._subscribers = 0
        self._flusher: asyncio.Task | None = None
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> int:
        """Bind and start accepting; returns the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=STREAM_LIMIT_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for batcher in self._batchers.values():
            await batcher.start()
        if self.config.events_out:
            get_events().set_sink(self.config.events_out)
        get_events().emit(
            "serve.started",
            host=self.config.host,
            port=self.port,
            scheme=self.config.scheme,
            crypto_backend=self._crypto_backend(),
            workers=self.config.workers,
        )
        if self.config.telemetry_out:
            self._ensure_hub()
            self._flusher = asyncio.create_task(self._flush_telemetry())
        return self.port

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` request) fires."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        self._stopping.set()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def degraded(self) -> bool:
        return self._degraded

    async def drain(self, timeout: float | None = None) -> bool:
        """Graceful drain: stop accepting, finish in-flight, then stop.

        The sequence (docs/serving.md, "Drain sequence"): close the
        listening socket so no new connection lands here; answer new
        requests on existing connections with ``unavailable`` +
        ``retry_after`` (liveness ops still answer); wait for in-flight
        requests to finish, up to ``timeout`` (default
        ``config.drain_timeout``); then set the stop event — the normal
        shutdown path closes connections, stops batchers and tears down
        the pool, and the CLI flushes ``--metrics-out``/``--trace-out``.

        Returns ``True`` if every in-flight request finished inside the
        budget, ``False`` on a drain timeout (remaining requests are cut
        off by shutdown).  Idempotent: a second call returns at once.
        """
        if self._draining:
            await self._stopping.wait()
            return self._in_flight == 0
        self._draining = True
        loop = asyncio.get_running_loop()
        budget = self.config.drain_timeout if timeout is None else timeout
        self._drain_deadline = loop.time() + budget
        get_metrics().count("serve.drain.started")
        get_events().emit(
            "serve.drain.started",
            timeout_seconds=budget,
            in_flight=self._in_flight,
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._in_flight > 0 and loop.time() < self._drain_deadline:
            await asyncio.sleep(0.02)
        drained = self._in_flight == 0
        get_metrics().count(
            "serve.drain.completed" if drained else "serve.drain.timeout"
        )
        get_events().emit(
            "serve.drain.completed" if drained else "serve.drain.timeout",
            in_flight=self._in_flight,
        )
        self._stopping.set()
        return drained

    def _retry_after_hint(self) -> float:
        """How long a drained-away client should wait before retrying
        (against a replacement instance — this one is going away)."""
        if self._drain_deadline is None:
            return 1.0
        try:
            remaining = self._drain_deadline - asyncio.get_running_loop().time()
        except RuntimeError:  # pragma: no cover - callers are async
            remaining = 0.0
        return round(max(0.05, remaining), 3)

    async def __aenter__(self) -> "ModelServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        self._stopping.set()
        await self._shutdown()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        get_events().emit("serve.stopped")
        # The flusher wakes on the stop event and writes one last frame
        # (which carries serve.stopped, emitted above); give it a beat,
        # then cancel if it is wedged on slow I/O.
        if self._flusher is not None:
            with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                await asyncio.wait_for(asyncio.shield(self._flusher), 1.0)
            self._flusher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._flusher
            self._flusher = None
        # Closing lingering connections sends EOF to their read loops, so
        # handler tasks finish (flushing buffered responses) instead of
        # being cancelled mid-readline at event-loop teardown.
        for writer in list(self._writers):
            writer.close()
        for batcher in self._batchers.values():
            await batcher.stop()
        if self._pool is not None:
            await self._pool.stop()
        self._inline.shutdown(wait=False)
        if self._hub is not None:
            self._hub.detach()
        if self.config.events_out:
            get_events().set_sink(None)

    # -- execution backends ---------------------------------------------
    @staticmethod
    def _note_pool_restart() -> None:
        get_metrics().count("serve.pool_restarts")
        get_events().emit("serve.pool.restarted")

    @staticmethod
    def _inline_executor() -> ThreadPoolExecutor:
        """Threads for inline batches (``workers == 0``, or degraded): one
        per batched op, since each batcher runs one batch at a time."""
        return ThreadPoolExecutor(
            max_workers=len(BATCHED_OPS), thread_name_prefix="serve-inline"
        )

    def _spec(self, op: str, items: Sequence[_WorkItem]) -> dict:
        spec: dict = {
            "op": op,
            "key": self.config.key,
            "scheme": self.config.scheme,
            "tag_bytes": self.config.resolved_tag_bytes(),
            "line_bytes": self.config.line_bytes,
            "backend": self.config.backend,
            "requests": len(items),
            "addresses": [a for item in items for a in item.addresses],
            "counters": [c for item in items for c in item.counters],
            "lines": [line for item in items for line in item.lines],
            "chaos": [
                (item.request.id, f"serve:{item.request.tenant}")
                for item in items
            ],
        }
        if op in ("unseal", "verify"):
            spec["tags"] = [tag for item in items for tag in item.tags]
        return spec

    # -- degraded-mode circuit breaker ----------------------------------
    def _pool_allowed(self) -> bool:
        """Should this batch go to the worker pool right now?

        ``False`` with ``workers == 0`` (no pool configured) or while the
        circuit is open — except that once ``degraded_recovery`` seconds
        have passed since the last pool failure, one batch is let through
        as a *recovery probe*: if it succeeds the circuit closes, if it
        crashes the probe timer rearms and serial fallback continues.
        """
        if self.config.workers <= 0:
            return False
        if not self._degraded:
            return True
        if time.monotonic() >= self._probe_at:
            get_metrics().count("serve.degraded.probes")
            return True
        return False

    def _note_pool_crash(self) -> None:
        self._pool_crashes += 1
        get_events().emit(
            "serve.worker.crashed", consecutive=self._pool_crashes
        )
        if self._degraded:
            # A recovery probe crashed: stay degraded, back off again.
            self._probe_at = time.monotonic() + self.config.degraded_recovery
            return
        if self._pool_crashes >= self.config.degraded_threshold:
            self._degraded = True
            self._probe_at = time.monotonic() + self.config.degraded_recovery
            get_metrics().count("serve.degraded.entered")
            get_events().emit(
                "serve.degraded.entered", crashes=self._pool_crashes
            )

    def _note_pool_success(self) -> None:
        self._pool_crashes = 0
        if self._degraded:
            self._degraded = False
            get_metrics().count("serve.degraded.recovered")
            get_events().emit("serve.degraded.recovered")

    async def _dispatch_spec(self, spec: dict) -> dict:
        """Run one flattened batch on the configured backend, hardened."""
        timeout = self.config.request_timeout
        if self._pool_allowed():
            try:
                result, metrics, spans = await self._pool.call(spec, timeout)
            except TimeoutError:
                raise _OpError(
                    ErrorCode.TIMEOUT,
                    f"batch exceeded the {timeout:g}s request budget",
                ) from None
            except SlotCrashed:
                get_metrics().count("serve.worker_crashes")
                self._note_pool_crash()
                raise _OpError(
                    ErrorCode.CRASHED, "worker process died mid-batch"
                ) from None
            self._note_pool_success()
            get_metrics().merge(metrics)
            if spans:
                tracer = get_tracer()
                # Re-root the worker's serve.batch tree into this trace.
                tracer.adopt(spans, parent=None)
            return result
        if self.config.workers > 0:
            # Degraded fallback: serial in-process execution — correct but
            # slower and unisolated.  Worker-boundary chaos probes are
            # stripped: they model *worker* faults, and firing them here
            # would sabotage the very process the fallback keeps alive.
            get_metrics().count("serve.degraded.batches")
            get_metrics().count("serve.degraded.requests", spec.get("requests", 1))
            spec = dict(spec, chaos=())
        executor = self._inline
        future = asyncio.get_running_loop().run_in_executor(
            executor, _run_batch_spec, spec
        )
        try:
            return await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            # A thread cannot be killed: it runs on until the batch ends.
            # Retire its executor so a wedged batch cannot starve later ones.
            get_metrics().count("serve.inline.abandoned")
            if self._inline is executor:
                self._inline = self._inline_executor()
                executor.shutdown(wait=False)
            raise _OpError(
                ErrorCode.TIMEOUT,
                f"batch exceeded the {timeout:g}s request budget",
            ) from None

    def _make_executor(self, op: str):
        async def execute(items: Sequence[_WorkItem]) -> list[object]:
            result = await self._dispatch_spec(self._spec(op, items))
            return self._unflatten(op, items, result)

        return execute

    @staticmethod
    def _unflatten(
        op: str, items: Sequence[_WorkItem], result: dict
    ) -> list[object]:
        """Slice the flattened batch result back into per-request results.

        Returns wire ``result`` dicts, or :class:`_OpError` instances for
        requests that individually failed (tag mismatch on unseal).
        """
        metrics = get_metrics()
        out: list[object] = []
        offset = 0
        for item in items:
            span = slice(offset, offset + item.n_lines)
            offset += item.n_lines
            if op == "seal":
                ciphertexts = result["ciphertexts"][span]
                tags = result["tags"][span]
                metrics.count("serve.lines.sealed", item.n_lines)
                out.append(
                    {
                        "ciphertext": to_b64(b"".join(ciphertexts)),
                        "tags": [to_b64(tag) for tag in tags],
                        "base_address": item.addresses[0],
                        "counter": item.counters[0],
                        "length": item.length,
                        "line_bytes": len(item.lines[0]),
                        "lines": item.n_lines,
                    }
                )
            elif op == "unseal":
                verdicts = result["verdicts"][span]
                metrics.count("serve.lines.unsealed", item.n_lines)
                bad = [i for i, ok in enumerate(verdicts) if not ok]
                if bad:
                    metrics.count("serve.verify_failures")
                    out.append(
                        _OpError(
                            ErrorCode.VERIFY_FAILED,
                            f"verification failed on line(s) "
                            f"{', '.join(map(str, bad))}",
                            detail={"lines": bad},
                        )
                    )
                else:
                    payload = b"".join(result["plaintexts"][span])[: item.length]
                    out.append({"payload": to_b64(payload), "length": item.length})
            else:  # verify
                verdicts = [bool(ok) for ok in result["verdicts"][span]]
                metrics.count("serve.lines.verified", item.n_lines)
                if not all(verdicts):
                    metrics.count("serve.verify_failures")
                out.append(
                    {
                        "all_ok": all(verdicts),
                        "line_ok": verdicts,
                        "lines": item.n_lines,
                    }
                )
        return out

    # -- direct (non-batched) ops ---------------------------------------
    async def _op_plan(self, request: Request) -> dict:
        from ..nn.models import MODEL_BUILDERS, build_model

        params = request.params
        model_name = params.get("model", "mlp")
        if model_name not in MODEL_BUILDERS:
            raise ProtocolError(
                f"unknown model {model_name!r}; choose from "
                f"{', '.join(sorted(MODEL_BUILDERS))}"
            )
        ratio = params.get("ratio", 0.5)
        if not isinstance(ratio, (int, float)) or not 0 < float(ratio) <= 1:
            raise ProtocolError("'ratio' must be a number in (0, 1]")
        width_scale = params.get("width_scale", 0.25)
        if not isinstance(width_scale, (int, float)) or not 0 < float(width_scale) <= 1:
            raise ProtocolError("'width_scale' must be a number in (0, 1]")

        def build() -> dict:
            kwargs = {} if width_scale == 1.0 else {"width_scale": float(width_scale)}
            model = build_model(model_name, **kwargs)
            plan = ModelEncryptionPlan.build(model, float(ratio))
            return {
                "model": plan.model_name,
                "ratio": float(ratio),
                "realized_ratio": plan.realized_ratio,
                "layers": [
                    {
                        "name": layer.name,
                        "kind": layer.kind,
                        "rows": layer.n_rows,
                        "encrypted_rows": int(layer.row_mask.sum()),
                        "boundary": bool(layer.fully_encrypted),
                    }
                    for layer in plan.layers
                ],
            }

        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(None, build)
        try:
            return await asyncio.wait_for(future, self.config.request_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            raise _OpError(
                ErrorCode.TIMEOUT,
                f"plan exceeded the {self.config.request_timeout:g}s budget",
            ) from None

    def _op_stats(self) -> dict:
        snapshot = get_metrics().snapshot()
        counters = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith(("serve.", "crypto."))
        }
        timers = {
            name: {
                key: stat[key]
                for key in (
                    "count",
                    "mean_seconds",
                    "p50_seconds",
                    "p95_seconds",
                    "p99_seconds",
                )
            }
            for name, stat in snapshot["timers"].items()
            if name.startswith("serve.")
        }
        derived = {
            name: value
            for name, value in snapshot["derived"].items()
            if name.startswith("serve_")
        }
        return {
            "protocol": PROTOCOL_SCHEMA,
            "in_flight": self._in_flight,
            "tenants": self.quota.tenants(),
            # What this instance is actually running — so an operator can
            # tell from a live socket, without reading launch flags.
            "scheme": self.config.scheme,
            "crypto_backend": self._crypto_backend(),
            "sim_backend": self._sim_backend(),
            "telemetry": self._telemetry_info(),
            "counters": counters,
            "timers": timers,
            "derived": derived,
        }

    def _op_health(self) -> dict:
        """Liveness/readiness snapshot — quota- and admission-exempt.

        ``status`` is the one-word summary supervisors branch on:
        ``ok`` | ``degraded`` (pool circuit open, serial fallback active)
        | ``draining`` (no new work admitted; this instance is going
        away).  The rest is the queue/worker detail behind it.
        """
        counters = get_metrics().counters
        if self._draining:
            status = "draining"
        elif self._degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "protocol": PROTOCOL_SCHEMA,
            "draining": self._draining,
            "degraded": self._degraded,
            "in_flight": self._in_flight,
            "queue_limit": self.config.queue_limit,
            "scheme": self.config.scheme,
            "crypto_backend": self._crypto_backend(),
            "sim_backend": self._sim_backend(),
            "telemetry": self._telemetry_info(),
            "queued": {
                op: batcher.pending()
                for op, batcher in self._batchers.items()
            },
            "workers": {
                "configured": self.config.workers,
                "pool_live": self._pool is not None and self._pool.alive,
                "crashes": counters.get("serve.worker_crashes", 0),
                "restarts": counters.get("serve.pool_restarts", 0),
                "inline_abandoned": counters.get("serve.inline.abandoned", 0),
            },
        }

    # -- live telemetry plane (docs/observability.md) --------------------
    def _crypto_backend(self) -> str:
        """The crypto backend actually in use (config pin or resolved)."""
        from ..crypto.fastpath import resolve_backend

        try:
            return resolve_backend(self.config.backend)
        except Exception:  # pragma: no cover - unknown pinned name
            return self.config.backend or "unknown"

    def _sim_backend(self) -> str:
        """The sim engine backend this process would resolve to."""
        from ..sim.engine import resolve_sim_backend

        try:
            return resolve_sim_backend()
        except Exception:  # pragma: no cover - bad env override
            return "unknown"

    def _telemetry_info(self) -> dict:
        hub = self._hub
        return {
            "active": hub is not None and hub.active,
            "subscribers": self._subscribers,
            "telemetry_out": self.config.telemetry_out,
            "events_out": self.config.events_out,
            "slo_window_seconds": self.config.slo_window,
        }

    def _ensure_hub(self) -> TelemetryHub:
        """Create + attach the hub on first use (subscribe / flusher)."""
        if self._hub is None:
            self._hub = TelemetryHub(
                slo=SloPolicy(
                    window_seconds=self.config.slo_window,
                    target_availability=self.config.slo_availability,
                    target_p99_seconds=self.config.slo_p99,
                ),
                window_seconds=self.config.slo_window,
            ).attach()
        return self._hub

    def _gauges(self) -> dict:
        """Point-in-time server state shipped inside every frame."""
        server: dict = {
            "status": self._op_health()["status"],
            "draining": self._draining,
            "degraded": self._degraded,
            "in_flight": self._in_flight,
            "queue_limit": self.config.queue_limit,
            "queued": {
                op: batcher.pending() for op, batcher in self._batchers.items()
            },
            "subscribers": self._subscribers,
            "scheme": self.config.scheme,
            "crypto_backend": self._crypto_backend(),
            "workers": {
                "configured": self.config.workers,
                "pool_alive": self._pool is not None and self._pool.alive,
            },
        }
        if self.quota.enabled:
            server["quota"] = self.quota.balances()
        return {"server": server}

    def _slo_record(self, tenant: str, ok: bool, seconds: float) -> None:
        """One None-check when telemetry is off; SLO recording when on."""
        hub = self._hub
        if hub is not None:
            hub.record_request(tenant, ok, seconds)

    def _op_prometheus(self) -> dict:
        """Prometheus text exposition of the *full* registry snapshot."""
        return {
            "content_type": PROMETHEUS_CONTENT_TYPE,
            "exposition": render_prometheus(get_metrics().snapshot()),
        }

    def _op_subscribe_once(self, request: Request) -> Response:
        """Single-frame `subscribe` for the socketless handle_request
        path (unit tests, benches); streaming lives in _run_subscription."""
        hub = self._ensure_hub()
        frame = hub.frame(gauges=self._gauges())
        return request.success({"seq": 1, "frame": frame, "final": True})

    async def _run_subscription(self, request: Request, respond) -> None:
        """Stream telemetry frames down one connection until done.

        Each response line reuses the request ``id``; the last one
        carries ``"final": true``.  The stream ends when ``count`` frames
        were sent, the server stops (one final frame is flushed first so
        a watcher sees the drain/stop events), or the connection dies.
        """
        metrics = get_metrics()
        metrics.count("serve.requests.total")
        metrics.count("serve.op.subscribe")
        try:
            interval = require_float(
                request.params, "interval", 1.0, minimum=0.05, maximum=60.0
            )
            count = request.params.get("count")
            if count is not None:
                count = require_int(request.params, "count")
                if count < 1:
                    raise ProtocolError("param 'count' must be >= 1")
        except ProtocolError as error:
            metrics.count("serve.requests.bad")
            await respond(request.failure(ErrorCode.BAD_REQUEST, str(error)))
            return
        hub = self._ensure_hub()
        self._subscribers += 1
        metrics.count("serve.subscriptions")
        try:
            sent = 0
            while True:
                final = self._stopping.is_set() or (
                    count is not None and sent + 1 >= count
                )
                frame = hub.frame(gauges=self._gauges())
                sent += 1
                await respond(
                    request.success(
                        {"seq": sent, "frame": frame, "final": final}
                    )
                )
                if final:
                    return
                with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                    await asyncio.wait_for(self._stopping.wait(), interval)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # watcher went away mid-stream; nothing to clean up
        finally:
            self._subscribers -= 1

    async def _flush_telemetry(self) -> None:
        """Periodic ``--telemetry-out`` frame writer (plus a final frame
        on shutdown, so the file ends on the stop transition)."""
        hub = self._ensure_hub()
        path = self.config.telemetry_out
        assert path is not None
        loop = asyncio.get_running_loop()
        while True:
            stopping = self._stopping.is_set()
            try:
                await loop.run_in_executor(
                    None, lambda: hub.write_frame(path, gauges=self._gauges())
                )
            except OSError:
                get_metrics().count("serve.telemetry.flush_errors")
            else:
                get_metrics().count("serve.telemetry.flushes")
            if stopping:
                return
            with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                await asyncio.wait_for(
                    self._stopping.wait(), self.config.telemetry_interval
                )

    # -- nonce hygiene ---------------------------------------------------
    def _next_seal_counter(self) -> int:
        self._seal_counter += 1
        return self._seal_counter & 0xFFFFFFFF

    def _note_seal_pair(
        self, base_address: int, counter: int, lines: Sequence[bytes]
    ) -> None:
        """Track recent seal (base_address, counter) pairs; count reuse.

        Request-granularity heuristic: two seals sharing a pair reuse
        the CTR pad line-for-line (overlapping ranges under the same
        counter do too, which this does not catch).  A payload digest is
        kept per pair so *byte-identical* repeats — the retrying client
        replaying a pinned-counter ``seal`` whose response was lost —
        count as benign ``serve.seal.replays`` (same pad, same plaintext,
        same ciphertext: nothing leaks), while a repeat with *different*
        bytes counts ``serve.seal.pad_reuse`` — the XOR-of-plaintexts
        leak, the signal to watch (docs/serving.md).
        """
        pair = (base_address, counter)
        digest = hashlib.sha256(b"".join(lines)).digest()[:16]
        known = self._sealed_pairs.get(pair)
        if known is not None:
            self._sealed_pairs.move_to_end(pair)
            get_metrics().count(
                "serve.seal.replays" if known == digest
                else "serve.seal.pad_reuse"
            )
            return
        self._sealed_pairs[pair] = digest
        if len(self._sealed_pairs) > self.config.pad_reuse_tracked:
            self._sealed_pairs.popitem(last=False)

    # -- shutdown gating -------------------------------------------------
    def _shutdown_denial(self, request: Request) -> Response | None:
        """None if this shutdown request may proceed, else the refusal.

        With a configured token the caller must present it; without one,
        shutdown is honoured only on loopback binds unless
        ``allow_remote_shutdown`` opts in — any socket peer can other-
        wise stop the service (docs/serving.md "Security caveats").
        """
        token = self.config.shutdown_token
        if token is not None:
            if request.params.get("token") == token:
                return None
            return request.failure(
                ErrorCode.FORBIDDEN,
                "shutdown requires the configured shutdown token",
            )
        host = self.config.host
        if host in ("localhost", "::1") or host.startswith("127."):
            return None
        if self.config.allow_remote_shutdown:
            return None
        return request.failure(
            ErrorCode.FORBIDDEN,
            "remote shutdown is disabled on a non-loopback bind; start "
            "with --allow-remote-shutdown or --shutdown-token",
        )

    # -- per-request pipeline -------------------------------------------
    async def handle_request(self, request: Request) -> Response:
        """Admission → execution → response for one parsed request.

        Public so unit tests (and in-process benches) can drive the full
        pipeline without sockets.
        """
        metrics = get_metrics()
        metrics.count("serve.requests.total")
        metrics.count(f"serve.op.{request.op}")

        # Liveness ops answer before every admission check — quota,
        # backpressure, drain — so monitors keep seeing the truth while
        # the server is overloaded or going away (docs/serving.md).
        if request.op == "ping":
            return request.success({"pong": True, "protocol": PROTOCOL_SCHEMA})
        if request.op == "stats":
            return request.success(self._op_stats())
        if request.op == "health":
            return request.success(self._op_health())
        if request.op == "prometheus":
            return request.success(self._op_prometheus())
        if request.op == "subscribe":
            # Socketless path: one frame.  Over a connection the server
            # intercepts subscribe before handle_request and streams.
            return self._op_subscribe_once(request)
        if request.op == "shutdown":
            denial = self._shutdown_denial(request)
            if denial is not None:
                metrics.count("serve.requests.rejected.shutdown")
                return denial
            self._stopping.set()
            return request.success({"stopping": True})

        # Draining: no new work; tell the client when to retry elsewhere.
        if self._draining:
            metrics.count("serve.requests.rejected.draining")
            self._slo_record(request.tenant, False, 0.0)
            return request.failure(
                ErrorCode.UNAVAILABLE,
                "server is draining; retry against a live instance",
                detail={"retry_after": self._retry_after_hint()},
            )

        # Backpressure: reject before any work is queued.
        if self._in_flight >= self.config.queue_limit:
            metrics.count("serve.requests.rejected.backpressure")
            self._slo_record(request.tenant, False, 0.0)
            return request.failure(
                ErrorCode.OVERLOADED,
                f"{self._in_flight} requests in flight "
                f"(limit {self.config.queue_limit}); retry with backoff",
            )

        # A seal without an explicit counter gets a server-assigned one:
        # the client default used to be a constant, which made every
        # defaulted seal reuse the same CTR pad (XOR of two ciphertexts
        # = XOR of the plaintexts).  Fresh counters keep pads unique.
        if request.op == "seal" and request.params.get("counter") is None:
            request.params["counter"] = self._next_seal_counter()

        # Parse before charging quota so cost reflects real work.
        try:
            item = (
                _parse_work_item(request, self.config.line_bytes)
                if request.op in BATCHED_OPS
                else None
            )
        except ProtocolError as error:
            metrics.count("serve.requests.bad")
            return request.failure(ErrorCode.BAD_REQUEST, str(error))
        if item is not None and request.op == "seal":
            self._note_seal_pair(item.addresses[0], item.counters[0], item.lines)

        cost = float(item.n_lines) if item is not None else 1.0
        if not self.quota.try_acquire(request.tenant, cost):
            metrics.count("serve.requests.rejected.quota")
            return request.failure(
                ErrorCode.QUOTA_EXHAUSTED,
                f"tenant {request.tenant!r} is out of quota "
                f"({cost:g} line-token(s) needed)",
            )

        self._in_flight += 1
        wall_start = time.time()
        start = time.perf_counter()
        status = "ok"
        try:
            if item is not None:
                result = await self._batchers[request.op].submit(item)
                if isinstance(result, _OpError):
                    raise result
                response = request.success(result)
            elif request.op == "plan":
                response = request.success(await self._op_plan(request))
            else:  # pragma: no cover - decode_request rejects unknown ops
                raise ProtocolError(f"unknown op {request.op!r}")
            metrics.count("serve.requests.ok")
        except _OpError as error:
            status = error.code.value
            if error.code is ErrorCode.TIMEOUT:
                metrics.count("serve.requests.timeout")
            else:
                metrics.count("serve.requests.failed")
            response = request.failure(error.code, str(error), error.detail)
        except ProtocolError as error:
            status = ErrorCode.BAD_REQUEST.value
            metrics.count("serve.requests.bad")
            response = request.failure(ErrorCode.BAD_REQUEST, str(error))
        except Exception as error:  # internal: never drop the response
            status = ErrorCode.INTERNAL.value
            metrics.count("serve.requests.failed")
            response = request.failure(ErrorCode.INTERNAL, repr(error))
        finally:
            self._in_flight -= 1
            duration = time.perf_counter() - start
            metrics.observe("serve.request", duration)
            # Per-tenant SLO: successes vs *service-attributable* errors.
            # Client-attributable outcomes (bad_request, quota_exhausted,
            # verify_failed — the service answered correctly) don't touch
            # availability; see docs/observability.md.
            if status == "ok":
                self._slo_record(request.tenant, True, duration)
            elif status in _SLO_ERROR_STATUSES:
                self._slo_record(request.tenant, False, duration)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.add_span(
                    "serve.request",
                    wall_start,
                    duration,
                    attrs={
                        "op": request.op,
                        "tenant": request.tenant,
                        "status": status,
                        "lines": item.n_lines if item is not None else 0,
                    },
                    parent=None,
                )
        return response

    # -- connection plumbing --------------------------------------------
    def _socket_fds(self) -> list[int]:
        """The listening and client sockets, closed in a slot as it forks:
        a connection this server closes must not stay open in a slot."""
        listening = self._server.sockets if self._server is not None else ()
        clients = (writer.get_extra_info("socket") for writer in self._writers)
        return [sock.fileno() for sock in (*listening, *clients) if sock is not None]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics = get_metrics()
        metrics.count("serve.connections")
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        # Long-lived subscribe streams on this connection: cancelled when
        # the read side ends, or the gather below would wait on them
        # until server stop.
        streams: set[asyncio.Task] = set()

        async def respond(response: Response) -> None:
            async with write_lock:
                writer.write(encode_response(response).encode() + b"\n")
                await writer.drain()

        async def serve_line(line: bytes) -> None:
            try:
                request = decode_request(line)
            except ProtocolError as error:
                metrics.count("serve.requests.bad")
                await respond(
                    Response(
                        id="?",
                        ok=False,
                        code=error.code,
                        message=str(error),
                    )
                )
                return
            if request.op == "subscribe":
                current = asyncio.current_task()
                if current is not None:
                    streams.add(current)
                try:
                    await self._run_subscription(request, respond)
                finally:
                    if current is not None:
                        streams.discard(current)
                return
            response = await self.handle_request(request)
            # Service-layer chaos: sabotage the *response* I/O after the
            # work succeeded — the faults a client-side retry must absorb.
            action = chaos_io_action(request.id, f"serve:{request.tenant}")
            if action is not None:
                kind, seconds = action
                if kind == "drop":
                    # Write a truncated response, then hard-close: the
                    # client sees a partial line and a dead socket.
                    metrics.count("serve.chaos.connection_drops")
                    async with write_lock:
                        wire = encode_response(response).encode()
                        writer.write(wire[: max(1, len(wire) // 4)])
                        with contextlib.suppress(
                            ConnectionResetError, BrokenPipeError, OSError
                        ):
                            await writer.drain()
                        writer.transport.abort()
                    return
                if kind == "stall":
                    metrics.count("serve.chaos.write_stalls")
                    await asyncio.sleep(seconds)
            await respond(response)

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # readline overran STREAM_LIMIT_BYTES: the line is
                    # over the protocol bound anyway, so answer with
                    # bad_request — but the partial line was discarded,
                    # framing is lost, and the connection must close.
                    metrics.count("serve.requests.bad")
                    try:
                        await respond(
                            Response(
                                id="?",
                                ok=False,
                                code=ErrorCode.BAD_REQUEST,
                                message=(
                                    f"request line exceeds {MAX_LINE_BYTES} "
                                    "bytes; chunk payloads client-side "
                                    "(closing connection)"
                                ),
                            )
                        )
                    except (ConnectionResetError, BrokenPipeError, OSError):
                        pass
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(serve_line(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            self._writers.discard(writer)
            for stream in list(streams):
                stream.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def _print_banner(message: str) -> None:
    # Flushed so supervisors reading the pipe see the bound port at once.
    print(message, flush=True)


def run_server(config: ServeConfig, *, banner=_print_banner) -> int:
    """Blocking entry point for the CLI: serve until shutdown or signal.

    SIGTERM and SIGINT trigger a *graceful drain* (docs/serving.md,
    "Drain sequence"): stop accepting, finish in-flight work up to
    ``config.drain_timeout``, then stop — returning normally so the CLI
    flushes ``--metrics-out`` / ``--trace-out`` on the way down.  A
    second signal skips the drain and stops immediately.
    """

    async def main() -> None:
        server = ModelServer(config)
        loop = asyncio.get_running_loop()
        drains: set[asyncio.Task] = set()

        def request_drain(signame: str) -> None:
            if server.draining:
                banner(f"repro-serve: second {signame}, stopping now")
                task = loop.create_task(server.stop())
            else:
                banner(
                    f"repro-serve: {signame} received, draining "
                    f"(timeout {config.drain_timeout:g}s)"
                )
                task = loop.create_task(server.drain())
            drains.add(task)
            task.add_done_callback(drains.discard)

        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, request_drain, sig.name)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-Unix loop / nested loop: KeyboardInterrupt path

        port = await server.start()
        banner(
            f"repro-serve listening on {config.host}:{port} "
            f"({PROTOCOL_SCHEMA}, workers={config.workers}, "
            f"max_batch={config.max_batch})",
        )
        if config.telemetry_out:
            banner(
                f"repro-serve telemetry -> {config.telemetry_out} "
                f"(every {config.telemetry_interval:g}s; watch with "
                f"`repro top --file {config.telemetry_out}`)"
            )
        if config.events_out:
            banner(f"repro-serve events -> {config.events_out}")
        try:
            await server.serve_until_stopped()
            if drains:
                await asyncio.gather(*drains, return_exceptions=True)
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            banner("repro-serve stopped")

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0
