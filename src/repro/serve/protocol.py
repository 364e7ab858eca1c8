"""The ``repro.serve/v1`` wire protocol: newline-delimited JSON.

One request per line, one response per line, correlated by a client-chosen
``id`` (responses may arrive out of order — the server handles requests
concurrently and the micro-batcher reorders completions).  The full
protocol reference with request/response examples lives in
``docs/serving.md``; this module is the single source of truth for the
shapes.

Request::

    {"id": "r1", "op": "seal", "tenant": "acme", "params": {...}}

Response::

    {"id": "r1", "ok": true, "result": {...}}
    {"id": "r1", "ok": false,
     "error": {"code": "quota_exhausted", "status": 429, "message": "..."}}

Binary payloads (plaintext, ciphertext, tags) travel as standard base64
strings.  Unknown top-level request fields are rejected (a typo'd field
name should fail loudly, not silently change semantics); unknown *ops*
are a :class:`ProtocolError` with code ``bad_request``.

>>> request = decode_request('{"id": "1", "op": "ping"}')
>>> request.op
'ping'
>>> '"pong":true' in encode_response(request.success({"pong": True}))
True
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "PROTOCOL_SCHEMA",
    "OPS",
    "BATCHED_OPS",
    "MAX_LINE_BYTES",
    "STREAM_LIMIT_BYTES",
    "RETRYABLE_CODES",
    "ErrorCode",
    "ProtocolError",
    "Request",
    "Response",
    "decode_request",
    "encode_response",
    "decode_response",
    "to_b64",
    "from_b64",
]

#: Version tag carried in every ``stats`` result and the server banner.
PROTOCOL_SCHEMA = "repro.serve/v1"

#: Every operation the server understands.  ``seal``/``unseal``/``verify``
#: run through the micro-batcher; the rest execute directly.
#: ``ping``/``stats``/``health``/``prometheus`` are liveness ops: exempt
#: from per-tenant quota, the bounded admission queue, and drain
#: rejection, so they keep answering under overload and during a graceful
#: drain.  ``subscribe`` is the one *streaming* op: the server answers it
#: with a telemetry frame per interval (same ``id`` on every line, the
#: last frame carrying ``"final": true``) and it is likewise
#: drain/quota-exempt so an operator can watch a drain complete.
OPS = (
    "seal",
    "unseal",
    "verify",
    "plan",
    "stats",
    "ping",
    "health",
    "subscribe",
    "prometheus",
    "shutdown",
)

#: Operations coalesced by :class:`repro.serve.batcher.MicroBatcher`.
BATCHED_OPS = ("seal", "unseal", "verify")

#: Upper bound on one request line (wire bytes, pre-parse).  Base64 inflates
#: payloads 4/3×, so this admits payloads of ~1.5 MB — far beyond the
#: benched mix — while bounding per-request memory.
MAX_LINE_BYTES = 2 * 1024 * 1024

#: ``limit=`` for :func:`asyncio.start_server` / ``open_connection``.
#: asyncio's default ``StreamReader`` limit is 64 KiB, under which
#: ``readline`` raises :class:`ValueError` on any longer line — so both
#: sides of the connection must raise it to the protocol's line bound
#: (plus slack for framing) or legal payloads would kill the stream.
STREAM_LIMIT_BYTES = MAX_LINE_BYTES + 1024


class ErrorCode(str, Enum):
    """Error codes with their HTTP-flavoured status for familiarity."""

    BAD_REQUEST = "bad_request"          # 400: malformed JSON / params
    VERIFY_FAILED = "verify_failed"      # 403: authentication tag mismatch
    FORBIDDEN = "forbidden"              # 403: op not permitted (shutdown)
    OVERLOADED = "overloaded"            # 429: bounded queue full
    QUOTA_EXHAUSTED = "quota_exhausted"  # 429: tenant token bucket empty
    UNAVAILABLE = "unavailable"          # 503: draining; retry elsewhere
    TIMEOUT = "timeout"                  # 504: per-request budget exceeded
    CRASHED = "crashed"                  # 500: worker died mid-request
    CONNECTION_LOST = "connection_lost"  # 503: client-side, never on the wire
    INTERNAL = "internal"                # 500: anything else

    @property
    def status(self) -> int:
        return {
            ErrorCode.BAD_REQUEST: 400,
            ErrorCode.VERIFY_FAILED: 403,
            ErrorCode.FORBIDDEN: 403,
            ErrorCode.OVERLOADED: 429,
            ErrorCode.QUOTA_EXHAUSTED: 429,
            ErrorCode.UNAVAILABLE: 503,
            ErrorCode.TIMEOUT: 504,
            ErrorCode.CRASHED: 500,
            ErrorCode.CONNECTION_LOST: 503,
            ErrorCode.INTERNAL: 500,
        }[self]


#: Codes a retrying client may transparently replay: the request either
#: never reached execution (``overloaded``, ``unavailable``), the batch
#: died before completing (``crashed`` — the worker is restarted), or the
#: *response* was lost (``connection_lost``, synthesized client-side when
#: the connection drops with requests in flight).  ``timeout`` is
#: deliberately absent: a payload that hangs the datapath would burn a
#: full request budget per attempt, so timeouts are surfaced to the
#: caller instead of retried blindly (docs/serving.md, "Resilience").
RETRYABLE_CODES = frozenset(
    {
        ErrorCode.OVERLOADED,
        ErrorCode.UNAVAILABLE,
        ErrorCode.CRASHED,
        ErrorCode.CONNECTION_LOST,
    }
)


class ProtocolError(ValueError):
    """A request that cannot be served; carries its wire error code."""

    def __init__(
        self, message: str, code: ErrorCode = ErrorCode.BAD_REQUEST
    ) -> None:
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class Request:
    """One parsed request line."""

    id: str
    op: str
    tenant: str = "default"
    params: dict = field(default_factory=dict)

    def success(self, result: dict) -> "Response":
        return Response(id=self.id, ok=True, result=result)

    def failure(
        self, code: ErrorCode, message: str, detail: dict | None = None
    ) -> "Response":
        return Response(
            id=self.id, ok=False, code=code, message=message, detail=detail
        )


@dataclass(frozen=True)
class Response:
    """One response line (success XOR error)."""

    id: str
    ok: bool
    result: dict | None = None
    code: ErrorCode | None = None
    message: str = ""
    detail: dict | None = None


# ----------------------------------------------------------------------
# Encoding / decoding
# ----------------------------------------------------------------------
def to_b64(data: bytes) -> str:
    """Binary → wire text."""
    return base64.b64encode(data).decode("ascii")


def from_b64(text: object, what: str = "payload") -> bytes:
    """Wire text → binary; :class:`ProtocolError` on anything malformed."""
    if not isinstance(text, str):
        raise ProtocolError(f"{what} must be a base64 string")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as error:
        raise ProtocolError(f"{what} is not valid base64: {error}") from None


_REQUEST_FIELDS = {"id", "op", "tenant", "params"}


def decode_request(line: str | bytes) -> Request:
    """Parse one request line; :class:`ProtocolError` on any malformation."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"request line exceeds {MAX_LINE_BYTES} bytes"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"request is not UTF-8: {error}") from None
    elif len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    unknown = set(payload) - _REQUEST_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request needs a non-empty string 'id'")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; choose from {', '.join(OPS)}"
        )
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty string")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    return Request(id=request_id, op=op, tenant=tenant, params=params)


def encode_response(response: Response) -> str:
    """Serialise a response to one wire line (no trailing newline)."""
    if response.ok:
        document: dict = {"id": response.id, "ok": True, "result": response.result or {}}
    else:
        code = response.code or ErrorCode.INTERNAL
        error: dict = {
            "code": code.value,
            "status": code.status,
            "message": response.message,
        }
        if response.detail:
            error["detail"] = response.detail
        document = {"id": response.id, "ok": False, "error": error}
    return json.dumps(document, separators=(",", ":"), sort_keys=True)


def decode_response(line: str | bytes) -> Response:
    """Parse one response line (the client half of the protocol)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"response is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or "id" not in payload:
        raise ProtocolError("response must be a JSON object with an 'id'")
    if payload.get("ok"):
        result = payload.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("success response needs a 'result' object")
        return Response(id=str(payload["id"]), ok=True, result=result)
    error = payload.get("error")
    if not isinstance(error, dict):
        raise ProtocolError("failure response needs an 'error' object")
    try:
        code = ErrorCode(error.get("code"))
    except ValueError:
        code = ErrorCode.INTERNAL
    return Response(
        id=str(payload["id"]),
        ok=False,
        code=code,
        message=str(error.get("message", "")),
        detail=error.get("detail"),
    )


# ----------------------------------------------------------------------
# Parameter validation helpers (shared by the server's op handlers)
# ----------------------------------------------------------------------
def require_int(params: dict, name: str, default: int | None = None) -> int:
    value = params.get(name, default)
    if value is None:
        raise ProtocolError(f"missing required integer param {name!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"param {name!r} must be an integer")
    if value < 0:
        raise ProtocolError(f"param {name!r} must be non-negative")
    return value


def require_float(
    params: dict,
    name: str,
    default: float,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    """Optional numeric param with range clamping via rejection."""
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"param {name!r} must be a number")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ProtocolError(f"param {name!r} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ProtocolError(f"param {name!r} must be <= {maximum}")
    return value


def require_tags(params: dict, n_lines: int) -> list[bytes]:
    raw = params.get("tags")
    if not isinstance(raw, list) or len(raw) != n_lines:
        raise ProtocolError(
            f"'tags' must be a list of {n_lines} base64 tag(s)"
        )
    return [from_b64(tag, "tag") for tag in raw]
