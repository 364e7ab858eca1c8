"""Long-lived worker slots over socketpairs, shared by every fan-out.

A **slot** is one forked process plus the parent's end of a
:func:`socket.socketpair`.  Frames are a 4-byte big-endian length and a
pickle: the parent sends items, the slot answers each in order with
``(True, value)`` or ``(False, exception)``.  A slot installs one
:class:`~repro.obs.metrics.MetricsRegistry` when it starts and keeps it;
a handler wraps its work in :func:`traced_delta` to ship that registry's
:meth:`~repro.obs.metrics.MetricsRegistry.delta` and the item's spans
with each reply.  Slots fork rather than spawn: the handler is inherited,
not pickled, so a module function patched before the fork is what runs.
At the fork the slot closes the parent's ends of every socketpair and
any descriptor the owner names (a server's listening and client
sockets), so a connection the parent closes is not kept open by a slot.

:class:`AsyncSlotPool` is the one face: items pipeline on a slot in FIFO
order and go to the slot with the fewest calls in flight.
:func:`repro.faults.runner.run_hardened` keeps one call per slot from one
:func:`asyncio.run` per fan-out; :class:`repro.serve.server.ModelServer`
pipelines batches from its event loop.  A slot that dies or is killed is
retired alone: what it had in flight fails with :class:`SlotCrashed`,
``on_restart`` fires, and the next call forks a fresh slot.  Callers keep
their own policy on top.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import pickle
import signal
import socket
import struct
from collections import deque
from typing import Callable, Iterable

from ..obs.metrics import MetricsRegistry, get_metrics, set_metrics
from ..obs.trace import worker_tracer

__all__ = ["SlotCrashed", "SlotTimeout", "AsyncSlotPool", "traced_delta"]

_HEADER = struct.Struct("!I")
_FORK = multiprocessing.get_context("fork")


class SlotCrashed(RuntimeError):
    """The slot's process died, or was killed, with this item in flight."""


class SlotTimeout(TimeoutError):
    """The item ran past its timeout, and its slot was killed."""


def _frame(message: object) -> bytes:
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


def _read_frame(sock: socket.socket) -> bytearray | None:
    """One frame's body, or ``None`` if the peer hung up first."""
    size = None
    while True:
        buffer = bytearray(_HEADER.size if size is None else size)
        view, received = memoryview(buffer), 0
        while received < len(buffer):
            count = sock.recv_into(view[received:])
            if count == 0:
                return None
            received += count
        if size is not None:
            return buffer
        (size,) = _HEADER.unpack(buffer)


def _decode(body: bytes | bytearray) -> tuple[bool, object]:
    try:
        return pickle.loads(body)
    except Exception as error:  # noqa: BLE001 — e.g. an exception that will not rebuild
        return False, RuntimeError(f"undecodable worker reply: {error!r}")


def traced_delta(work: Callable, item: object) -> tuple[object, dict, list[dict]]:
    """Slot side of one item: ``(work(item), metrics delta, spans)``.

    ``work`` runs under :func:`~repro.obs.trace.worker_tracer`; the delta
    is what the slot's registry recorded for this item alone, since what
    an item that raised left behind is dropped first.
    """
    get_metrics().delta()
    with worker_tracer() as tracer:
        value = work(item)
        spans = tracer.span_dicts() if tracer is not None else []
    return value, get_metrics().delta(), spans


def _slot_main(sock: socket.socket, handler: Callable, inherited: Iterable[int]) -> None:
    for fd in inherited:  # the parent's socketpair ends and the owner's sockets
        with contextlib.suppress(OSError):
            os.close(fd)
    # A forking asyncio server's wake-up fd is its loop's self-pipe: keep
    # signals sent to this slot from reaching the parent's loop too.
    with contextlib.suppress(ValueError):
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
    set_metrics(MetricsRegistry())
    while (body := _read_frame(sock)) is not None:
        try:
            reply = _frame((True, handler(pickle.loads(body))))
        except Exception as error:  # noqa: BLE001 — shipped back to the caller
            try:
                reply = _frame((False, error))
            except Exception:  # noqa: BLE001 — the exception will not pickle
                reply = _frame((False, RuntimeError(repr(error))))
        sock.sendall(reply)


class _Slot:
    """One forked worker process and the parent's end of its socketpair."""

    def __init__(self, handler: Callable, inherited: Iterable[int]) -> None:
        self.sock, child = socket.socketpair()
        self.process = _FORK.Process(
            target=_slot_main, args=(child, handler, [*inherited, self.sock.fileno()]), daemon=True
        )
        try:
            self.process.start()
        finally:
            child.close()

    def kill(self) -> None:
        self.sock.close()
        self.process.kill()
        self.process.join()


class _AsyncSlot:
    def __init__(self, slot: _Slot) -> None:
        self.slot = slot
        self.pending: deque[asyncio.Future] = deque()
        self.calls = 0  # callers placed here and not yet answered
        self.writer: asyncio.StreamWriter | None = None
        self.reader: asyncio.Task | None = None
        self.connected: asyncio.Future | None = None  # the streams are open


class AsyncSlotPool:
    """``size`` slots, items pipelined on each in FIFO order.

    The parent socket is wrapped in asyncio streams, so writing a large
    frame never blocks the event loop.  ``inherited()`` names the extra
    file descriptors a slot closes when it forks.
    """

    def __init__(
        self,
        handler: Callable,
        size: int,
        *,
        on_restart: Callable[[], None],
        inherited: Callable[[], Iterable[int]] = tuple,
    ) -> None:
        self._handler = handler
        self._on_restart = on_restart
        self._inherited = inherited
        self._slots: list[_AsyncSlot | None] = [None] * size

    @property
    def alive(self) -> bool:
        return any(entry is not None for entry in self._slots)

    async def call(self, item: object, timeout: float | None = None) -> object:
        """Run ``item`` on the slot with the fewest calls in flight.

        Raises the handler's exception, :class:`SlotCrashed`, or
        :class:`SlotTimeout` after ``timeout`` seconds — the slot is then
        killed and whatever else it had in flight fails with
        :class:`SlotCrashed`.
        """
        slots = self._slots
        index = min(range(len(slots)), key=lambda i: slots[i].calls if slots[i] else 0)
        entry = slots[index]
        if entry is None:
            live = [other.slot.sock.fileno() for other in slots if other is not None]
            entry = slots[index] = _AsyncSlot(_Slot(self._handler, [*live, *self._inherited()]))
            entry.connected = asyncio.ensure_future(self._connect(entry))
        entry.calls += 1  # counted before connecting: a racing call goes elsewhere
        future = None
        try:
            await entry.connected
            if entry not in self._slots:  # retired while connecting
                raise SlotCrashed(f"worker slot {index} died before the item was sent")
            future = asyncio.get_running_loop().create_future()
            entry.pending.append(future)
            entry.writer.write(_frame(item))
            return await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            if future is None or not future.cancelled():
                raise  # the handler's own TimeoutError: the slot is fine
            self._retire(entry, f"worker slot {index} killed after a timeout")
            raise SlotTimeout(f"worker slot {index} killed after {timeout:g}s") from None
        finally:
            entry.calls -= 1

    async def _connect(self, entry: _AsyncSlot) -> None:
        # A generous buffer limit: a 4096-line reply is one ~0.6 MB frame.
        reader, entry.writer = await asyncio.open_unix_connection(
            sock=entry.slot.sock, limit=1 << 22
        )
        entry.reader = asyncio.create_task(self._read_replies(entry, reader))

    async def _read_replies(self, entry: _AsyncSlot, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                header = await reader.readexactly(_HEADER.size)
                body = await reader.readexactly(_HEADER.unpack(header)[0])
                future = entry.pending.popleft()
                if future.done():  # its caller timed out or left
                    continue
                ok, value = _decode(body)
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
        except (asyncio.IncompleteReadError, ConnectionError):
            self._retire(entry, "worker slot died")

    def _retire(self, entry: _AsyncSlot, reason: str) -> None:
        if entry in self._slots:
            self._slots[self._slots.index(entry)] = None
            self._close(entry, reason)
            self._on_restart()

    @staticmethod
    def _close(entry: _AsyncSlot, reason: str) -> None:
        if entry.writer is not None:
            entry.writer.close()
        entry.slot.kill()
        for task in (entry.connected, entry.reader):
            if task is not None and task is not asyncio.current_task():
                task.cancel()
        for future in entry.pending:
            if not future.done():
                future.set_exception(SlotCrashed(reason))
        entry.pending.clear()

    async def stop(self) -> None:
        """Kill and reap every slot."""
        entries = [entry for entry in self._slots if entry is not None]
        self._slots = [None] * len(self._slots)
        for entry in entries:
            self._close(entry, "worker pool stopped")
            for task in (entry.connected, entry.reader):
                if task is not None:
                    with contextlib.suppress(asyncio.CancelledError):
                        await task
