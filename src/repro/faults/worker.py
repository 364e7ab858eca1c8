"""Long-lived worker slots over socketpairs, shared by both hardened pools.

A **slot** is one forked process plus the parent's end of a
:func:`socket.socketpair`.  Frames are a 4-byte big-endian length and a
pickle: the parent sends items, the slot answers each in order with
``(True, value)`` or ``(False, exception)``.  A slot installs one
:class:`~repro.obs.metrics.MetricsRegistry` when it starts and keeps it,
so a handler can ship :meth:`~repro.obs.metrics.MetricsRegistry.delta`
per item.  Slots fork rather than spawn: the handler is inherited, not
pickled, so a module function patched before the fork is what runs.

:class:`SlotPool` is the synchronous face (one item in flight per slot,
used by :func:`repro.faults.runner.run_hardened`); :class:`AsyncSlotPool`
the asyncio one (items pipelined per slot, least-pending placement, used
by :class:`repro.serve.server.ModelServer`).  Either way a slot that dies
or is killed is retired alone: what it had in flight fails with
:class:`SlotCrashed`, ``on_restart`` fires, and the next item sent to
that position forks a fresh slot.  Callers keep their own policy on top.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import pickle
import signal
import socket
import struct
import time
from collections import deque
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Iterable

from ..obs.metrics import MetricsRegistry, set_metrics

__all__ = ["SlotCrashed", "SlotPool", "AsyncSlotPool"]

_HEADER = struct.Struct("!I")
_FORK = multiprocessing.get_context("fork")


class SlotCrashed(RuntimeError):
    """The slot's process died, or was killed, with this item in flight."""


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


def _slot_main(sock: socket.socket, handler: Callable, inherited: Iterable) -> None:
    for other in inherited:  # the parent's ends of this and sibling slots
        other.close()
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

    def __init__(self, handler: Callable, siblings: Iterable[socket.socket]) -> None:
        self.sock, child = socket.socketpair()
        self.process = _FORK.Process(
            target=_slot_main, args=(child, handler, [*siblings, self.sock]), daemon=True
        )
        try:
            self.process.start()
        finally:
            child.close()

    def kill(self) -> None:
        self.sock.close()
        self.process.kill()
        self.process.join()


class SlotPool:
    """Synchronous face: ``size`` slots, at most one item in flight each.

    ``busy`` maps a slot index to ``(tag, started)`` for the item it runs
    (``started`` on the :func:`time.monotonic` clock, for timeouts).
    """

    def __init__(self, handler: Callable, size: int, *, on_restart: Callable[[], None]) -> None:
        self._handler = handler
        self._on_restart = on_restart
        self._slots: list[_Slot | None] = [None] * size
        self.busy: dict[int, tuple[object, float]] = {}

    def idle(self) -> list[int]:
        return [index for index in range(len(self._slots)) if index not in self.busy]

    def submit(self, index: int, tag: object, item: object) -> None:
        """Send ``item`` to idle slot ``index``, forking it if need be."""
        slot = self._slots[index]
        if slot is None:
            live = [other.sock for other in self._slots if other is not None]
            slot = self._slots[index] = _Slot(self._handler, live)
        # A slot that died while idle refuses the frame; its sentinel then
        # reports the item as crashed, as if it had died running it.
        with contextlib.suppress(OSError):
            slot.sock.sendall(_frame(item))
        self.busy[index] = (tag, time.monotonic())

    def wait(self, timeout: float | None) -> list[tuple[object, bool, object]]:
        """``(tag, ok, value)`` for each reply within ``timeout`` seconds; an
        item whose slot died comes back as ``(tag, False, SlotCrashed)``."""
        owners = {}
        for index in self.busy:
            slot = self._slots[index]
            owners[slot.sock] = owners[slot.process.sentinel] = index
        ready = set(wait_ready(list(owners), timeout))
        replies = []
        for index in sorted({owners[handle] for handle in ready}):
            sock = self._slots[index].sock
            # A dead process with a quiet socket is a crash too: a
            # grandchild may still hold the slot's end open.
            body = _read_frame(sock) if sock in ready else None
            if body is None:
                replies.append((self.kill(index), False, SlotCrashed(f"worker slot {index} died")))
            else:
                replies.append((self.busy.pop(index)[0], *_decode(body)))
        return replies

    def kill(self, index: int) -> object:
        """Retire busy slot ``index``; returns the tag it was running."""
        tag, _ = self.busy.pop(index)
        self._slots[index].kill()
        self._slots[index] = None
        self._on_restart()
        return tag

    def stop(self) -> None:
        for slot in self._slots:
            if slot is not None:
                slot.kill()
        self._slots = [None] * len(self._slots)
        self.busy.clear()


class _AsyncSlot:
    def __init__(self, slot: _Slot) -> None:
        self.slot = slot
        self.pending: deque[asyncio.Future] = deque()
        self.writer: asyncio.StreamWriter | None = None
        self.reader: asyncio.Task | None = None
        self.connected: asyncio.Future | None = None  # the streams are open


class AsyncSlotPool:
    """asyncio face: ``size`` slots, items pipelined on each in FIFO order.

    The parent socket is wrapped in asyncio streams, so writing a large
    frame never blocks the event loop.
    """

    def __init__(self, handler: Callable, size: int, *, on_restart: Callable[[], None]) -> None:
        self._handler = handler
        self._on_restart = on_restart
        self._slots: list[_AsyncSlot | None] = [None] * size

    @property
    def alive(self) -> bool:
        return any(entry is not None for entry in self._slots)

    async def call(self, item: object, timeout: float | None = None) -> object:
        """Run ``item`` on the slot with the fewest pending items.

        Raises the handler's exception, :class:`SlotCrashed`, or
        :class:`TimeoutError` after ``timeout`` seconds — the slot is then
        killed and whatever else it had in flight fails with
        :class:`SlotCrashed`.
        """
        slots = self._slots
        index = min(range(len(slots)), key=lambda i: len(slots[i].pending) if slots[i] else 0)
        entry = slots[index]
        if entry is None:
            live = [other.slot.sock for other in slots if other is not None]
            entry = slots[index] = _AsyncSlot(_Slot(self._handler, live))
            entry.connected = asyncio.ensure_future(self._connect(entry))
        await entry.connected
        if entry not in self._slots:  # retired while connecting
            raise SlotCrashed(f"worker slot {index} died before the item was sent")
        future = asyncio.get_running_loop().create_future()
        entry.pending.append(future)
        entry.writer.write(_frame(item))
        try:
            return await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self._retire(entry, f"worker slot {index} killed after a timeout")
            raise TimeoutError from None

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
