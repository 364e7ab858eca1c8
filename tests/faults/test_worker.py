"""Worker slots: framing, typed failures, crash and timeout isolation.

The handlers here are plain module functions; slots fork, so they are
inherited rather than pickled.  Items are ``(action, argument)`` pairs.
"""

import asyncio
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.faults.runner import RetryPolicy, run_hardened
from repro.faults.worker import AsyncSlotPool, SlotCrashed, SlotPool
from repro.obs.metrics import MetricsRegistry, get_metrics


def _handle(item):
    action, argument = item
    if action == "echo":
        return argument
    if action == "pid":
        return os.getpid()
    if action == "sleep":
        time.sleep(argument)
        return argument
    if action == "crash-after":
        time.sleep(argument)
        os._exit(7)
    if action == "raise":
        raise ValueError(argument)
    if action == "count":
        get_metrics().count("slot.items", argument)
        return get_metrics().delta()
    raise AssertionError(action)


def _assert_no_children():
    assert multiprocessing.active_children() == []


def _no_restart():
    raise AssertionError("no slot should restart")


# ----------------------------------------------------------------------
# Synchronous face
# ----------------------------------------------------------------------

def test_sync_round_trip_keeps_one_process_and_one_registry():
    pool = SlotPool(_handle, 1, on_restart=_no_restart)
    try:
        pids, deltas = set(), []
        for value in range(3):
            pool.submit(0, value, ("pid", None))
            ((tag, ok, pid),) = pool.wait(5.0)
            assert (tag, ok) == (value, True)
            pids.add(pid)
            pool.submit(0, value, ("count", value + 1))
            ((_, ok, delta),) = pool.wait(5.0)
            deltas.append(delta["counters"])
        assert len(pids) == 1 and pids != {os.getpid()}
        # One registry for the slot's life, cleared by each delta.
        assert deltas == [{"slot.items": 1}, {"slot.items": 2}, {"slot.items": 3}]
    finally:
        pool.stop()
    _assert_no_children()


def test_sync_exception_is_typed_and_the_slot_survives():
    pool = SlotPool(_handle, 1, on_restart=_no_restart)
    try:
        pool.submit(0, "bad", ("raise", "poisoned"))
        ((tag, ok, error),) = pool.wait(5.0)
        assert (tag, ok) == ("bad", False)
        assert isinstance(error, ValueError) and str(error) == "poisoned"
        pool.submit(0, "good", ("echo", 4))
        assert pool.wait(5.0) == [("good", True, 4)]
    finally:
        pool.stop()


def test_sync_crash_retires_only_that_slot():
    restarts = []
    pool = SlotPool(_handle, 2, on_restart=lambda: restarts.append(1))
    try:
        pool.submit(0, "victim", ("crash-after", 0.0))
        pool.submit(1, "bystander", ("sleep", 0.3))
        ((tag, ok, error),) = pool.wait(5.0)
        assert (tag, ok) == ("victim", False)
        assert isinstance(error, SlotCrashed)
        assert restarts == [1]
        assert list(pool.busy) == [1]
        assert pool.wait(5.0) == [("bystander", True, 0.3)]
        pool.submit(0, "next", ("echo", "ok"))  # forked afresh
        assert pool.wait(5.0) == [("next", True, "ok")]
    finally:
        pool.stop()
    _assert_no_children()


# ----------------------------------------------------------------------
# asyncio face
# ----------------------------------------------------------------------
def test_async_pipelined_crash_fails_both_then_restarts():
    restarts = []

    async def scenario():
        pool = AsyncSlotPool(_handle, 1, on_restart=lambda: restarts.append(1))
        try:
            first_pid = await pool.call(("pid", None))
            doomed = asyncio.ensure_future(pool.call(("crash-after", 0.2)))
            behind = asyncio.ensure_future(pool.call(("echo", "queued")))
            results = await asyncio.gather(doomed, behind, return_exceptions=True)
            assert all(isinstance(r, SlotCrashed) for r in results), results
            assert restarts == [1]
            assert await pool.call(("echo", "after")) == "after"
            assert await pool.call(("pid", None)) != first_pid
        finally:
            await pool.stop()

    asyncio.run(scenario())
    _assert_no_children()


def test_async_exception_keeps_its_type():
    async def scenario():
        pool = AsyncSlotPool(_handle, 1, on_restart=_no_restart)
        try:
            with pytest.raises(ValueError, match="poisoned"):
                await pool.call(("raise", "poisoned"))
            assert await pool.call(("echo", 1)) == 1
        finally:
            await pool.stop()

    asyncio.run(scenario())


def test_async_timeout_kills_the_slot_and_fails_what_queued_behind():
    restarts = []

    async def scenario():
        pool = AsyncSlotPool(_handle, 1, on_restart=lambda: restarts.append(1))
        try:
            hung = asyncio.ensure_future(pool.call(("sleep", 60), timeout=0.3))
            behind = asyncio.ensure_future(pool.call(("echo", "queued")))
            with pytest.raises(TimeoutError):
                await hung
            with pytest.raises(SlotCrashed):
                await behind
            assert restarts == [1]
            assert await pool.call(("echo", "fresh")) == "fresh"
        finally:
            await pool.stop()

    asyncio.run(scenario())
    _assert_no_children()


def test_async_picks_the_least_loaded_slot():
    async def scenario():
        pool = AsyncSlotPool(_handle, 2, on_restart=_no_restart)
        try:
            busy = asyncio.ensure_future(pool.call(("sleep", 0.5)))
            await asyncio.sleep(0.05)
            start = time.perf_counter()
            assert await pool.call(("echo", "fast"), timeout=5.0) == "fast"
            assert time.perf_counter() - start < 0.4  # did not queue behind
            await busy
        finally:
            await pool.stop()

    asyncio.run(scenario())
    _assert_no_children()


# ----------------------------------------------------------------------
# Through run_hardened
# ----------------------------------------------------------------------
def _crash_or_log(arg):
    log, action, value = arg
    with open(log, "a") as handle:
        handle.write(f"{action}\n")
    if action == "crash" and Path(log).read_text().count("crash") == 1:
        os._exit(9)
    if action == "slow":
        time.sleep(0.6)
    return value


def test_run_hardened_crash_spares_the_other_slot(tmp_path):
    metrics = MetricsRegistry()
    crash_log, slow_log = str(tmp_path / "crash"), str(tmp_path / "slow")
    results = run_hardened(
        _crash_or_log,
        [("slow", "slow", (slow_log, "slow", 1)), ("crash", "crash", (crash_log, "crash", 2))],
        jobs=2,
        policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
        metrics=metrics,
    )
    assert results == {"slow": 1, "crash": 2}
    # The slow unit started once: the crash beside it neither charged nor
    # restarted it.
    assert Path(slow_log).read_text() == "slow\n"
    assert metrics.counter("runner.attempts") == 3
    assert metrics.counter("runner.crashes") == 1
    assert metrics.counter("runner.pool_restarts") == 1
    _assert_no_children()
