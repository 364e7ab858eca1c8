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

from repro.faults.runner import RetryPolicy, UnitExecutionError, run_hardened
from repro.faults.worker import AsyncSlotPool, SlotCrashed
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
    if action == "raise-timeout":
        raise TimeoutError(argument)
    if action == "count":
        get_metrics().count("slot.items", argument)
        return get_metrics().delta()
    raise AssertionError(action)


def _assert_no_children():
    assert multiprocessing.active_children() == []


def _no_restart():
    raise AssertionError("no slot should restart")


# ----------------------------------------------------------------------
# The slot pool
# ----------------------------------------------------------------------
def test_round_trip_keeps_one_process_and_one_registry():
    async def scenario():
        pool = AsyncSlotPool(_handle, 1, on_restart=_no_restart)
        try:
            pids = {await pool.call(("pid", None)) for _ in range(3)}
            deltas = [(await pool.call(("count", n)))["counters"] for n in (1, 2, 3)]
        finally:
            await pool.stop()
        assert len(pids) == 1 and pids != {os.getpid()}
        # One registry for the slot's life, cleared by each delta.
        assert deltas == [{"slot.items": 1}, {"slot.items": 2}, {"slot.items": 3}]

    asyncio.run(scenario())
    _assert_no_children()


def test_sync_exception_is_typed_and_the_slot_survives():
    # One item at a time, each awaited before the next is sent.
    async def scenario():
        pool = AsyncSlotPool(_handle, 1, on_restart=_no_restart)
        try:
            pid = await pool.call(("pid", None))
            with pytest.raises(ValueError) as excinfo:
                await pool.call(("raise", "poisoned"))
            assert type(excinfo.value) is ValueError
            assert str(excinfo.value) == "poisoned"
            assert await pool.call(("echo", 4)) == 4
            assert await pool.call(("pid", None)) == pid
        finally:
            await pool.stop()

    asyncio.run(scenario())
    _assert_no_children()


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
            pid = await pool.call(("pid", None))
            with pytest.raises(ValueError, match="poisoned"):
                await pool.call(("raise", "poisoned"))
            assert await pool.call(("echo", 1)) == 1
            # The handler's own TimeoutError is not a timeout: no kill.
            with pytest.raises(TimeoutError, match="gave up"):
                await pool.call(("raise-timeout", "gave up"), timeout=5.0)
            assert await pool.call(("pid", None)) == pid  # the slot survived
        finally:
            await pool.stop()

    asyncio.run(scenario())


def test_async_crash_retires_only_that_slot():
    restarts = []

    async def scenario():
        pool = AsyncSlotPool(_handle, 2, on_restart=lambda: restarts.append(1))
        try:
            bystander = asyncio.ensure_future(pool.call(("sleep", 0.5)))
            await asyncio.sleep(0.05)
            first = await pool.call(("pid", None))  # the idle second slot
            with pytest.raises(SlotCrashed):
                await pool.call(("crash-after", 0.0))
            assert restarts == [1]
            assert await pool.call(("pid", None)) != first  # forked afresh
            assert not bystander.done()
            assert await bystander == 0.5  # neither charged nor restarted
            assert restarts == [1]
        finally:
            await pool.stop()

    asyncio.run(scenario())
    _assert_no_children()


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


def _hang_or_log(arg):
    log, seconds = arg
    with open(log, "a") as handle:
        handle.write("started\n")
    time.sleep(seconds)
    return seconds


def test_run_hardened_timeout_charges_only_the_hung_unit(tmp_path):
    metrics = MetricsRegistry()
    logs = {name: str(tmp_path / name) for name in ("hung", "short", "slow")}
    delivered = []
    with pytest.raises(UnitExecutionError) as excinfo:
        run_hardened(
            _hang_or_log,
            # The other slot runs "short" then "slow", which is mid-run
            # when the hung unit's slot is killed at 1 s.
            [
                ("hung", "hung", (logs["hung"], 60.0)),
                ("short", "short", (logs["short"], 0.5)),
                ("slow", "slow", (logs["slow"], 0.7)),
            ],
            jobs=2,
            policy=RetryPolicy(max_attempts=1, timeout_seconds=1.0),
            metrics=metrics,
            on_result=lambda key, item, value: delivered.append((key, value)),
        )
    assert (excinfo.value.key, excinfo.value.kind) == ("hung", "timeout")
    assert excinfo.value.more_failures == ()
    assert delivered == [("short", 0.5), ("slow", 0.7)]
    assert Path(logs["slow"]).read_text() == "started\n"  # exactly once
    assert metrics.counter("runner.timeouts") == 1
    assert metrics.counter("runner.attempts") == 3
    assert metrics.counter("runner.pool_restarts") == 1
    _assert_no_children()


def _count_then_fail_once(arg):
    sentinel, seconds = arg
    get_metrics().count("unit.work")
    time.sleep(seconds)
    if sentinel and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        raise RuntimeError("deliberate first-attempt failure")
    return seconds


def test_run_hardened_ships_no_metrics_from_a_failed_attempt(tmp_path):
    metrics = MetricsRegistry()
    results = run_hardened(
        _count_then_fail_once,
        [("flaky", "flaky", (str(tmp_path / "fired"), 0.0)), ("slow", "slow", ("", 0.5))],
        jobs=2,
        policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
        metrics=metrics,
    )
    assert results == {"flaky": 0.0, "slow": 0.5}
    # The retry lands on the flaky unit's own slot (the other is busy);
    # what the failed attempt recorded there is not merged with it.
    assert metrics.counter("unit.work") == 2
    assert metrics.counter("runner.failures") == 1
    _assert_no_children()


def _raise_timeout(value):
    raise TimeoutError(f"unit {value} gave up")


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_hardened_counts_a_units_own_timeout_error_as_an_error(jobs):
    metrics = MetricsRegistry()
    with pytest.raises(UnitExecutionError) as excinfo:
        run_hardened(
            _raise_timeout, [("a", "a", 1), ("b", "b", 2)], jobs=jobs, metrics=metrics
        )
    assert excinfo.value.kind == "error"
    assert isinstance(excinfo.value.cause, TimeoutError)
    assert metrics.counter("runner.failures") == 2
    assert metrics.counter("runner.timeouts") == 0
    assert metrics.counter("runner.pool_restarts") == 0
    _assert_no_children()
