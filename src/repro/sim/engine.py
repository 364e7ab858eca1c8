"""Vectorized batched simulator backend, pinned against the scalar engine.

The scalar engine (:meth:`repro.sim.gpu.GpuSimulator._run_scalar` driving
:class:`repro.sim.memctrl.MemoryController`) walks one
:class:`~repro.sim.request.MemRequest` object at a time through Python
method chains — readable, but the dominant self-time cost of every
performance figure now that the crypto fast path landed.  This module is
the ``vector`` backend of the same simulation: it **compiles** the per-SM
step streams into the event loop's input (step boundaries and per-SM
totals from per-step arrays; the request columns are the lowering's own,
passed without a copy), then advances the event loop in the cc-compiled
kernel of :mod:`repro.sim._native`, which decodes each request's channel,
bank, row, occupancies, path and counter-block runs from its address,
size and flags as it issues it, and sums the order-independent
per-channel statistics in the same pass.  The config goes in as a few
scalars, so a stream set costs the same to compile under every scheme,
and no per-request object or per-request array is built on this path.
The C source is the only array-level
implementation of the loop: when it cannot run (no C toolchain, or a
counter-cache state it cannot represent), :func:`_run_python` runs the
scalar engine instead and the run records ``sim.backend.scalar``.
The lowering (:mod:`repro.sim.workloads`) already emits its streams as
flat arrays (:class:`~repro.sim.sm.LoweredStreams`), so no request object
exists anywhere on this path; only hand-built
:class:`~repro.sim.sm.TileStep` lists are flattened object by object.
On the way out the kernel's counter-cache state stays in its dense
arrays: each cache gets its statistics and a loader
(:func:`_counter_state`) that rebuilds its sets and backing store on
first read, which a one-shot simulator never does.

Two design rules make the backend trustworthy:

* **Identical event order.**  The engine replays the scalar engine's
  discrete-event schedule exactly — SMs advance in ``(next-ready time,
  sm_id)`` order, jumping straight from one scheduled event to the next
  (idle cycles between events are never stepped), waves are chunked by the
  same MSHR cap, and every memory controller sees its request subsequence
  in the same order.
* **Identical arithmetic.**  Each timing update replicates the scalar
  float expressions operation for operation (the same divisions, the same
  ``max``/truncation points; the native kernel is built with FP contraction
  off), so cycle counts, utilizations, counter-cache statistics and per-SM
  occupancy come out **bit-identical**, not merely close.  The differential
  suite (``tests/sim/test_backend_equivalence.py``) asserts exactly that
  over the golden workloads and randomized configs.

Backend selection mirrors :mod:`repro.crypto.fastpath`: consumers take
``backend="scalar" | "vector" | None``; ``None`` defers to the
:data:`ENV_VAR` environment variable (``REPRO_SIM_BACKEND``) and finally to
:data:`DEFAULT_BACKEND` (``vector``).

>>> resolve_sim_backend("scalar")
'scalar'
"""

from __future__ import annotations

import functools
import os
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from ..crypto.counter_cache import _CacheLine
from .config import EncryptionMode, GpuConfig
from .memctrl import _COUNTER_BLOCK_BYTES, MemoryController
from .sm import LoweredStreams, SmState, SmStats, TileStep

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "resolve_sim_backend",
    "CompiledKernel",
    "compile_streams",
    "run_vector",
]

#: Environment variable overriding the default backend for consumers that
#: were not given an explicit ``backend=``.
ENV_VAR = "REPRO_SIM_BACKEND"

#: Recognised backend names, in (reference, fast path) order.
BACKENDS = ("scalar", "vector")

#: Backend used when neither ``backend=`` nor the environment selects one.
DEFAULT_BACKEND = "vector"


def resolve_sim_backend(backend: str | None = None) -> str:
    """Resolve a simulator-backend request to a concrete name.

    Precedence: explicit ``backend`` argument, then the :data:`ENV_VAR`
    environment variable, then :data:`DEFAULT_BACKEND`.
    """
    if backend is None:
        backend = os.environ.get(ENV_VAR, "").strip() or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown sim backend {backend!r}; choose from "
            f"{', '.join(BACKENDS)} (explicit backend= argument or the "
            f"{ENV_VAR} environment variable)"
        )
    return backend


# Engine mode codes the native kernel takes: an encrypted request under
# mode X takes path X; plaintext requests always bypass the engine, as in
# the scalar engine.
_BYPASS, _DIRECT, _COUNTER = 0, 1, 2

#: The per-channel statistics the native kernel sums as it issues
#: requests, in the order of its ``chan_stats`` rows.
_CHANNEL_STATS = (
    "read_requests",
    "write_requests",
    "data_bytes",
    "encrypted_bytes",
    "mac_bytes",
    "engine_lines",
    "counter_fetch_bytes",
)

_I64 = np.int64
_EMPTY_I64 = np.zeros(0, dtype=_I64)


class CompiledKernel:
    """Streams compiled to the event loop's input: the lowering's request
    columns plus the step skeleton.

    Built by :func:`compile_streams` with bulk NumPy over per-step arrays
    only.  The four request columns (``address``, ``size``, ``is_read``,
    ``encrypted``) are the lowering's own arrays, viewed without a copy
    (the flags as ``int8``); the native kernel decodes each request's
    channel, bank, row, occupancies, path and counter-block runs from
    them as it issues it.  Requests are indexed the way the scalar engine
    would issue them: each step's reads and writes occupy contiguous index
    ranges (``step_read/write_[start|end]``), steps occupy contiguous
    ranges per SM (``sm_step_[start|end]``), and MSHR waves are implicit —
    every ``cap`` consecutive requests of a range form one wave.  Per-SM
    instruction totals are reduced here; the per-channel request and byte
    statistics are summed by the kernel as it runs.  ``max_written_lines``
    (counter mode only) is the most data lines written on any one channel,
    which sizes the kernel's backing-store hash.
    """

    __slots__ = (
        # the lowering's request columns
        "address",
        "size",
        "is_read",
        "encrypted",
        # per-step / per-SM skeleton
        "step_cycles",
        "step_read_start",
        "step_read_end",
        "step_write_start",
        "step_write_end",
        "sm_step_start",
        "sm_step_end",
        "sm_stats",
        # shape / mode
        "num_requests",
        "mode_code",
        "auth",
        "cap",
        "max_written_lines",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)


def _flags(column: np.ndarray) -> np.ndarray:
    """A boolean request column as the kernel's ``int8`` (a view)."""
    return np.ascontiguousarray(column, dtype=bool).view(np.int8)


def compile_streams(
    config: GpuConfig, streams: LoweredStreams | Sequence[Sequence[TileStep]]
) -> CompiledKernel:
    """Compile lowered streams into the native kernel's input.

    The lowering already emits per-request and per-step arrays
    (:class:`~repro.sim.sm.LoweredStreams`); hand-built :class:`TileStep`
    lists are flattened first.  Only per-step and per-SM work happens
    here; the one request-sized pass left is, in counter mode, the count
    of written lines per channel over the encrypted writes.
    """
    lowered = LoweredStreams.from_steps(streams)
    encryption = config.encryption
    mode = encryption.mode
    if mode is EncryptionMode.DIRECT:
        mode_code = _DIRECT
    elif mode is EncryptionMode.COUNTER:
        mode_code = _COUNTER
    else:
        mode_code = _BYPASS

    # Step boundaries as flat request indices, from one cumulative sum
    # (reads span [rs, re), writes [re, we) — writes start where reads end).
    nr_a = lowered.step_reads
    nw_a = lowered.step_writes
    step_we_a = np.cumsum(nr_a + nw_a)
    step_rs_a = step_we_a - nr_a - nw_a
    step_re_a = step_rs_a + nr_a
    sm_end_a = np.cumsum(lowered.sm_steps)
    sm_start_a = sm_end_a - lowered.sm_steps

    # Per-SM totals.  Left-to-right sums over Python numbers reproduce the
    # scalar engine's per-step accumulation exactly.
    cycles_l = lowered.step_cycles.tolist()
    instructions_l = lowered.step_instructions.tolist()
    nr_l = nr_a.tolist()
    nw_l = nw_a.tolist()
    sm_stats = [
        SmStats(
            instructions=sum(instructions_l[start:end]),
            busy_cycles=sum(cycles_l[start:end]),
            steps=end - start,
            read_requests=sum(nr_l[start:end]),
            write_requests=sum(nw_l[start:end]),
        )
        for start, end in zip(sm_start_a.tolist(), sm_end_a.tolist())
    ]

    # Written data lines per channel: every counter-mode write bumps one
    # counter per line, and the busiest channel bounds the number of new
    # backing-store keys a run can insert.
    max_written_lines = 0
    if mode_code == _COUNTER:
        written = lowered.encrypted & ~lowered.is_read
        if written.any():
            address = lowered.address[written]
            line_bytes = config.line_bytes
            first_line = address // line_bytes
            lines = (address + lowered.size[written] - 1) // line_bytes - first_line + 1
            max_written_lines = int(
                np.bincount(
                    first_line % config.num_channels,
                    weights=lines,
                    minlength=config.num_channels,
                ).max()
            )

    return CompiledKernel(
        address=np.ascontiguousarray(lowered.address, dtype=_I64),
        size=np.ascontiguousarray(lowered.size, dtype=_I64),
        is_read=_flags(lowered.is_read),
        encrypted=_flags(lowered.encrypted),
        step_cycles=lowered.step_cycles.astype(np.float64),
        step_read_start=step_rs_a,
        step_read_end=step_re_a,
        step_write_start=step_re_a,
        step_write_end=step_we_a,
        sm_step_start=sm_start_a,
        sm_step_end=sm_end_a,
        sm_stats=sm_stats,
        num_requests=lowered.num_requests,
        mode_code=mode_code,
        auth=bool(encryption.authenticate and mode_code != _BYPASS),
        cap=max(1, config.max_outstanding_per_sm),
        max_written_lines=max_written_lines,
    )


def run_vector(
    config: GpuConfig,
    controllers: list[MemoryController],
    compiled: CompiledKernel,
) -> tuple[float, list[SmState]] | None:
    """Execute compiled streams in the native kernel; returns (finish,
    SM states), or ``None`` if the kernel cannot run them.

    Mutates ``controllers`` (server clocks, statistics, counter caches) the
    same way a scalar run would, so the caller's collection and tracing
    paths are backend-agnostic.  ``None`` means the kernel did not load or
    :func:`_run_native` rejected the counter-cache state; nothing has been
    mutated then, and the caller runs the scalar engine (:func:`_run_python`).
    """
    num_streams = len(compiled.sm_stats)
    if num_streams > config.num_sms:
        raise ValueError(f"{num_streams} streams for {config.num_sms} SMs")

    from . import _native

    native = _native.load()
    if native is None:
        return None
    outcome = _run_native(native, config, controllers, compiled)
    if outcome is None:
        return None
    finish, ready, cend, wdone, next_abs, channel_stats = outcome

    # Per-channel statistics the kernel summed, and post-run conditional
    # stat snapshots (the scalar engine refreshes the busy-cycle snapshots
    # after every access; net effect: updated iff the channel/engine was
    # touched at all).
    for mc, (reads, writes, data, encrypted, mac, lines, fetch) in zip(
        controllers, channel_stats
    ):
        stats = mc.stats
        stats.read_requests += reads
        stats.write_requests += writes
        stats.data_bytes += data
        stats.encrypted_bytes += encrypted
        stats.bypass_bytes += data - encrypted
        stats.mac_bytes += mac
        stats.counter_fetch_bytes += fetch
        if data or fetch:
            stats.dram_busy_cycles = mc._dram.busy
        engine = mc.engine
        if engine is not None:
            engine.lines_processed += lines
            engine.bytes_processed += encrypted
            if lines:
                stats.engine_busy_cycles = engine.busy_cycles

    sm_start = compiled.sm_step_start
    sms = []
    for sm_id, stats in enumerate(compiled.sm_stats):
        state = SmState(sm_id=sm_id, steps=[], stats=stats)
        state.next_step = int(next_abs[sm_id] - sm_start[sm_id])
        state.ready_time = float(ready[sm_id])
        state.compute_end = float(cend[sm_id])
        state.last_write_done = float(wdone[sm_id])
        sms.append(state)
    return finish, sms


# ----------------------------------------------------------------------
# Native kernel dispatch
# ----------------------------------------------------------------------

def _run_native(native, config, controllers, compiled):
    """Run the compiled arrays through the C kernel; None if ineligible.

    Eligibility is about representing the counter cache in dense arrays:
    line addresses must be aligned multiples of ``line_bytes`` within a
    block span that is a whole number of lines, and no functional
    re-encryption hook may be attached.  Anything else (including all
    non-counter modes) always qualifies.  The check never mutates state,
    so the caller can fall back to the scalar engine cleanly.

    State goes in and out differently.  The caches' sets and backing
    store are read into the dense arrays (a cache still deferred from an
    earlier run materialises here first; an :attr:`untouched
    <repro.crypto.counter_cache.CounterCache.untouched>` one is skipped,
    since the arrays start empty).  After the run, the timing state and
    the cache statistics are written back at once, but each cache's sets
    and backing store are handed over as a loader over the arrays
    (:meth:`CounterCache.defer_state
    <repro.crypto.counter_cache.CounterCache.defer_state>`).  The config
    goes in as scalars and the arrays as zero-copy ``ffi.from_buffer``
    views.  Returns the finish time, the per-SM timing arrays and, per
    channel, the statistics the kernel summed (:data:`_CHANNEL_STATS`).
    """
    ffi, lib = native
    channels = config.num_channels
    banks = config.banks_per_channel
    line_bytes = config.line_bytes
    encryption = config.encryption
    caches = [mc.counter_cache for mc in controllers]

    has_cache = compiled.mode_code == _COUNTER
    num_sets = assoc = lines_per_block = minor_limit = span = 1
    bcap = 2
    if has_cache:
        if any(cache is None or cache._on_reencrypt is not None for cache in caches):
            return None
        first = caches[0]
        span = first._block_span
        if span % line_bytes or span <= 0:
            return None
        if any(
            cache._block_span != span
            or cache._num_sets != first._num_sets
            or cache._minor_limit != first._minor_limit
            or cache.config.associativity != first.config.associativity
            for cache in caches
        ):
            return None
        num_sets = first._num_sets
        assoc = first.config.associativity
        minor_limit = first._minor_limit
        lines_per_block = span // line_bytes

        tags = np.full(channels * num_sets * assoc, -1, dtype=_I64)
        dirty = np.zeros(channels * num_sets * assoc, dtype=np.int8)
        order = np.zeros(channels * num_sets * assoc, dtype=_I64)
        setcount = np.zeros(channels * num_sets, dtype=_I64)
        present = np.zeros(channels * num_sets * assoc * lines_per_block, np.int8)
        values = np.zeros(channels * num_sets * assoc * lines_per_block, _I64)
        cache_stats = np.array(
            [
                (stats.hits, stats.misses, stats.evictions, stats.writebacks,
                 stats.reencryptions, stats.reencrypted_lines)
                for stats in (cache.stats for cache in caches)
            ],
            dtype=_I64,
        ).ravel()
        # Caches whose sets and backing store must be imported.
        loaded = [(c, cache) for c, cache in enumerate(caches) if not cache.untouched]
        imported = 0
        for c, cache in loaded:
            resident_counters = 0
            for set_index, cache_set in enumerate(cache._sets):
                if not cache_set:  # the arrays start empty
                    continue
                if len(cache_set) > assoc:
                    return None
                base = (c * num_sets + set_index) * assoc
                for j, (tag, line) in enumerate(cache_set.items()):
                    tags[base + j] = tag
                    dirty[base + j] = 1 if line.dirty else 0
                    order[base + j] = j
                    low = (tag * num_sets + set_index) * span
                    slot = (base + j) * lines_per_block
                    resident_counters += len(line.counters)
                    for addr, value in line.counters.items():
                        offset = addr - low
                        if offset < 0 or offset >= span or offset % line_bytes:
                            return None
                        present[slot + offset // line_bytes] = 1
                        values[slot + offset // line_bytes] = value
                setcount[c * num_sets + set_index] = len(cache_set)
            if any(key < 0 for key in cache._backing):
                return None
            # Resident line counters can reach the backing store through
            # later writebacks even if never written this run.
            imported = max(imported, len(cache._backing) + resident_counters)
        # Backing store: open-addressed hash, sized so it can absorb every
        # imported key plus every distinct written line address with at
        # most 50% load (insert count is bounded by those two sets).
        need = imported + compiled.max_written_lines + 16
        bcap = 1 << (2 * need - 1).bit_length()
        bkeys = np.full(channels * bcap, -1, dtype=_I64)
        bvals = np.zeros(channels * bcap, dtype=_I64)
        bused = np.zeros(channels, dtype=_I64)
        mask = bcap - 1
        for c, cache in loaded:
            base = c * bcap
            for key, value in cache._backing.items():
                h = (key * 0x9E3779B97F4A7C15) & mask
                while bkeys[base + h] != -1:
                    h = (h + 1) & mask
                bkeys[base + h] = key
                bvals[base + h] = value
            bused[c] = len(cache._backing)
    else:
        tags = _EMPTY_I64
        dirty = np.zeros(0, dtype=np.int8)
        order = setcount = values = _EMPTY_I64
        present = np.zeros(0, dtype=np.int8)
        bkeys = bvals = bused = cache_stats = _EMPTY_I64

    # Channel / engine timing state, lifted out of the controller objects.
    dram_nf = np.array([mc._dram.next_free for mc in controllers], np.float64)
    dram_busy = np.array([mc._dram.busy for mc in controllers], np.float64)
    last_row = np.full(channels * banks, -1, dtype=_I64)
    for c, mc in enumerate(controllers):
        for bank_id, row_id in mc._last_row.items():
            last_row[c * banks + bank_id] = row_id
    engines = [mc.engine for mc in controllers]
    eng_nf = np.array(
        [0.0 if e is None else e._next_free for e in engines], np.float64
    )
    eng_busy = np.array(
        [0.0 if e is None else e.busy_cycles for e in engines], np.float64
    )
    channel_stats = np.zeros(channels * len(_CHANNEL_STATS), dtype=_I64)

    num_streams = len(compiled.sm_step_start)
    ready = np.zeros(num_streams, np.float64)
    cend = np.zeros(num_streams, np.float64)
    wdone = np.zeros(num_streams, np.float64)
    next_abs = np.zeros(num_streams, dtype=_I64)

    # Zero-copy views; each keeps its array alive until the call returns.
    def f64(arr):
        return ffi.from_buffer("double[]", arr)

    def i64(arr):
        return ffi.from_buffer("long long[]", arr)

    def i8(arr):
        return ffi.from_buffer("signed char[]", arr)

    finish = lib.seal_run(
        num_streams,
        channels,
        banks,
        line_bytes,
        config.row_buffer_bytes,
        float(config.channel_bytes_per_cycle),
        float(config.engine_bytes_per_cycle),
        float(config.row_miss_penalty_cycles),
        float(config.dram_latency_cycles),
        float(encryption.engine.latency_cycles),
        float(encryption.mac_verify_cycles),
        _COUNTER_BLOCK_BYTES,
        compiled.mode_code,
        1 if compiled.auth else 0,
        encryption.mac_bytes,
        compiled.cap,
        i64(compiled.address),
        i64(compiled.size),
        i8(compiled.is_read),
        i8(compiled.encrypted),
        i64(compiled.sm_step_start),
        i64(compiled.sm_step_end),
        f64(compiled.step_cycles),
        i64(compiled.step_read_start),
        i64(compiled.step_read_end),
        i64(compiled.step_write_start),
        i64(compiled.step_write_end),
        f64(dram_nf),
        f64(dram_busy),
        i64(last_row),
        f64(eng_nf),
        f64(eng_busy),
        i64(channel_stats),
        num_sets,
        assoc,
        lines_per_block,
        minor_limit,
        span,
        i64(tags),
        i8(dirty),
        i64(order),
        i64(setcount),
        i8(present),
        i64(values),
        i64(bkeys),
        i64(bvals),
        bcap,
        i64(bused),
        i64(cache_stats),
        f64(ready),
        f64(cend),
        f64(wdone),
        i64(next_abs),
    )
    if finish < 0:
        raise MemoryError("native sim kernel failed to allocate scratch state")

    # Write the timing state back into the controller objects.
    for c, mc in enumerate(controllers):
        server = mc._dram
        server.next_free = float(dram_nf[c])
        server.busy = float(dram_busy[c])
        rows = last_row[c * banks : (c + 1) * banks]
        mc._last_row = {
            bank_id: int(row_id)
            for bank_id, row_id in enumerate(rows.tolist())
            if row_id >= 0
        }
        engine = engines[c]
        if engine is not None:
            engine._next_free = float(eng_nf[c])
            engine.busy_cycles = float(eng_busy[c])
    if has_cache:
        # Statistics now; sets and backing store on first read (most
        # simulators are dropped before anything reads them).
        geometry = (num_sets, assoc, lines_per_block, span, line_bytes, bcap)
        dense = (tags, dirty, order, setcount, present, values, bkeys, bvals)
        for c, cache in enumerate(caches):
            stats = cache.stats
            (
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.writebacks,
                stats.reencryptions,
                stats.reencrypted_lines,
            ) = cache_stats[c * 6 : c * 6 + 6].tolist()
            cache.defer_state(functools.partial(_counter_state, c, geometry, dense))

    return (
        float(finish),
        ready,
        cend,
        wdone,
        next_abs,
        channel_stats.reshape(channels, len(_CHANNEL_STATS)).tolist(),
    )


def _counter_state(c, geometry, dense):
    """Channel ``c``'s counter-cache state after a native run, rebuilt
    from the kernel's dense arrays as ``(sets, backing)`` in
    :class:`~repro.crypto.counter_cache.CounterCache`'s layout: the loader
    :func:`_run_native` hands each cache.

    One sweep over the channel's counter arrays turns the per-way counter
    slices into plain index ranges (``slot_bounds``) instead of thousands
    of tiny numpy slice/nonzero calls.
    """
    num_sets, assoc, lines_per_block, span, line_bytes, bcap = geometry
    tags, dirty, order, setcount, present, values, bkeys, bvals = dense
    ways = num_sets * assoc
    first, last = c * ways * lines_per_block, (c + 1) * ways * lines_per_block
    nz = np.nonzero(present[first:last])[0]
    nz_slot = nz // lines_per_block
    slot_bounds = np.searchsorted(nz_slot, np.arange(ways + 1)).tolist()
    nz_offsets = ((nz - nz_slot * lines_per_block) * line_bytes).tolist()
    nz_values = values[first:last][nz].tolist()
    tags_l = tags[c * ways : (c + 1) * ways].tolist()
    dirty_l = dirty[c * ways : (c + 1) * ways].tolist()
    order_l = order[c * ways : (c + 1) * ways].tolist()
    setcount_l = setcount[c * num_sets : (c + 1) * num_sets].tolist()
    sets = []
    for set_index in range(num_sets):
        cache_set: OrderedDict = OrderedDict()
        base = set_index * assoc
        for j in range(setcount_l[set_index]):
            slot = base + order_l[base + j]
            tag = tags_l[slot]
            line = _CacheLine(tag=tag, dirty=bool(dirty_l[slot]))
            lo_k, hi_k = slot_bounds[slot], slot_bounds[slot + 1]
            if hi_k > lo_k:
                low = (tag * num_sets + set_index) * span
                line.counters = {
                    low + nz_offsets[k]: nz_values[k] for k in range(lo_k, hi_k)
                }
            cache_set[tag] = line
        sets.append(cache_set)
    keys = bkeys[c * bcap : (c + 1) * bcap]
    occupied = np.nonzero(keys != -1)[0]
    backing = dict(
        zip(
            keys[occupied].tolist(),
            bvals[c * bcap : (c + 1) * bcap][occupied].tolist(),
        )
    )
    return sets, backing


# ----------------------------------------------------------------------
# Fallback
# ----------------------------------------------------------------------

def _run_python(simulator, streams, label=""):
    """Run a vector-requested kernel on the scalar engine instead.

    :meth:`GpuSimulator.run <repro.sim.gpu.GpuSimulator.run>` calls this,
    and only this, when the native kernel cannot run: :func:`_native.load
    <repro.sim._native.load>` returned ``None`` (no cffi, no compiler, or a
    failed build), or :func:`_run_native` rejected the counter-cache
    state.  ``streams`` is the :class:`TileStep` view of the same streams,
    so the result is the scalar engine's, bit for bit.  It stays a
    module-level name so a harness can count fallbacks by wrapping it:
    ``perfbench/probes.py`` does, and sim-fig7 fails any run that calls it.
    """
    return simulator._run_scalar(streams, label)
