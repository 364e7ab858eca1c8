"""Vectorized batched simulator backend, pinned against the scalar engine.

The scalar engine (:meth:`repro.sim.gpu.GpuSimulator._run_scalar` driving
:class:`repro.sim.memctrl.MemoryController`) walks one
:class:`~repro.sim.request.MemRequest` object at a time through Python
method chains — readable, but the dominant self-time cost of every
performance figure now that the crypto fast path landed.  This module is
the ``vector`` backend of the same simulation: it **compiles** the per-SM
step streams into flat structure-of-arrays primitives up front (NumPy bulk
math for the address decode, server occupancies, line/counter-block
geometry, and every order-independent statistic), then advances the event
loop over those arrays in the cc-compiled kernel of :mod:`repro.sim._native`,
with no per-request object traffic.  The C source is the only array-level
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


# Per-request path codes (an encrypted request under mode X takes path X;
# plaintext requests always take the bypass path, as in the scalar engine).
_BYPASS, _DIRECT, _COUNTER = 0, 1, 2

_I64 = np.int64
_EMPTY_I64 = np.zeros(0, dtype=_I64)


class CompiledKernel:
    """Streams compiled to the event loop's flat structure-of-arrays.

    Built by :func:`compile_streams` from the lowering's arrays with bulk
    NumPy only — no per-request Python object is created or visited.
    Requests are rows across parallel arrays, indexed the way the scalar
    engine would issue them: each step's reads and writes occupy contiguous
    index ranges (``step_read/write_[start|end]``), steps occupy contiguous
    ranges per SM (``sm_step_[start|end]``), and MSHR waves are implicit —
    every ``cap`` consecutive requests of a range form one wave.  Counter
    requests reference runs (one batched counter-cache lookup per covering
    counter block) in ``run_*``; write runs reference their per-line data
    addresses in ``run_addr``.  Statistics that cannot influence timing
    (request/byte counts per channel, engine line counts, per-SM
    instruction totals) are reduced once at compile time instead of being
    accumulated per request.
    """

    __slots__ = (
        # per-request arrays
        "path",
        "channel",
        "occ_dram",
        "bank",
        "row",
        "is_read",
        "occ_engine",
        "occ_mac",
        "tag_bank",
        "tag_row",
        "run_start",
        "run_count",
        # per-run arrays (counter mode)
        "run_block",
        "run_lines",
        "run_bank",
        "run_row",
        "run_channel",
        "run_write",
        "run_addr_start",
        "run_addr",
        # per-step / per-SM skeleton
        "step_cycles",
        "step_read_start",
        "step_read_end",
        "step_write_start",
        "step_write_end",
        "sm_step_start",
        "sm_step_end",
        "sm_stats",
        # order-independent statistics, per channel
        "read_requests",
        "write_requests",
        "data_bytes",
        "encrypted_bytes",
        "bypass_bytes",
        "mac_bytes",
        "engine_lines",
        "engine_bytes",
        # shape / mode
        "num_requests",
        "mode_code",
        "auth",
        "cap",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)


def compile_streams(
    config: GpuConfig, streams: LoweredStreams | Sequence[Sequence[TileStep]]
) -> CompiledKernel:
    """Compile lowered streams into the vector engine's flat arrays.

    The lowering already emits per-request and per-step arrays
    (:class:`~repro.sim.sm.LoweredStreams`), so compilation is bulk NumPy
    over them; hand-built :class:`TileStep` lists are flattened first.
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
    auth = bool(encryption.authenticate and mode_code != _BYPASS)
    cap = max(1, config.max_outstanding_per_sm)

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

    # Pass 2: bulk array math over every request at once.
    channels = config.num_channels
    line_bytes = config.line_bytes
    row_bytes = config.row_buffer_bytes
    banks = config.banks_per_channel
    dram_rate = config.channel_bytes_per_cycle
    n = lowered.num_requests
    address = lowered.address
    sizes = lowered.size
    enc_a = lowered.encrypted
    read_a = lowered.is_read
    channel = (address // line_bytes) % channels
    bank = (address // row_bytes) % banks
    row = address // (row_bytes * banks)
    occ_dram = sizes / dram_rate
    path = (
        np.where(enc_a, mode_code, 0).astype(_I64)
        if mode_code
        else np.zeros(n, dtype=_I64)
    )
    first_line = address // line_bytes
    last_line = (address + sizes - 1) // line_bytes
    nlines = last_line - first_line + 1
    occ_engine = (
        sizes / config.engine_bytes_per_cycle
        if encryption.enabled
        else np.zeros(n)
    )
    if auth:
        mac_size = nlines * encryption.mac_bytes
        tag_addr = address ^ (1 << 40)
        tag_bank = (tag_addr // row_bytes) % banks
        tag_row = tag_addr // (row_bytes * banks)
        occ_mac = mac_size / dram_rate
    else:
        mac_size = np.zeros(n, dtype=_I64)
        tag_bank = np.zeros(n, dtype=_I64)
        tag_row = np.zeros(n, dtype=_I64)
        occ_mac = np.zeros(n)

    # Counter-block runs: group each counter request's consecutive cache
    # lines by covering counter block.  The scalar engine looks the cache
    # up once per line; within one block only the *first* of those
    # consecutive lookups can miss (the block is resident afterwards and
    # nothing intervenes), so the native kernel performs one batched
    # lookup per run with identical statistics and LRU state.  All ragged
    # structure is built with cumsum/repeat idioms; no per-request Python.
    run_start = np.zeros(n, dtype=_I64)
    run_count = np.zeros(n, dtype=_I64)
    run_block = run_lines = run_bank = run_row = _EMPTY_I64
    run_channel = run_addr_start = run_addr = _EMPTY_I64
    run_write = np.zeros(0, dtype=bool)
    if mode_code == _COUNTER and n:
        span = encryption.counter_cache.data_bytes_per_counter_block
        enc_idx = np.nonzero(enc_a)[0]
        first_block = (first_line[enc_idx] * line_bytes) // span
        last_block = (last_line[enc_idx] * line_bytes) // span
        nruns = last_block - first_block + 1
        starts = np.cumsum(nruns) - nruns
        run_count[enc_idx] = nruns
        run_start[enc_idx] = starts
        total = int(nruns.sum())
        owner = np.repeat(enc_idx, nruns)
        offsets = np.arange(total, dtype=_I64) - np.repeat(starts, nruns)
        run_block = np.repeat(first_block, nruns) + offsets
        # First/last data line of each run: the request's own span clipped
        # to the block (ceil/floor divisions, all operands non-negative).
        lo = np.maximum(
            first_line[owner],
            (run_block * span + line_bytes - 1) // line_bytes,
        )
        hi = np.minimum(
            last_line[owner], ((run_block + 1) * span - 1) // line_bytes
        )
        run_lines = hi - lo + 1
        first_addr = lo * line_bytes
        run_bank = (first_addr // row_bytes) % banks
        run_row = first_addr // (row_bytes * banks)
        run_channel = channel[owner]
        run_write = ~read_a[owner]
        addr_counts = np.where(run_write, run_lines, 0)
        run_addr_start = np.cumsum(addr_counts) - addr_counts
        write_lines = run_lines[run_write]
        addr_total = int(write_lines.sum())
        write_starts = np.cumsum(write_lines) - write_lines
        addr_offsets = np.arange(addr_total, dtype=_I64) - np.repeat(
            write_starts, write_lines
        )
        run_addr = (np.repeat(lo[run_write], write_lines) + addr_offsets) * line_bytes

    # Order-independent per-channel statistics, reduced once.  bincount
    # accumulates in float64, exact for byte totals far below 2**53.
    def _by_channel(mask, weights=None):
        if not n:
            return [0] * channels
        chan = channel[mask] if mask is not None else channel
        if weights is None:
            return np.bincount(chan, minlength=channels).tolist()
        w = weights[mask] if mask is not None else weights
        return (
            np.bincount(chan, weights=w, minlength=channels)
            .astype(_I64)
            .tolist()
        )

    enc_mask = path > 0
    data_bytes = _by_channel(None, sizes)
    encrypted_bytes = _by_channel(enc_mask, sizes)

    return CompiledKernel(
        path=path.astype(np.int8),
        channel=channel,
        occ_dram=occ_dram,
        bank=bank,
        row=row,
        is_read=read_a.astype(np.int8),
        occ_engine=occ_engine,
        occ_mac=occ_mac,
        tag_bank=tag_bank,
        tag_row=tag_row,
        run_start=run_start,
        run_count=run_count,
        run_block=run_block,
        run_lines=run_lines,
        run_bank=run_bank,
        run_row=run_row,
        run_channel=run_channel,
        run_write=run_write,
        run_addr_start=run_addr_start,
        run_addr=run_addr,
        step_cycles=lowered.step_cycles.astype(np.float64),
        step_read_start=step_rs_a,
        step_read_end=step_re_a,
        step_write_start=step_re_a,
        step_write_end=step_we_a,
        sm_step_start=sm_start_a,
        sm_step_end=sm_end_a,
        sm_stats=sm_stats,
        read_requests=_by_channel(read_a),
        write_requests=_by_channel(~read_a),
        data_bytes=data_bytes,
        encrypted_bytes=encrypted_bytes,
        bypass_bytes=[d - e for d, e in zip(data_bytes, encrypted_bytes)],
        mac_bytes=_by_channel(enc_mask, mac_size) if auth else [0] * channels,
        engine_lines=_by_channel(enc_mask),
        engine_bytes=encrypted_bytes,
        num_requests=n,
        mode_code=mode_code,
        auth=auth,
        cap=cap,
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
    finish, ready, cend, wdone, next_abs, counter_fetch = outcome

    # Static statistics and post-run conditional stat snapshots (the
    # scalar engine refreshes the busy-cycle snapshots after every access;
    # net effect: updated iff the channel/engine was touched at all).
    for c, mc in enumerate(controllers):
        stats = mc.stats
        stats.read_requests += compiled.read_requests[c]
        stats.write_requests += compiled.write_requests[c]
        stats.data_bytes += compiled.data_bytes[c]
        stats.encrypted_bytes += compiled.encrypted_bytes[c]
        stats.bypass_bytes += compiled.bypass_bytes[c]
        stats.mac_bytes += compiled.mac_bytes[c]
        stats.counter_fetch_bytes += counter_fetch[c]
        if compiled.data_bytes[c] or counter_fetch[c]:
            stats.dram_busy_cycles = mc._dram.busy
        engine = mc.engine
        if engine is not None:
            engine.lines_processed += compiled.engine_lines[c]
            engine.bytes_processed += compiled.engine_bytes[c]
            if compiled.engine_lines[c]:
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
    earlier run materialises here first).  After the run, the timing state
    and the cache statistics are written back at once, but each cache's
    sets and backing store are handed over as a loader over the arrays
    (:meth:`CounterCache.defer_state
    <repro.crypto.counter_cache.CounterCache.defer_state>`).  The array
    arguments are passed as zero-copy ``ffi.from_buffer`` views.
    """
    ffi, lib = native
    channels = config.num_channels
    banks = config.banks_per_channel
    line_bytes = config.line_bytes
    encryption = config.encryption
    caches = [mc.counter_cache for mc in controllers]

    has_cache = compiled.mode_code == _COUNTER
    num_sets = assoc = lines_per_block = minor_limit = span = 1
    tags = dirty = order = setcount = present = values = None
    bkeys = bvals = bused = cache_stats = None
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
        cache_stats = np.zeros(channels * 6, dtype=_I64)
        imported = 0
        for c, cache in enumerate(caches):
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
            stats = cache.stats
            cache_stats[c * 6 : c * 6 + 6] = (
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.writebacks,
                stats.reencryptions,
                stats.reencrypted_lines,
            )
        # Backing store: open-addressed hash, sized so it can absorb every
        # imported key plus every distinct written line address with at
        # most 50% load (insert count is bounded by those two sets).
        max_addrs = 0
        if compiled.run_addr.size:
            max_addrs = int(
                np.bincount(
                    compiled.run_channel[compiled.run_write],
                    weights=compiled.run_lines[compiled.run_write],
                    minlength=channels,
                ).max()
            )
        need = imported + max_addrs + 16
        bcap = 1 << (2 * need - 1).bit_length()
        bkeys = np.full(channels * bcap, -1, dtype=_I64)
        bvals = np.zeros(channels * bcap, dtype=_I64)
        bused = np.zeros(channels, dtype=_I64)
        mask = bcap - 1
        for c, cache in enumerate(caches):
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
    counter_fetch = np.zeros(channels, dtype=_I64)

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
        float(config.row_miss_penalty_cycles),
        float(config.dram_latency_cycles),
        float(encryption.engine.latency_cycles),
        float(encryption.mac_verify_cycles),
        _COUNTER_BLOCK_BYTES / config.channel_bytes_per_cycle,
        _COUNTER_BLOCK_BYTES,
        1 if compiled.auth else 0,
        compiled.cap,
        i8(compiled.path),
        i64(compiled.channel),
        f64(compiled.occ_dram),
        i64(compiled.bank),
        i64(compiled.row),
        i8(compiled.is_read),
        f64(compiled.occ_engine),
        f64(compiled.occ_mac),
        i64(compiled.tag_bank),
        i64(compiled.tag_row),
        i64(compiled.run_start),
        i64(compiled.run_count),
        i64(compiled.run_block),
        i64(compiled.run_lines),
        i64(compiled.run_bank),
        i64(compiled.run_row),
        i64(compiled.run_addr_start),
        i64(compiled.run_addr),
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
        i64(counter_fetch),
        1 if has_cache else 0,
        num_sets,
        assoc,
        lines_per_block,
        minor_limit,
        span,
        line_bytes,
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
        counter_fetch.tolist(),
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
