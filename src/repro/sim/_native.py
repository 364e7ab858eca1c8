"""Native (cc-compiled) kernel for the vector simulator backend.

The vector backend's event loop is a few dozen primitive float/int
operations per memory request; at that granularity the CPython interpreter
itself is the bottleneck.  This module carries a single-file C
implementation of the loop — the only array-level implementation, a
replay of the scalar engine (:meth:`repro.sim.gpu.GpuSimulator._run_scalar`
and :class:`repro.sim.memctrl.MemoryController`) over the step skeleton
produced by ``compile_streams`` — and compiles it on demand with the
system C compiler via :mod:`cffi`'s ABI mode.

``seal_run`` reads each request's address, size, direction and
criticality from the lowering's own columns and decodes the rest as it
issues it, with the scalar engine's expressions: the channel
(``GpuSimulator._route``), the bank and row of each DRAM access, the
servers' occupancies, the path (an encrypted request takes the
controller's mode, any other bypasses), the MAC address and size, and in
counter mode one batched cache lookup per covering counter block, walked
from first to last.  The config arrives as scalars (mode, line and row
geometry, rates, latencies).  The order-independent per-channel
statistics are summed in the same pass into one ``chan_stats`` array.

Determinism and exactness:

* All timestamps are IEEE-754 doubles and every arithmetic step mirrors
  the scalar engine's Python expressions one for one (same additions,
  same ``max`` comparisons, same truncation points).  x86-64 C doubles
  use SSE2 and the build passes ``-ffp-contract=off``, so no
  fused-multiply-add or extended precision can creep in: the C kernel
  and the scalar engine produce bit-identical cycle counts.
* Integer math (addresses, counter values, set indices) is ``int64_t``
  with non-negative operands, where C ``/``/``%`` agree with Python
  ``//``/``%`` (and a division by a power of two with a right shift).

Availability is best-effort: no compiler, no cffi, or a failed build
simply leaves :func:`load` returning ``None``, and a vector-requested run
uses the scalar engine instead (identical results, slower; recorded as
``sim.backend.scalar``).  The compiled library is cached by source hash
under ``$REPRO_SIMKERNEL_CACHE`` (default: a ``repro-simkernel`` directory
in the system temp dir).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

__all__ = ["load", "SIGNATURE"]

#: Env var overriding where compiled kernels are cached.
ENV_CACHE = "REPRO_SIMKERNEL_CACHE"

SIGNATURE = """
double seal_run(
    long long n_sms, long long n_channels, long long n_banks,
    long long line_bytes, long long row_bytes, double dram_rate,
    double eng_rate, double penalty, double dram_latency,
    double eng_latency, double verify, long long counter_block_bytes,
    long long mode, long long auth, long long mac_bytes, long long cap,
    const long long *address, const long long *size,
    const signed char *is_read, const signed char *encrypted,
    const long long *sm_step_start, const long long *sm_step_end,
    const double *step_cc,
    const long long *step_read_start, const long long *step_read_end,
    const long long *step_write_start, const long long *step_write_end,
    double *dram_nf, double *dram_busy, long long *last_row,
    double *eng_nf, double *eng_busy, long long *chan_stats,
    long long num_sets, long long assoc, long long lpb,
    long long minor_limit, long long span,
    long long *tags, signed char *dirty, long long *order,
    long long *setcount, signed char *present, long long *vals,
    long long *bkeys, long long *bvals, long long bcap, long long *bused,
    long long *cache_stats,
    double *ready, double *cend, double *wdone, long long *next_step
);
"""

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One channel's counter cache: set-associative LRU, exact model of
 * repro.crypto.counter_cache.CounterCache (per-line access path).  Ways are
 * fixed slots; `order` holds the LRU->MRU permutation per set.  Line
 * counters live in a dense [assoc][lines_per_block] array (line
 * addresses are aligned multiples of line_bytes, validated on import);
 * the DRAM backing store is an open-addressed int64 hash map. */
typedef struct {
    int64_t num_sets, assoc, lpb, minor_limit, span, line_bytes;
    int64_t *tags;      /* [num_sets*assoc], way-indexed */
    int8_t  *dirty;     /* [num_sets*assoc] */
    int64_t *order;     /* [num_sets*assoc]: first setcount entries valid */
    int64_t *setcount;  /* [num_sets] */
    int8_t  *present;   /* [num_sets*assoc*lpb] */
    int64_t *vals;      /* [num_sets*assoc*lpb] */
    int64_t *bkeys;     /* [bcap], -1 = empty */
    int64_t *bvals;     /* [bcap] */
    int64_t bcap;       /* power of two */
    int64_t bused;
    int64_t *stats;     /* hits, misses, evictions, writebacks,
                           reencryptions, reencrypted_lines */
    int8_t  *scratch;   /* [lpb] re-encryption tracking mask */
} Cache;

static int backing_find(const Cache *ca, int64_t key, int64_t *val) {
    uint64_t mask = (uint64_t)ca->bcap - 1;
    uint64_t h = ((uint64_t)key * 0x9E3779B97F4A7C15ULL) & mask;
    for (;;) {
        int64_t k = ca->bkeys[h];
        if (k == key) { *val = ca->bvals[h]; return 1; }
        if (k == -1) return 0;
        h = (h + 1) & mask;
    }
}

static void backing_put(Cache *ca, int64_t key, int64_t val) {
    uint64_t mask = (uint64_t)ca->bcap - 1;
    uint64_t h = ((uint64_t)key * 0x9E3779B97F4A7C15ULL) & mask;
    for (;;) {
        int64_t k = ca->bkeys[h];
        if (k == key) { ca->bvals[h] = val; return; }
        if (k == -1) {
            ca->bkeys[h] = key;
            ca->bvals[h] = val;
            ca->bused += 1;
            return;
        }
        h = (h + 1) & mask;
    }
}

/* CounterCache._reencrypt_block: every tracked line of the block jumps
 * to a fresh epoch base strictly above all current counters. */
static int64_t cache_reencrypt(Cache *ca, int64_t block, int64_t set,
                               int64_t way) {
    int64_t slot = set * ca->assoc + way;
    int64_t *v = ca->vals + slot * ca->lpb;
    int8_t *pr = ca->present + slot * ca->lpb;
    int64_t base_addr = block * ca->span;
    int64_t top = 0, tracked = 0;
    for (int64_t i = 0; i < ca->lpb; i++) {
        int64_t val;
        int have = 0;
        if (pr[i]) { val = v[i]; have = 1; }
        else if (backing_find(ca, base_addr + i * ca->line_bytes, &val)) have = 1;
        ca->scratch[i] = (int8_t)have;
        if (have) {
            tracked += 1;
            if (val > top) top = val;
        }
    }
    int64_t base = (top / ca->minor_limit + 1) * ca->minor_limit;
    for (int64_t i = 0; i < ca->lpb; i++) {
        if (ca->scratch[i]) { v[i] = base; pr[i] = 1; }
    }
    ca->dirty[slot] = 1;
    ca->stats[4] += 1;
    ca->stats[5] += tracked;
    return base;
}

/* `nlines` consecutive CounterCache.access calls inside one counter
 * block, for the lines from data address `first` on, as one batched
 * lookup: only the first can miss (the block is resident afterwards), so
 * statistics, LRU order and counters match the per-line sequence.  A
 * write run bumps each line's counter.  Returns whether the first access
 * hit. */
static int cache_access_run(Cache *ca, int64_t block, int64_t nlines,
                            int64_t first, int write) {
    int64_t set = block % ca->num_sets;
    int64_t tag = block / ca->num_sets;
    int64_t *order = ca->order + set * ca->assoc;
    int64_t *tags = ca->tags + set * ca->assoc;
    int8_t *dirty = ca->dirty + set * ca->assoc;
    int64_t cnt = ca->setcount[set];
    int64_t w = -1, pos = -1;
    for (int64_t j = 0; j < cnt; j++) {
        if (tags[order[j]] == tag) { pos = j; w = order[j]; break; }
    }
    int hit;
    if (pos >= 0) {
        memmove(order + pos, order + pos + 1,
                (size_t)(cnt - pos - 1) * sizeof(int64_t));
        order[cnt - 1] = w;
        ca->stats[0] += nlines;
        hit = 1;
    } else {
        ca->stats[1] += 1;
        ca->stats[0] += nlines - 1;
        if (cnt >= ca->assoc) {
            w = order[0];
            memmove(order, order + 1, (size_t)(cnt - 1) * sizeof(int64_t));
            cnt -= 1;
            ca->stats[2] += 1;
            if (dirty[w]) {
                ca->stats[3] += 1;
                int64_t evicted = tags[w] * ca->num_sets + set;
                int64_t base_addr = evicted * ca->span;
                int64_t slot = set * ca->assoc + w;
                int64_t *v = ca->vals + slot * ca->lpb;
                int8_t *pr = ca->present + slot * ca->lpb;
                for (int64_t i = 0; i < ca->lpb; i++) {
                    if (pr[i])
                        backing_put(ca, base_addr + i * ca->line_bytes, v[i]);
                }
            }
        } else {
            w = cnt;
        }
        tags[w] = tag;
        dirty[w] = 0;
        memset(ca->present + (set * ca->assoc + w) * ca->lpb, 0,
               (size_t)ca->lpb);
        order[cnt] = w;
        ca->setcount[set] = cnt + 1;
        hit = 0;
    }
    if (write) {
        int64_t slot = set * ca->assoc + w;
        int64_t *v = ca->vals + slot * ca->lpb;
        int8_t *pr = ca->present + slot * ca->lpb;
        int64_t idx = (first - block * ca->span) / ca->line_bytes;
        for (int64_t k = 0; k < nlines; k++, idx++) {
            int64_t value;
            if (pr[idx]) value = v[idx];
            else if (!backing_find(ca, first + k * ca->line_bytes, &value))
                value = 0;
            value += 1;
            if (value % ca->minor_limit == 0)
                value = cache_reencrypt(ca, block, set, w) + 1;
            v[idx] = value;
            pr[idx] = 1;
        }
        dirty[w] = 1;
    }
    return hit;
}

enum { READS, WRITES, DATA, ENCRYPTED, MAC, ENGINE_LINES, COUNTER_FETCH,
       N_STATS };

/* A positive divisor of the address decode, kept with its log2 when it is
 * a power of two: x / d is then a shift (equal for x >= 0), which spares
 * the per-request integer divisions at the default geometry. */
typedef struct { int64_t d, shift; } Divisor;

static Divisor divisor(int64_t d) {
    Divisor v = {d, -1};
    if (!(d & (d - 1)))
        for (v.shift = 0; ((int64_t)1 << v.shift) < d; v.shift++) {}
    return v;
}

static inline int64_t quot(Divisor v, int64_t x) {
    return v.shift >= 0 ? x >> v.shift : x / v.d;
}

typedef struct {
    const int64_t *address, *size;
    const int8_t *is_read, *encrypted;
    int64_t n_channels;
    Divisor line, row, banks; /* line_bytes, row_bytes, banks per channel */
    int64_t counter_block_bytes, mode, auth, mac_bytes, cap;
    double dram_rate, eng_rate, penalty, dram_latency, eng_latency, verify;
    double block_occ; /* one counter-block fetch on the DRAM server */
    double *dram_nf, *dram_busy, *eng_nf, *eng_busy;
    int64_t *last_row, *chan_stats;
    Cache *caches; /* NULL outside counter mode */
} Ctx;

/* MemoryController._dram_access: the row-buffer check of the bank and
 * row holding `addr`, then the channel's DRAM rate server. */
static double dram_access(Ctx *cx, int64_t c, double arrival, int64_t addr,
                          double occ) {
    int64_t *lr = cx->last_row + c * cx->banks.d;
    int64_t q = quot(cx->row, addr);   /* floor(floor(a/r)/b) = a/(r*b) */
    int64_t row = quot(cx->banks, q);
    int64_t bank = q - row * cx->banks.d;
    if (lr[bank] != row) {
        lr[bank] = row;
        arrival = arrival + cx->penalty;
    }
    double nf = cx->dram_nf[c];
    double start = arrival > nf ? arrival : nf;
    nf = start + occ;
    cx->dram_nf[c] = nf;
    cx->dram_busy[c] += occ;
    return nf + cx->dram_latency;
}

/* AesEngineModel.service, from an arrival already truncated to a cycle. */
static double engine_service(Ctx *cx, int64_t c, double arrival, double occ) {
    double nf = cx->eng_nf[c];
    double start = arrival > nf ? arrival : nf;
    nf = start + occ;
    cx->eng_nf[c] = nf;
    cx->eng_busy[c] += occ;
    return (double)(int64_t)(nf + cx->eng_latency);
}

/* MemoryController.submit's encrypted path for one request on channel
 * `c`, arriving at `T`: the engine and DRAM work of the controller's
 * mode, then the MAC traffic; returns its completion time.  In counter
 * mode the request's lines are looked up with one batched cache access
 * per covering counter block. */
static double submit_encrypted(Ctx *cx, int64_t c, double T, int64_t addr,
                               int64_t size, int rd, int64_t *st) {
    int64_t lb = cx->line.d;
    int64_t first = quot(cx->line, addr), last = quot(cx->line, addr + size - 1);
    double occ_d = (double)size / cx->dram_rate;
    double occ_e = (double)size / cx->eng_rate;
    double completion;
    st[ENCRYPTED] += size;
    st[ENGINE_LINES] += 1;
    if (cx->mode == 2) { /* counter mode */
        Cache *ca = cx->caches + c;
        int64_t lpb = ca->lpb; /* a block spans lpb whole lines */
        int64_t last_block = last / lpb;
        double avail = T;
        for (int64_t b = first / lpb; b <= last_block; b++) {
            /* The request's lines inside block b. */
            int64_t lo = b * lpb, hi = lo + lpb - 1;
            if (lo < first) lo = first;
            if (hi > last) hi = last;
            if (!cache_access_run(ca, b, hi - lo + 1, lo * lb, !rd)) {
                double fetched = dram_access(cx, c, T, lo * lb, cx->block_occ);
                st[COUNTER_FETCH] += cx->counter_block_bytes;
                if (fetched > avail) avail = fetched;
            }
        }
        double pad = engine_service(cx, c, (double)(int64_t)avail, occ_e);
        double data_done = dram_access(cx, c, rd ? T : pad, addr, occ_d);
        if (rd)
            completion = (data_done > pad ? data_done : pad) + 1.0;
        else
            completion = data_done;
    } else if (rd) { /* direct mode: fetch, then decrypt */
        double data_done = dram_access(cx, c, T, addr, occ_d);
        completion = engine_service(cx, c, (double)(int64_t)data_done, occ_e);
    } else { /* direct mode: encrypt, then write */
        double cipher = engine_service(cx, c, (double)(int64_t)T, occ_e);
        completion = dram_access(cx, c, cipher, addr, occ_d);
    }
    if (cx->auth) { /* per-line MAC traffic + verification */
        int64_t mac = (last - first + 1) * cx->mac_bytes;
        st[MAC] += mac;
        double tag_done = dram_access(cx, c, rd ? T : completion,
                                      addr ^ ((int64_t)1 << 40),
                                      (double)mac / cx->dram_rate);
        if (rd)
            completion = (completion > tag_done ? completion : tag_done)
                         + cx->verify;
        else
            completion = tag_done;
    }
    return completion;
}

/* GpuSimulator._issue + MemoryController.submit over one contiguous
 * request range [rs, re): wave-chunked by the MSHR cap, every float
 * expression in scalar-engine order.  Each request is decoded here from
 * its address, size and flags: its channel (GpuSimulator._route), its
 * path (an encrypted request takes the controller's mode, any other
 * bypasses) and the per-channel statistics. */
static double issue_range(Ctx *cx, int64_t rs, int64_t re, double when) {
    double done = when;
    for (int64_t off = rs; off < re; off += cx->cap) {
        double T = (off == rs) ? when : done;
        int64_t hi = off + cx->cap < re ? off + cx->cap : re;
        double wave_done = T;
        for (int64_t i = off; i < hi; i++) {
            int64_t addr = cx->address[i], size = cx->size[i];
            int rd = cx->is_read[i];
            int64_t c = quot(cx->line, addr) % cx->n_channels;
            int64_t *st = cx->chan_stats + c * N_STATS;
            double completion;
            st[rd ? READS : WRITES] += 1;
            st[DATA] += size;
            if (cx->encrypted[i] && cx->mode)
                completion = submit_encrypted(cx, c, T, addr, size, rd, st);
            else /* bypass: DRAM only */
                completion = dram_access(cx, c, T, addr,
                                         (double)size / cx->dram_rate);
            if (completion > wave_done) wave_done = completion;
        }
        done = wave_done;
    }
    return done;
}

double seal_run(
    int64_t n_sms, int64_t n_channels, int64_t n_banks,
    int64_t line_bytes, int64_t row_bytes, double dram_rate,
    double eng_rate, double penalty, double dram_latency,
    double eng_latency, double verify, int64_t counter_block_bytes,
    int64_t mode, int64_t auth, int64_t mac_bytes, int64_t cap,
    const int64_t *address, const int64_t *size,
    const int8_t *is_read, const int8_t *encrypted,
    const int64_t *sm_step_start, const int64_t *sm_step_end,
    const double *step_cc,
    const int64_t *step_read_start, const int64_t *step_read_end,
    const int64_t *step_write_start, const int64_t *step_write_end,
    double *dram_nf, double *dram_busy, int64_t *last_row,
    double *eng_nf, double *eng_busy, int64_t *chan_stats,
    int64_t num_sets, int64_t assoc, int64_t lpb,
    int64_t minor_limit, int64_t span,
    int64_t *tags, int8_t *dirty, int64_t *order,
    int64_t *setcount, int8_t *present, int64_t *vals,
    int64_t *bkeys, int64_t *bvals, int64_t bcap, int64_t *bused,
    int64_t *cache_stats,
    double *ready, double *cend, double *wdone, int64_t *next_step)
{
    Cache *caches = NULL;
    int8_t *scratch = NULL;
    if (mode == 2) {
        caches = (Cache *)malloc((size_t)n_channels * sizeof(Cache));
        scratch = (int8_t *)malloc((size_t)lpb);
        if (!caches || !scratch) { free(caches); free(scratch); return -1.0; }
        for (int64_t c = 0; c < n_channels; c++) {
            Cache *ca = caches + c;
            ca->num_sets = num_sets;
            ca->assoc = assoc;
            ca->lpb = lpb;
            ca->minor_limit = minor_limit;
            ca->span = span;
            ca->line_bytes = line_bytes;
            ca->tags = tags + c * num_sets * assoc;
            ca->dirty = dirty + c * num_sets * assoc;
            ca->order = order + c * num_sets * assoc;
            ca->setcount = setcount + c * num_sets;
            ca->present = present + c * num_sets * assoc * lpb;
            ca->vals = vals + c * num_sets * assoc * lpb;
            ca->bkeys = bkeys + c * bcap;
            ca->bvals = bvals + c * bcap;
            ca->bcap = bcap;
            ca->bused = bused[c];
            ca->stats = cache_stats + c * 6;
            ca->scratch = scratch;
        }
    }
    Ctx cx = {
        address, size, is_read, encrypted,
        n_channels, divisor(line_bytes), divisor(row_bytes), divisor(n_banks),
        counter_block_bytes, mode, auth, mac_bytes, cap,
        dram_rate, eng_rate, penalty, dram_latency, eng_latency, verify,
        (double)counter_block_bytes / dram_rate,
        dram_nf, dram_busy, eng_nf, eng_busy,
        last_row, chan_stats, caches,
    };
    int8_t *active = (int8_t *)calloc((size_t)n_sms, 1);
    if (!active) { free(caches); free(scratch); return -1.0; }

    for (int64_t s = 0; s < n_sms; s++) {
        ready[s] = 0.0;
        cend[s] = 0.0;
        wdone[s] = 0.0;
        next_step[s] = sm_step_start[s];
        if (sm_step_start[s] < sm_step_end[s]) {
            int64_t st = sm_step_start[s];
            ready[s] = issue_range(&cx, step_read_start[st],
                                   step_read_end[st], 0.0);
            active[s] = 1;
        }
    }
    double finish = 0.0;
    for (;;) {
        /* heap pop: min (next event time, sm id); each SM holds at most
         * one pending event, so a linear scan is the same order. */
        int64_t best = -1;
        double bt = 0.0;
        for (int64_t s = 0; s < n_sms; s++) {
            if (!active[s]) continue;
            double t = ready[s] > cend[s] ? ready[s] : cend[s];
            if (best < 0 || t < bt) { best = s; bt = t; }
        }
        if (best < 0) break;
        int64_t st = next_step[best];
        double start = bt;
        double end = start + step_cc[st];
        if (step_write_start[st] < step_write_end[st]) {
            double wd = issue_range(&cx, step_write_start[st],
                                    step_write_end[st], end);
            if (wd > wdone[best]) wdone[best] = wd;
        }
        cend[best] = end;
        next_step[best] += 1;
        if (next_step[best] < sm_step_end[best]) {
            int64_t ns = next_step[best];
            ready[best] = issue_range(&cx, step_read_start[ns],
                                      step_read_end[ns], start);
        } else {
            active[best] = 0;
            if (end > finish) finish = end;
            if (wdone[best] > finish) finish = wdone[best];
        }
    }
    for (int64_t s = 0; s < n_sms; s++) {
        if (cend[s] > finish) finish = cend[s];
        if (wdone[s] > finish) finish = wdone[s];
    }
    if (caches) {
        for (int64_t c = 0; c < n_channels; c++) bused[c] = caches[c].bused;
    }
    free(active);
    free(caches);
    free(scratch);
    return finish;
}
"""

_lock = threading.Lock()
_cached = None
_attempted = False


def _compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _build(cc: str, cache_dir: Path, digest: str) -> Path:
    library = cache_dir / f"simkernel-{digest}.so"
    if library.exists():
        return library
    cache_dir.mkdir(parents=True, exist_ok=True)
    source = cache_dir / f"simkernel-{digest}.c"
    source.write_text(_SOURCE)
    scratch = cache_dir / f"simkernel-{digest}.{os.getpid()}.tmp.so"
    subprocess.run(
        [
            cc,
            "-O2",
            "-fPIC",
            "-shared",
            # No FMA contraction / extended precision: the kernel must be
            # bit-identical to the scalar engine.
            "-ffp-contract=off",
            "-o",
            str(scratch),
            str(source),
        ],
        check=True,
        capture_output=True,
    )
    os.replace(scratch, library)
    return library


def load():
    """Compile (once) and dlopen the kernel; returns (ffi, lib) or None.

    Never raises: any failure (no cffi, no compiler, sandboxed tmp, bad
    toolchain) disables the native path for the process, and
    :class:`repro.sim.gpu.GpuSimulator` runs the scalar engine instead.
    """
    global _cached, _attempted
    with _lock:
        if _attempted:
            return _cached
        _attempted = True
        try:
            import cffi

            cc = _compiler()
            if cc is None:
                return None
            digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
            cache_dir = Path(
                os.environ.get(ENV_CACHE)
                or Path(tempfile.gettempdir()) / "repro-simkernel"
            )
            library = _build(cc, cache_dir, digest)
            ffi = cffi.FFI()
            ffi.cdef(SIGNATURE)
            _cached = (ffi, ffi.dlopen(str(library)))
        except Exception:
            _cached = None
        return _cached
