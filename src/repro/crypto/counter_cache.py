"""On-chip counter cache for counter-mode memory encryption.

Counter-mode encryption keeps one counter per cache line in DRAM.  To avoid
an extra DRAM access per memory request, secure processors cache recently
used counters on chip (Yan et al., ISCA'06).  The paper's Figure 1 sweeps
this cache from 24 KB to 1536 KB and reports hit rates and the resulting
GPU IPC; this module provides the cache model those experiments use.

The cache is set-associative with LRU replacement.  Each 64-byte cache block
of counter storage covers many data lines (with 64-bit split counters, one
counter block covers a 4 KB data page in the classic split-counter layout),
so the cache exploits the spatial locality of the streaming DL workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["CounterCacheConfig", "CounterCacheStats", "CounterCache"]


@dataclass(frozen=True)
class CounterCacheConfig:
    """Geometry of the counter cache.

    Parameters
    ----------
    size_bytes:
        Total cache capacity (paper sweeps 24/96/384/1536 KB).
    block_bytes:
        Bytes per cache block of counter storage.
    associativity:
        Number of ways per set.
    data_bytes_per_counter_block:
        How many bytes of *data* address space one counter block covers.
        With the split-counter organisation of Yan et al. a 64-byte counter
        block holds one 64-bit major counter plus 64 7-bit minors, covering
        64 cache lines = 4 KB of data.
    minor_counter_bits:
        Width of the per-line minor counter.  When a line's minor would
        wrap, the whole covering block undergoes a *re-encryption event*
        (major bump: every line re-encrypted under a fresh epoch) — the
        split-counter design's cost for keeping per-line counters small.
    """

    size_bytes: int = 96 * 1024
    block_bytes: int = 64
    associativity: int = 8
    data_bytes_per_counter_block: int = 4096
    minor_counter_bits: int = 7

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.block_bytes <= 0:
            raise ValueError("cache and block sizes must be positive")
        if self.size_bytes % self.block_bytes:
            raise ValueError("size_bytes must be a multiple of block_bytes")
        blocks = self.size_bytes // self.block_bytes
        if self.associativity <= 0 or blocks % self.associativity:
            raise ValueError(
                "number of blocks must be a multiple of associativity"
            )
        if self.minor_counter_bits <= 0:
            raise ValueError("minor_counter_bits must be positive")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


@dataclass
class CounterCacheStats:
    """Access counters for hit-rate reporting (Figure 1b)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    #: Re-encryption events (a minor counter wrapped: major bump, whole
    #: block re-encrypted) and the total lines rewritten by them.
    reencryptions: int = 0
    reencrypted_lines: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.reencryptions = 0
        self.reencrypted_lines = 0


@dataclass
class _CacheLine:
    tag: int
    dirty: bool = False
    counters: dict[int, int] = field(default_factory=dict)


class CounterCache:
    """Set-associative LRU counter cache.

    ``access(address, write=...)`` performs a lookup for the counter block
    covering the data line at ``address`` and returns ``True`` on hit.  On a
    write access the line's counter is incremented (counter-mode requires a
    fresh counter per write-back) and the cache block is marked dirty.

    ``on_reencrypt`` (optional) is the functional hook for minor-counter
    overflow: when a line's minor counter wraps and the covering block takes
    a re-encryption event, the callback receives ``(block_id, old_counters,
    new_base)`` — ``old_counters`` mapping every tracked line address to the
    counter it held *before* the epoch bump — so a caller that stores real
    ciphertext (e.g. a :class:`~repro.crypto.modes.CounterModeEncryptor`
    on either crypto backend) can decrypt under the old counters and
    re-encrypt under ``new_base``, exactly what the hardware's
    re-encryption sweep does.
    """

    def __init__(
        self,
        config: CounterCacheConfig | None = None,
        *,
        on_reencrypt=None,
    ) -> None:
        self.config = config or CounterCacheConfig()
        self.stats = CounterCacheStats()
        self._on_reencrypt = on_reencrypt
        # Geometry constants, hoisted out of the per-access path (the
        # ``num_sets`` property chain re-divides on every lookup, which the
        # simulator hot loop performs tens of thousands of times per layer).
        self._num_sets = self.config.num_sets
        self._block_span = self.config.data_bytes_per_counter_block
        self._minor_limit = 1 << self.config.minor_counter_bits
        # One OrderedDict per set: maps tag -> _CacheLine, LRU at the front.
        self._sets: list[OrderedDict[int, _CacheLine]] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        # Backing store of architectural counters (what DRAM would hold).
        self._backing: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _locate(self, address: int) -> tuple[int, int, int]:
        """Map a data address to (counter block id, set index, tag)."""
        block_id = address // self._block_span
        set_index = block_id % self._num_sets
        tag = block_id // self._num_sets
        return block_id, set_index, tag

    def access(self, address: int, *, write: bool = False) -> bool:
        """Look up the counter for the data line at ``address``.

        Returns ``True`` on a counter-cache hit.  On a miss the covering
        counter block is fetched from the backing store (modelled as a DRAM
        access by the memory controller) and installed, evicting LRU.
        """
        block_id, set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        line = cache_set.get(tag)
        if line is not None:
            cache_set.move_to_end(tag)
            self.stats.hits += 1
            hit = True
        else:
            self.stats.misses += 1
            line = _CacheLine(tag=tag)
            if len(cache_set) >= self.config.associativity:
                _, evicted = cache_set.popitem(last=False)
                self.stats.evictions += 1
                if evicted.dirty:
                    self.stats.writebacks += 1
                    self._backing.update(evicted.counters)
            cache_set[tag] = line
            hit = False
        if write:
            value = self.counter_of(address) + 1
            if value % self._minor_limit == 0:
                # The line's minor counter wrapped: re-encrypt the whole
                # block under a fresh epoch, then take the write's bump.
                value = self._reencrypt_block(block_id, line) + 1
            line.counters[address] = value
            line.dirty = True
        return hit

    def _reencrypt_block(self, block_id: int, line: _CacheLine) -> int:
        """Model one re-encryption event for the covering counter block.

        Every tracked line in the block jumps to a common fresh epoch base
        strictly above all current values — counters never repeat, so pad
        uniqueness of counter-mode encryption is preserved across the
        major-counter bump.  Returns the new epoch base.
        """
        span = self.config.data_bytes_per_counter_block
        low, high = block_id * span, (block_id + 1) * span
        tracked = {a for a in line.counters if low <= a < high}
        tracked |= {a for a in self._backing if low <= a < high}
        limit = 1 << self.config.minor_counter_bits
        old_counters = {address: self.counter_of(address) for address in tracked}
        top = max(old_counters.values(), default=0)
        base = ((top // limit) + 1) * limit
        for address in tracked:
            line.counters[address] = base
        line.dirty = True
        self.stats.reencryptions += 1
        self.stats.reencrypted_lines += len(tracked)
        if self._on_reencrypt is not None:
            self._on_reencrypt(block_id, old_counters, base)
        return base

    def counter_of(self, address: int) -> int:
        """Current architectural counter value for the data line."""
        _, set_index, tag = self._locate(address)
        line = self._sets[set_index].get(tag)
        if line is not None and address in line.counters:
            return line.counters[address]
        return self._backing.get(address, 0)

    def flush(self) -> None:
        """Write back all dirty counters and invalidate the cache."""
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.dirty:
                    self.stats.writebacks += 1
                    self._backing.update(line.counters)
            cache_set.clear()

    @property
    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return sum(len(s) for s in self._sets)
