"""Kernel lowering: turn layers into per-SM memory/compute step streams.

CONV and FC layers are lowered to tiled GEMM — the same im2col lowering the
functional library in :mod:`repro.nn.functional` performs, and the dominant
way GPUs of the GTX480 era executed convolutions.  POOL layers are lowered
to a streaming read/reduce/write kernel.  Each lowered step carries real
addresses from a :class:`repro.core.memory.SecureHeap`, where encrypted and
plaintext data live in separate ``emalloc``/``malloc`` regions so requests
inherit exact criticality tags.

Tile size is the arithmetic-intensity knob: a GEMM with ``tile`` = 32 moves
``2·tile²·tile_k`` operand bytes per ``tile²·tile_k`` MACs, which puts CONV
layers in the moderately bandwidth-bound regime and 1024³ matmul near the
compute/bandwidth balance point — the regimes the paper's Figures 1 and 5
report.  POOL layers are almost pure streaming and therefore the most
bandwidth-bound (Figure 6).

The lowering is computed in bulk with NumPy and emits
:class:`~repro.sim.sm.LoweredStreams` — the flat per-request and per-step
arrays the vector engine compiles — so no Python object is built per
request or per step unless a consumer indexes the streams (the scalar
engine and the trace tools do).  ``tests/sim/reference_lowering.py`` keeps
the former object-by-object lowering, and the equivalence suite pins this
one to it request for request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.memory import Allocation, SecureHeap
from ..core.plan import LayerTraffic
from .config import GpuConfig
from .sm import LoweredStreams

__all__ = [
    "DEFAULT_TILE",
    "POOL_OPS_PER_ELEMENT",
    "matmul_traffic",
    "matmul_streams",
    "gemm_layer_streams",
    "pool_layer_streams",
    "layer_streams",
]

DEFAULT_TILE = 32
#: Retired instructions per pooled element (loads, compares, indexing) —
#: a calibration constant of the pooling-kernel model.
POOL_OPS_PER_ELEMENT = 8
#: Cap on steps materialised per SM per layer; larger layers merge
#: consecutive k-steps (same byte/MAC totals, coarser pipelining).
MAX_STEPS_PER_SM = 4096


@dataclass(frozen=True)
class _Operand:
    """Encrypted/plaintext region pair for one operand, with split ratio."""

    encrypted: Allocation | None
    plain: Allocation | None
    encrypted_fraction: float

    @classmethod
    def allocate(
        cls,
        heap: SecureHeap,
        name: str,
        encrypted_bytes: int,
        plain_bytes: int,
    ) -> "_Operand":
        total = encrypted_bytes + plain_bytes
        fraction = encrypted_bytes / total if total else 0.0
        enc = heap.emalloc(f"{name}.enc", encrypted_bytes) if encrypted_bytes else None
        plain = heap.malloc(f"{name}.plain", plain_bytes) if plain_bytes else None
        return cls(enc, plain, fraction)

    def segments(
        self, nbytes: np.ndarray
    ) -> list[tuple[Allocation, bool, np.ndarray]]:
        """``(region, encrypted, bytes)`` per criticality part of each
        access of ``nbytes``, the encrypted part first.

        A part whose own region does not exist goes to the operand's other
        region (and takes that region's criticality).
        """
        enc = np.rint(nbytes * self.encrypted_fraction).astype(np.int64)
        if self.encrypted is not None and self.plain is not None:
            return [(self.encrypted, True, enc), (self.plain, False, nbytes - enc)]
        if self.encrypted is not None:
            return [(self.encrypted, True, enc), (self.encrypted, True, nbytes - enc)]
        if self.plain is not None:
            return [(self.plain, False, nbytes)]
        return []


def _tile_sizes(extent: int, tile: int) -> list[int]:
    """Split ``extent`` into tile-sized pieces (last piece may be short)."""
    if extent <= 0:
        return []
    full, rest = divmod(extent, tile)
    return [tile] * full + ([rest] if rest else [])


def _lower(
    config: GpuConfig,
    step_sm: np.ndarray,
    step_cycles: np.ndarray,
    accesses: list[tuple[_Operand, np.ndarray, bool, str]],
) -> LoweredStreams:
    """Lay out every step's requests and group the steps by SM.

    ``step_sm``/``step_cycles`` describe the steps in generation order;
    each ``(operand, bytes per step, is_read, tag)`` entry of ``accesses``
    is one operand access per step, in issue order (reads before writes).
    Each criticality part of an access is split into up to
    ``num_channels`` line-stepped requests (keeping the channel interleave
    realistic without one request per line), the last taking the
    remainder.  A region's requests take consecutive offsets — the running
    sum of their sizes in generation order — wrapping at the region's end,
    which models operand reuse (a second sweep revisits the same addresses,
    giving the counter cache its hits).
    """
    line = config.line_bytes
    num_steps = len(step_sm)
    regions: list[Allocation] = []
    columns = []  # (region index, encrypted, is_read, tag index, bytes per step)
    for tag_id, (operand, nbytes, is_read, _) in enumerate(accesses):
        for allocation, encrypted, sizes in operand.segments(nbytes):
            if allocation not in regions:
                regions.append(allocation)
            columns.append((regions.index(allocation), encrypted, is_read, tag_id, sizes))

    # Criticality parts in generation order: step-major, then column.
    part_bytes = (
        np.stack([sizes for *_, sizes in columns], axis=1).ravel()
        if columns
        else np.zeros(0, dtype=np.int64)
    )
    part_column = np.tile(np.arange(len(columns)), num_steps)
    part_step = np.repeat(np.arange(num_steps), len(columns))
    keep = part_bytes > 0
    part_bytes, part_column, part_step = part_bytes[keep], part_column[keep], part_step[keep]

    # Channel split of each part.
    pieces = np.minimum(config.num_channels, np.maximum(part_bytes // line, 1))
    share = part_bytes // pieces
    owner = np.repeat(np.arange(len(part_bytes)), pieces)
    size = share[owner]
    last = np.cumsum(pieces) - 1
    size[last] += part_bytes - share * pieces
    column = part_column[owner]
    step = part_step[owner]

    def per_column(index: int, dtype) -> np.ndarray:
        return np.array([c[index] for c in columns], dtype=dtype)[column]

    region = per_column(0, np.int64)
    encrypted = per_column(1, bool)
    is_read = per_column(2, bool)
    tag = per_column(3, np.int64)

    address = np.empty(len(size), dtype=np.int64)
    for region_id, allocation in enumerate(regions):
        mask = region == region_id
        taken = size[mask]
        offset = np.cumsum(taken) - taken
        usable = max(allocation.size, line)
        address[mask] = allocation.address + offset % usable // line * line

    # Group steps by SM (stable), carrying each step's request block along.
    per_step = np.bincount(step, minlength=num_steps)
    reads = np.bincount(step[is_read], minlength=num_steps)
    order = np.argsort(step_sm, kind="stable")
    moved = per_step[order]
    gather = np.repeat(
        (np.cumsum(per_step) - per_step)[order] - (np.cumsum(moved) - moved), moved
    ) + np.arange(len(size))
    cycles = step_cycles[order]
    return LoweredStreams(
        address=address[gather],
        size=size[gather],
        is_read=is_read[gather],
        encrypted=encrypted[gather],
        tag=tag[gather],
        tags=tuple(tag_name for *_, tag_name in accesses),
        step_cycles=cycles,
        step_instructions=cycles,
        step_reads=reads[order],
        step_writes=(per_step - reads)[order],
        sm_steps=np.bincount(step_sm, minlength=config.num_sms),
    )


def _gemm_streams(
    config: GpuConfig,
    *,
    name: str,
    m: int,
    n: int,
    k: int,
    a: _Operand,
    b: _Operand,
    c: _Operand,
    macs_total: int,
    tile: int,
    element_bytes: int = 4,
) -> LoweredStreams:
    """Lower C[m,n] = A[m,k] @ B[k,n] into per-SM tile-step streams.

    Output tiles are distributed round-robin over SMs; each output tile
    iterates the K dimension in ``tile``-sized chunks, reading one A tile
    and one B tile per chunk and writing the C tile at the end.
    ``macs_total`` lets CONV layers charge their exact MAC count even when
    the lowered GEMM is padded.
    """
    m_tiles = _tile_sizes(m, tile)
    n_tiles = _tile_sizes(n, tile)
    k_tiles = _tile_sizes(k, tile)

    # Merge k-chunks if the stream would exceed the step budget.
    total_steps = len(m_tiles) * len(n_tiles) * len(k_tiles)
    budget = MAX_STEPS_PER_SM * config.num_sms
    merge = max(1, -(-total_steps // budget))  # ceil division
    if merge > 1:
        k_tiles = [sum(k_tiles[i : i + merge]) for i in range(0, len(k_tiles), merge)]

    # One row per step, generation order: output tiles row-major, k inner.
    tile_m, tile_n, tile_k = (
        grid.ravel()
        for grid in np.meshgrid(
            np.array(m_tiles, dtype=np.int64),
            np.array(n_tiles, dtype=np.int64),
            np.array(k_tiles, dtype=np.int64),
            indexing="ij",
        )
    )
    output_tiles = len(m_tiles) * len(n_tiles)
    last_k = np.tile(np.arange(len(k_tiles)) == len(k_tiles) - 1, output_tiles)
    gemm_macs = m * n * k
    scale = macs_total / gemm_macs if gemm_macs else 1.0
    macs = (tile_m * tile_n * tile_k * scale).astype(np.int64)
    cycles = np.maximum(1, -(-macs // config.macs_per_sm_per_cycle))
    step_sm = np.repeat(np.arange(output_tiles) % config.num_sms, len(k_tiles))
    return _lower(
        config,
        step_sm,
        cycles,
        [
            (a, tile_m * tile_k * element_bytes, True, f"{name}.A"),
            (b, tile_k * tile_n * element_bytes, True, f"{name}.B"),
            (c, np.where(last_k, tile_m * tile_n * element_bytes, 0), False, f"{name}.C"),
        ],
    )


# ----------------------------------------------------------------------
# Public workload builders
# ----------------------------------------------------------------------
def matmul_traffic(
    m: int, n: int, k: int, *, encrypted: bool = True, element_bytes: int = 4
) -> LayerTraffic:
    """Describe a plain matrix multiplication as a layer-traffic record.

    Used by the Figure 1 experiment (matmul is "the most common operation
    in DL algorithms"); ``encrypted`` applies full encryption to all three
    matrices, as the straightforward Direct/Counter schemes do.
    """
    a_bytes = m * k * element_bytes
    b_bytes = k * n * element_bytes
    c_bytes = m * n * element_bytes
    return LayerTraffic(
        name=f"matmul{m}x{n}x{k}",
        kind="fc",
        macs=m * n * k,
        weight_bytes_encrypted=b_bytes if encrypted else 0,
        weight_bytes_plain=0 if encrypted else b_bytes,
        input_bytes_encrypted=a_bytes if encrypted else 0,
        input_bytes_plain=0 if encrypted else a_bytes,
        output_bytes_encrypted=c_bytes if encrypted else 0,
        output_bytes_plain=0 if encrypted else c_bytes,
        gemm_m=m,
        gemm_n=n,
        gemm_k=k,
    )


def matmul_streams(
    config: GpuConfig,
    m: int,
    n: int,
    k: int,
    *,
    encrypted: bool = True,
    tile: int = DEFAULT_TILE,
    heap: SecureHeap | None = None,
) -> LoweredStreams:
    """Per-SM streams for a tiled matrix multiplication."""
    return gemm_layer_streams(
        config,
        matmul_traffic(m, n, k, encrypted=encrypted),
        tile=tile,
        heap=heap,
    )


def gemm_layer_streams(
    config: GpuConfig,
    traffic: LayerTraffic,
    *,
    tile: int = DEFAULT_TILE,
    heap: SecureHeap | None = None,
) -> LoweredStreams:
    """Per-SM streams for one CONV or FC layer (im2col GEMM lowering)."""
    if traffic.kind not in ("conv", "fc"):
        raise ValueError(f"gemm lowering needs a conv/fc layer, got {traffic.kind}")
    if not (traffic.gemm_m and traffic.gemm_n and traffic.gemm_k):
        raise ValueError(f"{traffic.name}: missing GEMM dimensions")
    if heap is None:  # empty heaps are falsy via __len__, so test identity
        heap = SecureHeap()
    # The im2col operand is ~k² larger than the feature map; criticality
    # fractions carry over because im2col replicates channels uniformly.
    a = _Operand.allocate(
        heap,
        f"{traffic.name}.in",
        traffic.input_bytes_encrypted,
        traffic.input_bytes_plain,
    )
    b = _Operand.allocate(
        heap,
        f"{traffic.name}.w",
        traffic.weight_bytes_encrypted,
        traffic.weight_bytes_plain,
    )
    c = _Operand.allocate(
        heap,
        f"{traffic.name}.out",
        traffic.output_bytes_encrypted,
        traffic.output_bytes_plain,
    )
    return _gemm_streams(
        config,
        name=traffic.name,
        m=traffic.gemm_m,
        n=traffic.gemm_n,
        k=traffic.gemm_k,
        a=a,
        b=b,
        c=c,
        macs_total=traffic.macs,
        tile=tile,
        element_bytes=traffic.element_bytes,
    )


def pool_layer_streams(
    config: GpuConfig,
    traffic: LayerTraffic,
    *,
    lines_per_step: int = 16,
    ops_per_element: int = POOL_OPS_PER_ELEMENT,
    heap: SecureHeap | None = None,
    element_bytes: int | None = None,
) -> LoweredStreams:
    """Per-SM streams for a POOL layer: streaming read/reduce/write."""
    if traffic.kind != "pool":
        raise ValueError(f"pool lowering needs a pool layer, got {traffic.kind}")
    if element_bytes is None:
        element_bytes = traffic.element_bytes
    if heap is None:  # empty heaps are falsy via __len__, so test identity
        heap = SecureHeap()
    source = _Operand.allocate(
        heap,
        f"{traffic.name}.in",
        traffic.input_bytes_encrypted,
        traffic.input_bytes_plain,
    )
    target = _Operand.allocate(
        heap,
        f"{traffic.name}.out",
        traffic.output_bytes_encrypted,
        traffic.output_bytes_plain,
    )
    in_bytes = traffic.input_bytes_encrypted + traffic.input_bytes_plain
    out_bytes = traffic.output_bytes_encrypted + traffic.output_bytes_plain
    step_in_bytes = lines_per_step * config.line_bytes
    total_steps = max(1, -(-in_bytes // step_in_bytes)) if in_bytes > 0 else 0
    budget = MAX_STEPS_PER_SM * config.num_sms
    if total_steps > budget:
        step_in_bytes = -(-in_bytes // budget)
        total_steps = max(1, -(-in_bytes // step_in_bytes))
    step = np.arange(total_steps, dtype=np.int64)
    this_in = np.minimum(step_in_bytes, in_bytes - step * step_in_bytes)
    out_ratio = out_bytes / in_bytes if in_bytes > 0 else 0.0
    this_out = np.rint(this_in * out_ratio).astype(np.int64)
    ops = this_in // element_bytes * ops_per_element
    cycles = np.maximum(1, -(-ops // config.macs_per_sm_per_cycle))
    return _lower(
        config,
        step % config.num_sms,
        cycles,
        [
            (source, this_in, True, f"{traffic.name}.in"),
            (target, this_out, False, f"{traffic.name}.out"),
        ],
    )


def layer_streams(
    config: GpuConfig,
    traffic: LayerTraffic,
    *,
    tile: int = DEFAULT_TILE,
    heap: SecureHeap | None = None,
) -> LoweredStreams:
    """Lower any layer-traffic record into per-SM streams."""
    if traffic.kind == "pool":
        return pool_layer_streams(config, traffic, heap=heap)
    return gemm_layer_streams(config, traffic, tile=tile, heap=heap)
