"""Frozen object lowering: the differential reference for the array lowering.

This is the per-request object lowering :mod:`repro.sim.workloads` used
before it emitted flat arrays: region cursors hand out line-aligned
addresses one :class:`~repro.sim.request.MemRequest` at a time, and every
tile step is a :class:`~repro.sim.sm.TileStep`.  It is kept verbatim as the
oracle ``test_lowering_equivalence.py`` pins the array lowering against —
same requests, same steps, same heap allocations — and as the "before"
side of ``benchmarks/bench_sim_throughput.py``.  Do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memory import Allocation, SecureHeap
from repro.core.plan import LayerTraffic
from repro.sim.config import GpuConfig
from repro.sim.request import Access, MemRequest
from repro.sim.sm import TileStep
from repro.sim.workloads import DEFAULT_TILE, MAX_STEPS_PER_SM, POOL_OPS_PER_ELEMENT


@dataclass
class _RegionCursor:
    """Sequentially walks an allocation, wrapping at the end.

    Wrapping models operand reuse: a second sweep revisits the same
    addresses, which is what gives the counter cache its hits.
    """

    allocation: Allocation | None
    offset: int = 0

    def take(self, nbytes: int, line_bytes: int) -> int:
        """Line-aligned address for the next ``nbytes`` chunk."""
        if self.allocation is None or nbytes <= 0:
            raise ValueError("cursor has no backing region")
        usable = max(self.allocation.size, line_bytes)
        address = self.allocation.address + (self.offset % usable) // line_bytes * line_bytes
        self.offset += nbytes
        return address


def _split_requests(
    cursor: _RegionCursor,
    nbytes: int,
    *,
    access: Access,
    encrypted: bool,
    sm_id: int,
    line_bytes: int,
    parts: int,
) -> list[MemRequest]:
    """Spread ``nbytes`` over ``parts`` requests at line-stepped addresses.

    Splitting keeps the channel interleave realistic (consecutive lines map
    to consecutive channels) without materialising one request per line.
    """
    if nbytes <= 0:
        return []
    parts = max(1, min(parts, nbytes // line_bytes or 1))
    share = nbytes // parts
    remainder = nbytes - share * parts
    requests = []
    for index in range(parts):
        size = share + (remainder if index == parts - 1 else 0)
        if size <= 0:
            continue
        address = cursor.take(size, line_bytes)
        requests.append(
            MemRequest(
                address=address,
                size=size,
                access=access,
                encrypted=encrypted,
                sm_id=sm_id,
            )
        )
    return requests


@dataclass
class _OperandRegions:
    """Encrypted/plaintext region pair for one operand, with split ratio."""

    encrypted: _RegionCursor | None
    plain: _RegionCursor | None
    encrypted_fraction: float

    @classmethod
    def allocate(
        cls,
        heap: SecureHeap,
        name: str,
        encrypted_bytes: int,
        plain_bytes: int,
    ) -> "_OperandRegions":
        total = encrypted_bytes + plain_bytes
        fraction = encrypted_bytes / total if total else 0.0
        enc = (
            _RegionCursor(heap.emalloc(f"{name}.enc", encrypted_bytes))
            if encrypted_bytes
            else None
        )
        plain = (
            _RegionCursor(heap.malloc(f"{name}.plain", plain_bytes))
            if plain_bytes
            else None
        )
        return cls(enc, plain, fraction)

    def requests(
        self,
        nbytes: int,
        *,
        access: Access,
        sm_id: int,
        line_bytes: int,
        parts: int,
    ) -> list[MemRequest]:
        """Reads/writes for ``nbytes`` of this operand, split by criticality."""
        encrypted_bytes = int(round(nbytes * self.encrypted_fraction))
        plain_bytes = nbytes - encrypted_bytes
        requests: list[MemRequest] = []
        if encrypted_bytes and self.encrypted is not None:
            requests += _split_requests(
                self.encrypted,
                encrypted_bytes,
                access=access,
                encrypted=True,
                sm_id=sm_id,
                line_bytes=line_bytes,
                parts=parts,
            )
        elif encrypted_bytes and self.plain is not None:
            plain_bytes += encrypted_bytes
        if plain_bytes and self.plain is not None:
            requests += _split_requests(
                self.plain,
                plain_bytes,
                access=access,
                encrypted=False,
                sm_id=sm_id,
                line_bytes=line_bytes,
                parts=parts,
            )
        elif plain_bytes and self.encrypted is not None:
            requests += _split_requests(
                self.encrypted,
                plain_bytes,
                access=access,
                encrypted=True,
                sm_id=sm_id,
                line_bytes=line_bytes,
                parts=parts,
            )
        return requests


def _tile_sizes(extent: int, tile: int) -> list[int]:
    """Split ``extent`` into tile-sized pieces (last piece may be short)."""
    if extent <= 0:
        return []
    full, rest = divmod(extent, tile)
    return [tile] * full + ([rest] if rest else [])


def _gemm_streams(
    config: GpuConfig,
    *,
    name: str,
    m: int,
    n: int,
    k: int,
    a_regions: _OperandRegions,
    b_regions: _OperandRegions,
    c_regions: _OperandRegions,
    macs_total: int,
    tile: int,
    element_bytes: int = 4,
) -> list[list[TileStep]]:
    """Lower C[m,n] = A[m,k] @ B[k,n] into per-SM tile-step streams.

    Output tiles are distributed round-robin over SMs; each output tile
    iterates the K dimension in ``tile``-sized chunks, reading one A tile
    and one B tile per chunk and writing the C tile at the end.
    ``macs_total`` lets CONV layers charge their exact MAC count even when
    the lowered GEMM is padded.
    """
    line = config.line_bytes
    parts = config.num_channels
    m_tiles = _tile_sizes(m, tile)
    n_tiles = _tile_sizes(n, tile)
    k_tiles = _tile_sizes(k, tile)

    # Merge k-chunks if the stream would exceed the step budget.
    total_steps = len(m_tiles) * len(n_tiles) * len(k_tiles)
    budget = MAX_STEPS_PER_SM * config.num_sms
    merge = max(1, -(-total_steps // budget))  # ceil division
    if merge > 1:
        merged: list[int] = []
        for start in range(0, len(k_tiles), merge):
            merged.append(sum(k_tiles[start : start + merge]))
        k_tiles = merged

    gemm_macs = m * n * k
    scale = macs_total / gemm_macs if gemm_macs else 1.0
    streams: list[list[TileStep]] = [[] for _ in range(config.num_sms)]
    sm_id = 0
    for tile_m in m_tiles:
        for tile_n in n_tiles:
            stream = streams[sm_id]
            for index, tile_k in enumerate(k_tiles):
                reads = a_regions.requests(
                    tile_m * tile_k * element_bytes,
                    access=Access.READ,
                    sm_id=sm_id,
                    line_bytes=line,
                    parts=parts,
                )
                reads += b_regions.requests(
                    tile_k * tile_n * element_bytes,
                    access=Access.READ,
                    sm_id=sm_id,
                    line_bytes=line,
                    parts=parts,
                )
                writes: list[MemRequest] = []
                if index == len(k_tiles) - 1:
                    writes = c_regions.requests(
                        tile_m * tile_n * element_bytes,
                        access=Access.WRITE,
                        sm_id=sm_id,
                        line_bytes=line,
                        parts=parts,
                    )
                macs = int(tile_m * tile_n * tile_k * scale)
                cycles = max(1, -(-macs // config.macs_per_sm_per_cycle))
                stream.append(
                    TileStep(
                        compute_cycles=cycles,
                        reads=tuple(reads),
                        writes=tuple(writes),
                    )
                )
            sm_id = (sm_id + 1) % config.num_sms
    return streams


def gemm_layer_streams(
    config: GpuConfig,
    traffic: LayerTraffic,
    *,
    tile: int = DEFAULT_TILE,
    heap: SecureHeap | None = None,
) -> list[list[TileStep]]:
    """Per-SM streams for one CONV or FC layer (im2col GEMM lowering)."""
    if traffic.kind not in ("conv", "fc"):
        raise ValueError(f"gemm lowering needs a conv/fc layer, got {traffic.kind}")
    if not (traffic.gemm_m and traffic.gemm_n and traffic.gemm_k):
        raise ValueError(f"{traffic.name}: missing GEMM dimensions")
    if heap is None:  # empty heaps are falsy via __len__, so test identity
        heap = SecureHeap()
    # The im2col operand is ~k² larger than the feature map; criticality
    # fractions carry over because im2col replicates channels uniformly.
    a_regions = _OperandRegions.allocate(
        heap,
        f"{traffic.name}.in",
        traffic.input_bytes_encrypted,
        traffic.input_bytes_plain,
    )
    b_regions = _OperandRegions.allocate(
        heap,
        f"{traffic.name}.w",
        traffic.weight_bytes_encrypted,
        traffic.weight_bytes_plain,
    )
    c_regions = _OperandRegions.allocate(
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
        a_regions=a_regions,
        b_regions=b_regions,
        c_regions=c_regions,
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
) -> list[list[TileStep]]:
    """Per-SM streams for a POOL layer: streaming read/reduce/write."""
    if traffic.kind != "pool":
        raise ValueError(f"pool lowering needs a pool layer, got {traffic.kind}")
    if element_bytes is None:
        element_bytes = traffic.element_bytes
    if heap is None:  # empty heaps are falsy via __len__, so test identity
        heap = SecureHeap()
    in_regions = _OperandRegions.allocate(
        heap,
        f"{traffic.name}.in",
        traffic.input_bytes_encrypted,
        traffic.input_bytes_plain,
    )
    out_regions = _OperandRegions.allocate(
        heap,
        f"{traffic.name}.out",
        traffic.output_bytes_encrypted,
        traffic.output_bytes_plain,
    )
    line = config.line_bytes
    in_bytes = traffic.input_bytes_encrypted + traffic.input_bytes_plain
    out_bytes = traffic.output_bytes_encrypted + traffic.output_bytes_plain
    if in_bytes <= 0:
        return [[] for _ in range(config.num_sms)]

    step_in_bytes = lines_per_step * line
    total_steps = max(1, -(-in_bytes // step_in_bytes))
    budget = MAX_STEPS_PER_SM * config.num_sms
    if total_steps > budget:
        step_in_bytes = -(-in_bytes // budget)
        total_steps = max(1, -(-in_bytes // step_in_bytes))
    out_ratio = out_bytes / in_bytes
    streams: list[list[TileStep]] = [[] for _ in range(config.num_sms)]
    consumed = 0
    for step in range(total_steps):
        sm_id = step % config.num_sms
        this_in = min(step_in_bytes, in_bytes - consumed)
        consumed += this_in
        reads = in_regions.requests(
            this_in,
            access=Access.READ,
            sm_id=sm_id,
            line_bytes=line,
            parts=config.num_channels,
        )
        this_out = int(round(this_in * out_ratio))
        writes = (
            out_regions.requests(
                this_out,
                access=Access.WRITE,
                sm_id=sm_id,
                line_bytes=line,
                parts=config.num_channels,
            )
            if this_out
            else []
        )
        elements = this_in // element_bytes
        ops = elements * ops_per_element
        cycles = max(
            1, -(-ops // (config.macs_per_sm_per_cycle))
        )
        streams[sm_id].append(
            TileStep(compute_cycles=cycles, reads=tuple(reads), writes=tuple(writes))
        )
    return streams


def layer_streams(
    config: GpuConfig,
    traffic: LayerTraffic,
    *,
    tile: int = DEFAULT_TILE,
    heap: SecureHeap | None = None,
) -> list[list[TileStep]]:
    """Lower any layer-traffic record into per-SM streams."""
    if traffic.kind == "pool":
        return pool_layer_streams(config, traffic, heap=heap)
    return gemm_layer_streams(config, traffic, tile=tile, heap=heap)
