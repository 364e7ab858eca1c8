"""Streaming-multiprocessor execution model.

A kernel is lowered (by :mod:`repro.sim.workloads`) into one stream of
:class:`TileStep` items per SM.  A tile step is the unit GPU kernels
naturally pipeline: fetch the operand tiles for one unit of work, compute
on them, write results.  The SM model executes steps with double buffering
— while computing step *i* it prefetches the reads of step *i+1* — so
compute and memory overlap exactly as far as the memory system allows,
which is what makes the simulated kernels bandwidth-bound (or not) for the
same reasons the real ones are.

The lowering emits those streams as :class:`LoweredStreams` — flat
per-request and per-step arrays that the vector engine compiles without
touching a Python object per request.  Indexing a :class:`LoweredStreams`
materialises the equivalent :class:`TileStep` lists, which is what the
scalar engine and the trace tools consume.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .request import Access, MemRequest

__all__ = ["TileStep", "LoweredStreams", "SmState", "SmStats"]


@dataclass(frozen=True, slots=True)
class TileStep:
    """One pipelined unit of SM work.

    ``compute_cycles`` is how long the SM's datapath is busy once operands
    arrived; ``instructions`` is the issue-slot count it retires (defaults
    to ``compute_cycles`` at issue width 1).
    """

    compute_cycles: int
    reads: tuple[MemRequest, ...] = ()
    writes: tuple[MemRequest, ...] = ()
    instructions: int = -1

    def __post_init__(self) -> None:
        if self.compute_cycles < 0:
            raise ValueError("compute_cycles must be non-negative")
        if self.instructions < 0:
            object.__setattr__(self, "instructions", self.compute_cycles)


class LoweredStreams(Sequence):
    """Per-SM step streams as flat structure-of-arrays.

    Requests are rows of the per-request arrays in stream order: SM 0's
    steps first, each step's reads followed by its writes.  Step ``i`` owns
    ``step_reads[i] + step_writes[i]`` consecutive rows; stream ``j`` owns
    ``sm_steps[j]`` consecutive steps.  ``tag[r]`` indexes ``tags``.

    As a sequence it is the equivalent ``list[list[TileStep]]`` (built once,
    on first access), every request carrying its stream's index as
    ``sm_id``.
    """

    def __init__(
        self,
        *,
        address: np.ndarray,
        size: np.ndarray,
        is_read: np.ndarray,
        encrypted: np.ndarray,
        tag: np.ndarray,
        tags: tuple[str, ...],
        step_cycles: np.ndarray,
        step_instructions: np.ndarray,
        step_reads: np.ndarray,
        step_writes: np.ndarray,
        sm_steps: np.ndarray,
    ) -> None:
        self.address = address
        self.size = size
        self.is_read = is_read
        self.encrypted = encrypted
        self.tag = tag
        self.tags = tags
        self.step_cycles = step_cycles
        self.step_instructions = step_instructions
        self.step_reads = step_reads
        self.step_writes = step_writes
        self.sm_steps = sm_steps
        self._steps: list[list[TileStep]] | None = None

    @classmethod
    def from_steps(cls, streams: Sequence[Sequence[TileStep]]) -> "LoweredStreams":
        """Flatten hand-built (or trace-loaded) :class:`TileStep` lists."""
        if isinstance(streams, LoweredStreams):
            return streams
        steps = [step for stream in streams for step in stream]
        requests = [r for step in steps for r in step.reads + step.writes]
        tag_ids: dict[str, int] = {}
        return cls(
            address=np.array([r.address for r in requests], dtype=np.int64),
            size=np.array([r.size for r in requests], dtype=np.int64),
            is_read=np.array([r.access is Access.READ for r in requests], dtype=bool),
            encrypted=np.array([r.encrypted for r in requests], dtype=bool),
            tag=np.array(
                [tag_ids.setdefault(r.tag, len(tag_ids)) for r in requests],
                dtype=np.int64,
            ),
            tags=tuple(tag_ids),
            # dtype follows the values: int64 for whole cycles, float64 else.
            step_cycles=np.array([s.compute_cycles for s in steps]),
            step_instructions=np.array([s.instructions for s in steps]),
            step_reads=np.array([len(s.reads) for s in steps], dtype=np.int64),
            step_writes=np.array([len(s.writes) for s in steps], dtype=np.int64),
            sm_steps=np.array([len(stream) for stream in streams], dtype=np.int64),
        )

    @property
    def num_requests(self) -> int:
        return len(self.address)

    def _materialise(self) -> list[list[TileStep]]:
        if self._steps is not None:
            return self._steps
        tags = self.tags
        requests = [
            (address, size, Access.READ if read else Access.WRITE, encrypted, tags[tag])
            for address, size, read, encrypted, tag in zip(
                self.address.tolist(),
                self.size.tolist(),
                self.is_read.tolist(),
                self.encrypted.tolist(),
                self.tag.tolist(),
            )
        ]
        cycles = self.step_cycles.tolist()
        instructions = self.step_instructions.tolist()
        reads = self.step_reads.tolist()
        writes = self.step_writes.tolist()
        streams: list[list[TileStep]] = []
        first = row = 0
        for sm_id, count in enumerate(self.sm_steps.tolist()):
            stream = []
            for step in range(first, first + count):
                mid = row + reads[step]
                end = mid + writes[step]
                stream.append(
                    TileStep(
                        compute_cycles=cycles[step],
                        reads=tuple(
                            MemRequest(a, s, access, e, sm_id, t)
                            for a, s, access, e, t in requests[row:mid]
                        ),
                        writes=tuple(
                            MemRequest(a, s, access, e, sm_id, t)
                            for a, s, access, e, t in requests[mid:end]
                        ),
                        instructions=instructions[step],
                    )
                )
                row = end
            first += count
            streams.append(stream)
        self._steps = streams
        return streams

    def __len__(self) -> int:
        return len(self.sm_steps)

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())


@dataclass
class SmStats:
    """Per-SM execution accounting."""

    instructions: int = 0
    busy_cycles: int = 0
    steps: int = 0
    read_requests: int = 0
    write_requests: int = 0


@dataclass
class SmState:
    """Progress of one SM through its step stream (driven by GpuSimulator)."""

    sm_id: int
    steps: list[TileStep]
    next_step: int = 0
    ready_time: float = 0.0  # when the next step's operands are available
    compute_end: float = 0.0  # when the previous step's compute finishes
    last_write_done: float = 0.0
    stats: SmStats = field(default_factory=SmStats)

    @property
    def done(self) -> bool:
        return self.next_step >= len(self.steps)

    @property
    def next_event_time(self) -> float:
        """Earliest time the next step can start computing."""
        return max(self.ready_time, self.compute_end)
