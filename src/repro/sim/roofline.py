"""Analytical roofline model — a cross-check on the event simulator.

The paper's bandwidth-gap argument is a roofline argument: a kernel's
steady-state time is bounded below by its compute time, its DRAM time, and
(when encrypted) its AES-engine time, and the largest bound wins.  This
module computes those bounds from a lowered workload's trace statistics
(sums over its :class:`~repro.sim.sm.LoweredStreams` arrays), so the
discrete-event results in :mod:`repro.sim.gpu` can be validated
against first principles (see ``tests/sim/test_roofline.py``): in the
saturated regimes the DES must approach the roofline, and it can never
beat it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import EncryptionMode, GpuConfig
from .sm import LoweredStreams, TileStep

__all__ = [
    "TraceStats",
    "trace_stats",
    "RooflinePrediction",
    "predict",
    "predict_streams",
]


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics of one lowered workload."""

    steps: int
    requests: int
    read_bytes: int
    write_bytes: int
    encrypted_bytes: int
    compute_cycles: int
    instructions: int

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def encrypted_fraction(self) -> float:
        total = self.total_bytes
        return self.encrypted_bytes / total if total else 0.0

    @property
    def arithmetic_intensity(self) -> float:
        """MAC-slot cycles per byte moved (roofline x-axis)."""
        total = self.total_bytes
        return self.compute_cycles / total if total else float("inf")


def trace_stats(
    streams: LoweredStreams | Sequence[Sequence[TileStep]],
) -> TraceStats:
    """Summarize a set of per-SM streams: one sum per field over their
    arrays (hand-built :class:`TileStep` lists are flattened first)."""
    lowered = LoweredStreams.from_steps(streams)
    size, is_read = lowered.size, lowered.is_read
    return TraceStats(
        steps=len(lowered.step_cycles),
        requests=lowered.num_requests,
        read_bytes=int(size[is_read].sum()),
        write_bytes=int(size[~is_read].sum()),
        encrypted_bytes=int(size[lowered.encrypted].sum()),
        compute_cycles=lowered.step_cycles.sum().item(),
        instructions=lowered.step_instructions.sum().item(),
    )


@dataclass(frozen=True)
class RooflinePrediction:
    """Lower-bound execution time and the binding resource."""

    compute_cycles: float
    dram_cycles: float
    engine_cycles: float
    instructions: int

    @property
    def cycles(self) -> float:
        return max(self.compute_cycles, self.dram_cycles, self.engine_cycles)

    @property
    def bottleneck(self) -> str:
        bounds = {
            "compute": self.compute_cycles,
            "dram": self.dram_cycles,
            "engine": self.engine_cycles,
        }
        return max(bounds, key=bounds.get)

    @property
    def ipc(self) -> float:
        cycles = self.cycles
        return self.instructions / cycles if cycles else 0.0


def predict(stats: TraceStats, config: GpuConfig, *, active_sms: int | None = None) -> RooflinePrediction:
    """Roofline bounds for a workload with the given trace statistics.

    * compute: total busy cycles spread over the active SMs;
    * DRAM: total bytes (plus counter-fetch overhead in counter mode,
      approximated as one 64-byte block per 4 KB of encrypted data) over
      aggregate channel bandwidth;
    * engine: encrypted bytes over aggregate engine bandwidth (zero when
      encryption is off).
    """
    active = active_sms or config.num_sms
    compute = stats.compute_cycles / active

    dram_bytes = float(stats.total_bytes)
    encryption = config.encryption
    engine = 0.0
    if encryption.enabled:
        engine_rate = config.engine_bytes_per_cycle * config.num_channels
        engine = stats.encrypted_bytes / engine_rate
        if encryption.mode is EncryptionMode.COUNTER:
            dram_bytes += stats.encrypted_bytes / 4096 * 64
        if encryption.authenticate:
            dram_bytes += (
                stats.encrypted_bytes
                / config.line_bytes
                * encryption.mac_bytes
            )
    dram_rate = config.channel_bytes_per_cycle * config.num_channels
    dram = dram_bytes / dram_rate
    return RooflinePrediction(
        compute_cycles=compute,
        dram_cycles=dram,
        engine_cycles=engine,
        instructions=stats.instructions,
    )


def predict_streams(
    streams: LoweredStreams | Sequence[Sequence[TileStep]], config: GpuConfig
) -> RooflinePrediction:
    """Roofline prediction straight from lowered per-SM streams."""
    lowered = LoweredStreams.from_steps(streams)
    active = int(np.count_nonzero(lowered.sm_steps))
    return predict(trace_stats(lowered), config, active_sms=active or None)
