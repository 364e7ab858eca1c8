"""Simulator configuration: the paper's GTX480 + encryption-engine setup.

Section IV-A: *"We model the microarchitecture for NVIDIA GeForce GTX480
GPU with 15 streaming multiprocessors ... a GDDR5 memory bus with 1848 MHz,
384-bit bus bandwidth, and 6 channels ... a pipeline AES encryption engine
with 128-bit block, in which the overall AES encryption latency for a cache
line is 20 cycles and the bandwidth of each AES engine is 8 GB/s"* — one
engine per memory controller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..crypto.counter_cache import CounterCacheConfig
from ..crypto.engine import PAPER_ENGINE, EngineSpec

__all__ = [
    "EncryptionMode",
    "EncryptionConfig",
    "PAPER_SCHEMES",
    "GpuConfig",
    "GTX480_CONFIG",
    "gtx480_config",
]


class EncryptionMode(enum.Enum):
    """Which memory-encryption scheme the memory controllers apply."""

    NONE = "none"
    DIRECT = "direct"
    COUNTER = "counter"


@dataclass(frozen=True)
class EncryptionConfig:
    """Encryption-engine and counter-cache parameters.

    ``selective`` distinguishes SEAL (criticality-tagged requests bypass the
    engine) from full encryption (every request is treated as critical).
    ``authenticate`` additionally models per-line MACs (the integrity half
    of Yan et al. [24]; an extension beyond the paper's confidentiality
    focus): each encrypted line carries ``mac_bytes`` of tag traffic and a
    short verification stage after decryption.
    """

    mode: EncryptionMode = EncryptionMode.NONE
    selective: bool = False
    engine: EngineSpec = PAPER_ENGINE
    counter_cache: CounterCacheConfig = field(default_factory=CounterCacheConfig)
    authenticate: bool = False
    mac_bytes: int = 8
    mac_verify_cycles: int = 4

    @property
    def enabled(self) -> bool:
        return self.mode is not EncryptionMode.NONE

    def label(self) -> str:
        """The scheme name used in the paper's figures."""
        spec = (self.mode, self.selective and self.enabled)
        return next(label for label, entry in PAPER_SCHEMES.items() if entry == spec)


#: The paper's five schemes in figure order: label → (engine mode,
#: selective).  Baseline and full encryption (Section II-B) against SEAL
#: over each engine (Section IV-A); the only place these labels live.
PAPER_SCHEMES: dict[str, tuple[EncryptionMode, bool]] = {
    "Baseline": (EncryptionMode.NONE, False),
    "Direct": (EncryptionMode.DIRECT, False),
    "Counter": (EncryptionMode.COUNTER, False),
    "SEAL-D": (EncryptionMode.DIRECT, True),
    "SEAL-C": (EncryptionMode.COUNTER, True),
}


@dataclass(frozen=True)
class GpuConfig:
    """Cycle-level GPU model parameters (all cycle values in core cycles).

    The defaults model the GTX480 of the paper.  Derived properties convert
    the GDDR5 and AES-engine bandwidths into bytes per core cycle, which is
    the unit the rate-server components operate in.
    """

    name: str = "GTX480"
    num_sms: int = 15
    core_clock_ghz: float = 0.7
    macs_per_sm_per_cycle: int = 32  # 32 CUDA cores per GTX480 SM
    issue_width: int = 1  # retired instructions per SM cycle while busy
    line_bytes: int = 128
    num_channels: int = 6
    # GDDR5 @ 1848 MHz, 384-bit total bus → 64-bit per channel, DDR:
    # 1.848 GHz × 2 × 8 B = 29.568 GB/s per channel (177.4 GB/s total).
    channel_bandwidth_gbps: float = 29.568
    dram_latency_cycles: int = 220
    row_buffer_bytes: int = 2048
    row_miss_penalty_cycles: int = 12
    banks_per_channel: int = 16
    max_outstanding_per_sm: int = 48  # MSHR-style cap on in-flight requests
    encryption: EncryptionConfig = field(default_factory=EncryptionConfig)

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.num_channels <= 0:
            raise ValueError("num_sms and num_channels must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        if self.core_clock_ghz <= 0 or self.channel_bandwidth_gbps <= 0:
            raise ValueError("clocks and bandwidths must be positive")

    # -- derived rates (bytes per core cycle) ---------------------------
    @property
    def channel_bytes_per_cycle(self) -> float:
        return self.channel_bandwidth_gbps / self.core_clock_ghz

    @property
    def total_bandwidth_gbps(self) -> float:
        return self.channel_bandwidth_gbps * self.num_channels

    @property
    def engine_bytes_per_cycle(self) -> float:
        return self.encryption.engine.bytes_per_cycle(self.core_clock_ghz)

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.num_sms * self.macs_per_sm_per_cycle

    @property
    def peak_ipc(self) -> float:
        return self.num_sms * self.issue_width

    def with_encryption(self, encryption: EncryptionConfig) -> "GpuConfig":
        """Copy of this config with a different encryption scheme."""
        return replace(self, encryption=encryption)


#: The paper's evaluated configuration.
GTX480_CONFIG = GpuConfig()


def gtx480_config(
    mode: EncryptionMode | str = EncryptionMode.NONE,
    *,
    selective: bool = False,
    counter_cache_kb: int = 96,
    engine: EngineSpec = PAPER_ENGINE,
) -> GpuConfig:
    """Convenience factory: GTX480 with a chosen encryption scheme.

    ``counter_cache_kb`` is the *total* on-chip counter-cache budget, split
    evenly over the memory controllers (Figure 1 sweeps 24–1536 KB).
    """
    if isinstance(mode, str):
        mode = EncryptionMode(mode)
    per_mc = max(
        CounterCacheConfig().block_bytes * 8,
        counter_cache_kb * 1024 // GTX480_CONFIG.num_channels,
    )
    cache = CounterCacheConfig(size_bytes=per_mc)
    return GTX480_CONFIG.with_encryption(
        EncryptionConfig(mode=mode, selective=selective, engine=engine, counter_cache=cache)
    )
