"""Memory request/response types exchanged between SMs and controllers."""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Access", "MemRequest"]


class Access(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True)
class MemRequest:
    """One coalesced memory transaction.

    ``size`` may span several cache lines (a warp-coalesced burst); the
    memory controller charges bandwidth per byte and counter-cache lookups
    per line.  ``encrypted`` is the criticality tag assigned by the SEAL
    plan through the :class:`repro.core.memory.SecureHeap` address map —
    under full encryption every request is tagged encrypted.
    """

    address: int
    size: int
    access: Access
    encrypted: bool
    sm_id: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"request size must be positive, got {self.size}")
        if self.address < 0:
            raise ValueError("address must be non-negative")

    @property
    def is_read(self) -> bool:
        return self.access is Access.READ

    def lines(self, line_bytes: int) -> int:
        """Number of cache lines this request touches."""
        first = self.address // line_bytes
        last = (self.address + self.size - 1) // line_bytes
        return int(last - first + 1)
