"""The :class:`ProtectionScheme` interface: one point in protection space.

The paper's SEAL secure engine is a single design point in the space of
encrypted-accelerator memory protections; related work (Seculator's
optimized counter/MAC handling, Tessera's near-line-rate weight
streaming, SeDA's HW/SW synergy) occupies others.  A scheme bundles the
four things the rest of the repo needs to evaluate any of them:

1. **What gets encrypted/authenticated per cache line** — ``selective``
   (criticality-tagged lines bypass the engine, everything else rides
   plaintext) vs. full coverage, and ``authenticated`` (a per-line MAC)
   vs. confidentiality only.
2. **Engine placement and latency hooks** — :meth:`gpu_config` maps
   the scheme onto the cycle model's
   :class:`~repro.sim.config.GpuConfig` (engine mode, coverage, MAC
   verify stage, counter-cache geometry), so the simulator's memory
   controllers, AES engines and counter caches price the scheme without
   any scheme-specific code in the timing loops.
3. **Counter/MAC metadata traffic** — :meth:`metadata_bytes_per_line`
   states the DRAM overhead the scheme adds per protected data line,
   the invariant the property suite checks against simulated traffic.
4. **Detection semantics** — :meth:`fault_classes` /:meth:`detects`
   say which active bus faults the scheme can even express and which it
   must catch; :meth:`effective_ratio` maps a requested encryption
   ratio to the fraction actually hidden from a bus snooper.

Functionally, :meth:`make_sealer` returns the batched line-sealing
pipeline (the serving layer's crypto entry point) for the scheme; all
sealers expose the :class:`~repro.core.seal.LineSealer` API
(``seal_lines`` / ``verify_lines`` / ``open_lines`` plus the
payload-level ``seal`` / ``verify`` / ``unseal``), so the serve layer,
fault campaign and benchmarks swap schemes without special cases.
"""

from __future__ import annotations

import abc
from dataclasses import replace

from ..crypto.counter_cache import CounterCacheConfig
from ..crypto.mac import MAC_BYTES
from ..sim.config import EncryptionMode, GpuConfig, gtx480_config

__all__ = [
    "ProtectionScheme",
    "CtrGmacScheme",
    "DirectScheme",
    "DirectSealer",
]

#: Line granularity every scheme seals at (one bus line of the modelled
#: GDDR5 system — same constant as :data:`repro.core.seal.LINE_BYTES`).
LINE_BYTES = 128


class ProtectionScheme(abc.ABC):
    """One memory-protection design point, swappable across the repo.

    Concrete schemes are immutable value objects registered in
    :mod:`repro.schemes.registry`; everything an instance reports derives
    from the constructor parameters, so two constructions of the same
    scheme are interchangeable (pool workers rebuild them from the name).
    """

    def __init__(
        self,
        name: str,
        title: str,
        *,
        mode: EncryptionMode,
        selective: bool,
        authenticated: bool,
        tag_bytes: int = 0,
        mac_verify_cycles: int = 0,
        data_bytes_per_counter_block: int = 0,
    ) -> None:
        if authenticated and not 4 <= tag_bytes <= 16:
            raise ValueError("authenticated schemes need 4..16 tag bytes")
        if not authenticated and tag_bytes:
            raise ValueError("unauthenticated schemes carry no tag bytes")
        self.name = name
        self.title = title
        self.mode = mode
        self.selective = selective
        self.authenticated = authenticated
        self.tag_bytes = tag_bytes
        self.mac_verify_cycles = mac_verify_cycles
        self.data_bytes_per_counter_block = data_bytes_per_counter_block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

    # -- simulator hooks ------------------------------------------------
    def counter_cache_config(self, *, size_bytes: int | None = None) -> CounterCacheConfig:
        """Counter-cache geometry for one memory controller."""
        base = CounterCacheConfig()
        return CounterCacheConfig(
            size_bytes=size_bytes if size_bytes is not None else base.size_bytes,
            data_bytes_per_counter_block=(
                self.data_bytes_per_counter_block
                or base.data_bytes_per_counter_block
            ),
        )

    def gpu_config(self, *, counter_cache_kb: int = 96) -> GpuConfig:
        """GTX480 configuration running under this scheme.

        ``counter_cache_kb`` is the total on-chip counter budget, split
        over the memory controllers by :func:`repro.sim.config.gtx480_config`;
        the scheme then sets its counter span and MAC parameters.
        """
        config = gtx480_config(
            self.mode, selective=self.selective, counter_cache_kb=counter_cache_kb
        )
        encryption = config.encryption
        return config.with_encryption(
            replace(
                encryption,
                counter_cache=self.counter_cache_config(
                    size_bytes=encryption.counter_cache.size_bytes
                ),
                authenticate=self.authenticated,
                mac_bytes=self.tag_bytes or MAC_BYTES,
                mac_verify_cycles=self.mac_verify_cycles or 4,
            )
        )

    # -- functional crypto ----------------------------------------------
    @abc.abstractmethod
    def make_sealer(
        self,
        key: bytes,
        *,
        line_bytes: int = LINE_BYTES,
        backend: str | None = None,
        tag_bytes: int | None = None,
    ):
        """Batched line sealer for this scheme (LineSealer-compatible API).

        ``tag_bytes`` overrides the scheme's MAC truncation where that is
        meaningful (``None`` = scheme default); unauthenticated schemes
        reject a nonzero override.
        """

    # -- metadata traffic -----------------------------------------------
    def metadata_bytes_per_line(self, line_bytes: int = LINE_BYTES) -> dict[str, float]:
        """DRAM metadata overhead per protected data line, in bytes.

        ``counter``: amortised counter-block share (one ``block_bytes``
        counter block covers ``data_bytes_per_counter_block`` bytes of
        data).  ``mac``: the stored tag.  Plaintext (bypassed) lines carry
        neither — they are unprotected, not differently protected.
        """
        counter = 0.0
        if self.data_bytes_per_counter_block:
            counter = (
                CounterCacheConfig().block_bytes
                * line_bytes
                / self.data_bytes_per_counter_block
            )
        return {"counter": counter, "mac": float(self.tag_bytes)}

    # -- detection semantics --------------------------------------------
    def fault_classes(self) -> tuple[str, ...]:
        """Active-fault classes expressible against this scheme's lines.

        Counter-mode schemes expose the full zoo (stored counters and
        tags are attackable state); direct encryption has no counters and
        no tags, so replay/desync/truncation cannot even be expressed,
        and deterministic re-encryption makes replay a no-op.
        """
        classes = ["bit-flip", "multi-bit-flip", "splice"]
        if self.mode is EncryptionMode.COUNTER:
            classes += ["replay", "counter-desync"]
            if self.authenticated:
                classes.append("mac-truncation")
        return tuple(classes)

    def detects(self, fault: str) -> bool:
        """Must this scheme detect ``fault`` on a protected line?"""
        return self.authenticated and fault in self.fault_classes()

    # -- leakage semantics ----------------------------------------------
    def effective_ratio(self, requested: float) -> float:
        """Encryption ratio actually applied for a requested ratio.

        Selective schemes honour the request (that is the SEAL trade);
        full-coverage schemes encrypt everything regardless.
        """
        if not 0.0 <= requested <= 1.0:
            raise ValueError("encryption ratio must be within [0, 1]")
        return requested if self.selective else 1.0

    def leakage_ratio(self, requested: float) -> float:
        """Upper bound on the kernel-weight fraction a bus snooper reads
        in plaintext (the exact per-model figure comes from
        :meth:`repro.core.seal.SealScheme.snooped_view`)."""
        return 1.0 - self.effective_ratio(requested)

    # -- description ----------------------------------------------------
    def describe(self) -> dict[str, object]:
        """JSON-able summary (benchmark matrix / docs rows)."""
        return {
            "name": self.name,
            "title": self.title,
            "mode": self.mode.value,
            "selective": self.selective,
            "authenticated": self.authenticated,
            "tag_bytes": self.tag_bytes,
            "mac_verify_cycles": self.mac_verify_cycles,
            "data_bytes_per_counter_block": self.data_bytes_per_counter_block,
            "metadata_bytes_per_line": self.metadata_bytes_per_line(),
            "fault_classes": list(self.fault_classes()),
        }


class CtrGmacScheme(ProtectionScheme):
    """Counter-mode encryption with truncated per-line GMAC tags.

    Covers SEAL SE (selective), plain counter-mode+GMAC (full), and
    metadata-optimised variants (wider counter-block coverage, shorter
    tags, shallower verify stage) — the sealer is the existing
    :class:`repro.core.seal.LineSealer`, so the SEAL-SE instance is
    byte-identical to the pre-refactor pipeline by construction (and by
    the differential suite).
    """

    def __init__(
        self,
        name: str,
        title: str,
        *,
        selective: bool,
        tag_bytes: int = MAC_BYTES,
        mac_verify_cycles: int = 4,
        data_bytes_per_counter_block: int = 4096,
    ) -> None:
        super().__init__(
            name,
            title,
            mode=EncryptionMode.COUNTER,
            selective=selective,
            authenticated=True,
            tag_bytes=tag_bytes,
            mac_verify_cycles=mac_verify_cycles,
            data_bytes_per_counter_block=data_bytes_per_counter_block,
        )

    def make_sealer(
        self,
        key: bytes,
        *,
        line_bytes: int = LINE_BYTES,
        backend: str | None = None,
        tag_bytes: int | None = None,
    ):
        from ..core.seal import LineSealer  # deferred: keeps import light

        return LineSealer(
            key,
            tag_bytes=self.tag_bytes if tag_bytes is None else tag_bytes,
            line_bytes=line_bytes,
            backend=backend,
        )


class DirectScheme(ProtectionScheme):
    """XEX-tweaked direct (in-place) encryption: no counters, no MACs."""

    def __init__(self, name: str, title: str, *, selective: bool = False) -> None:
        super().__init__(
            name,
            title,
            mode=EncryptionMode.DIRECT,
            selective=selective,
            authenticated=False,
        )

    def make_sealer(
        self,
        key: bytes,
        *,
        line_bytes: int = LINE_BYTES,
        backend: str | None = None,
        tag_bytes: int | None = None,
    ):
        if tag_bytes:
            raise ValueError(f"{self.name} is unauthenticated; tag_bytes must be 0")
        return DirectSealer(key, line_bytes=line_bytes, backend=backend)


class DirectSealer:
    """Batched direct-encryption sealer (LineSealer-compatible API).

    Encrypts each batch in place with the XEX-tweaked
    :class:`~repro.crypto.modes.DirectEncryptor` (one tweak-cipher and one
    block-cipher call per batch); counters are accepted
    for API compatibility and ignored (direct encryption is
    deterministic per address).  There are no tags: ``tag_bytes`` is 0,
    every returned tag is empty, and every verification verdict is
    vacuously ``True`` — the scheme offers confidentiality only, which is
    exactly the integrity gap the fault campaign measures.
    """

    def __init__(
        self,
        key: bytes,
        *,
        line_bytes: int = LINE_BYTES,
        backend: str | None = None,
    ) -> None:
        from ..crypto.modes import DirectEncryptor

        if line_bytes <= 0 or line_bytes % 16:
            raise ValueError("line_bytes must be a positive multiple of 16")
        self.line_bytes = line_bytes
        self.tag_bytes = 0
        self._encryptor = DirectEncryptor(key, backend=backend)

    @property
    def backend(self) -> str:
        """Resolved crypto backend name (``scalar`` or ``vector``)."""
        return self._encryptor.backend

    # -- line-level batch entry points ----------------------------------
    def seal_lines(self, addresses, counters, lines):
        ciphertexts = self._encryptor.encrypt_lines(addresses, lines)
        return ciphertexts, [b""] * len(ciphertexts)

    def verify_lines(self, addresses, counters, ciphertexts, tags):
        return [True] * len(ciphertexts)

    def open_lines(self, addresses, counters, ciphertexts, tags):
        plaintexts = self._encryptor.decrypt_lines(addresses, ciphertexts)
        return plaintexts, [True] * len(plaintexts)

    # -- payload-level convenience --------------------------------------
    def seal(self, payload: bytes, *, base_address: int = 0, counter: int = 1):
        from ..core.seal import SealedPayload

        if not payload:
            raise ValueError("cannot seal an empty payload")
        padded = payload + bytes(-len(payload) % self.line_bytes)
        lines = [
            padded[offset : offset + self.line_bytes]
            for offset in range(0, len(padded), self.line_bytes)
        ]
        addresses = [
            base_address + index * self.line_bytes for index in range(len(lines))
        ]
        ciphertexts, tags = self.seal_lines(addresses, [counter] * len(lines), lines)
        return SealedPayload(
            base_address=base_address,
            counter=counter,
            length=len(payload),
            line_bytes=self.line_bytes,
            ciphertext=b"".join(ciphertexts),
            tags=tuple(tags),
        )

    def verify(self, sealed) -> list[bool]:
        return [True] * sealed.n_lines

    def unseal(self, sealed) -> bytes:
        if sealed.line_bytes != self.line_bytes:
            raise ValueError(
                f"payload uses {sealed.line_bytes}-byte lines, "
                f"sealer uses {self.line_bytes}"
            )
        counters = [sealed.counter] * sealed.n_lines
        plaintexts, _ = self.open_lines(
            sealed.addresses(), counters, sealed.lines(), list(sealed.tags)
        )
        return b"".join(plaintexts)[: sealed.length]
