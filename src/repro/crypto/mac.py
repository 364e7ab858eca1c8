"""GHASH-based memory authentication (the integrity half of [24]).

The paper targets confidentiality only, but its memory-encryption baseline
(Yan et al., ISCA'06 [24]) covers *encryption and authentication*: secure
processors pair counter-mode encryption with a per-line MAC so a physical
adversary cannot splice or replay bus traffic undetected.  This module
provides the functional MAC the extension benches use:

* :func:`ghash` — the GF(2^128) polynomial hash from NIST SP 800-38D
  (GCM), implemented from scratch and validated against GCM test vectors;
* :class:`LineAuthenticator` — per-line GMAC-style tags binding ciphertext
  to (address, counter), so moved or replayed lines fail verification.

Like the encryption modes, :class:`LineAuthenticator` accepts
``backend="scalar" | "vector" | None``: the scalar path is the bit-by-bit
:func:`gf128_mul` oracle below, the vector path uses the precomputed
GF(2^128) byte tables of :class:`repro.crypto.fastpath.GF128Table` and
computes batches of line tags lane-parallel (:meth:`LineAuthenticator
.tag_lines`).  Tags are byte-identical across backends.

The performance model charges authentication as extra engine occupancy and
MAC traffic inside :class:`repro.sim.memctrl.MemoryController` when the
``authenticate`` option of :class:`repro.sim.config.EncryptionConfig` is
enabled.
"""

from __future__ import annotations

import hmac
import struct
from typing import Sequence

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from .aes import BLOCK_SIZE
from .fastpath import GF128Table, block_backend, u64_array

__all__ = ["gf128_mul", "ghash", "LineAuthenticator", "MAC_BYTES"]

MAC_BYTES = 8
"""Truncated per-line MAC size (64-bit tags, the common choice in secure
memories — a full 16-byte tag doubles metadata traffic for little gain)."""

# GHASH reduction polynomial: x^128 + x^7 + x^2 + x + 1 (bit-reflected
# convention of SP 800-38D: the polynomial appears as 0xE1 << 120).
_R = 0xE1000000000000000000000000000000


def gf128_mul(x: int, y: int) -> int:
    """Multiply two elements of GF(2^128) in the GCM bit convention."""
    z = 0
    v = x
    for bit_index in range(128):
        if (y >> (127 - bit_index)) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def ghash(key_h: bytes, data: bytes) -> bytes:
    """GHASH_H(data) over 16-byte blocks (zero-padded), per SP 800-38D."""
    if len(key_h) != 16:
        raise ValueError("GHASH key must be 16 bytes")
    h = int.from_bytes(key_h, "big")
    y = 0
    padded = data + bytes(-len(data) % 16)
    for offset in range(0, len(padded), 16):
        block = int.from_bytes(padded[offset : offset + 16], "big")
        y = gf128_mul(y ^ block, h)
    return y.to_bytes(16, "big")


class LineAuthenticator:
    """GMAC-style per-line authentication for encrypted memory.

    The tag binds the ciphertext to its address and write counter:

        tag = truncate( GHASH_H(ciphertext ‖ len) XOR AES_K(addr ‖ ctr) )

    so replaying an old ciphertext (stale counter) or relocating a line
    (wrong address) yields a verification failure.  ``H = AES_K(0^128)``
    as in GCM.
    """

    def __init__(
        self,
        key: bytes,
        tag_bytes: int = MAC_BYTES,
        *,
        backend: str | None = None,
    ) -> None:
        if not 4 <= tag_bytes <= 16:
            raise ValueError("tag must be between 4 and 16 bytes")
        self._cipher = block_backend(key, backend)
        self._h = self._cipher.encrypt_block(bytes(16))
        self._gf = GF128Table(self._h) if self.backend == "vector" else None
        self.tag_bytes = tag_bytes
        get_metrics().count(f"crypto.backend.{self.backend}")

    @property
    def backend(self) -> str:
        """Resolved backend name (``scalar`` or ``vector``)."""
        return self._cipher.name

    def _mask(self, address: int, counter: int) -> bytes:
        seed = struct.pack(
            "<QQ", address & 0xFFFFFFFFFFFFFFFF, counter & 0xFFFFFFFFFFFFFFFF
        )
        return self._cipher.encrypt_block(seed)

    def _digest(self, ciphertext: bytes) -> bytes:
        length_block = struct.pack(">QQ", 0, len(ciphertext) * 8)
        data = ciphertext + length_block
        if self._gf is not None:
            return self._gf.ghash(data)
        return ghash(self._h, data)

    def tag(self, address: int, counter: int, ciphertext: bytes) -> bytes:
        """Authentication tag for a ciphertext line."""
        metrics = get_metrics()
        with metrics.timer("crypto.gmac"), get_tracer().span("crypto.gmac") as span:
            if span:
                span.set_attr("op", "tag")
                span.set_attr("backend", self.backend)
            digest = self._digest(ciphertext)
            mask = self._mask(address, counter)
            metrics.count("crypto.gmac.tags")
            full = bytes(d ^ m for d, m in zip(digest, mask))
            return full[: self.tag_bytes]

    def tag_lines(
        self,
        addresses: Sequence[int],
        counters: Sequence[int],
        ciphertexts: Sequence[bytes],
    ) -> list[bytes]:
        """Tags for a batch of equal-length ciphertext lines.

        On the vector backend the GHASH recurrence runs once per block
        position with every line in a lane, and all masks come from one
        batched AES call; the scalar backend loops :meth:`tag`.  Both
        return the same bytes.
        """
        if not (len(addresses) == len(counters) == len(ciphertexts)):
            raise ValueError("addresses, counters and ciphertexts must align")
        if not ciphertexts:
            return []
        if self._gf is None:
            return [
                self.tag(address, counter, ciphertext)
                for address, counter, ciphertext in zip(
                    addresses, counters, ciphertexts
                )
            ]
        length = len(ciphertexts[0])
        if any(len(ciphertext) != length for ciphertext in ciphertexts):
            raise ValueError("batched ciphertext lines must share one length")
        metrics = get_metrics()
        with metrics.timer("crypto.gmac"), get_tracer().span("crypto.gmac") as span:
            if span:
                span.set_attr("op", "tag_lines")
                span.set_attr("lines", len(ciphertexts))
                span.set_attr("backend", self.backend)
            # Each lane is ciphertext ‖ length block, zero-padded to blocks.
            n = len(ciphertexts)
            width = length + BLOCK_SIZE + (-length % BLOCK_SIZE)
            stream = np.zeros((n, width), dtype=np.uint8)
            stream[:, :length] = np.frombuffer(
                b"".join(ciphertexts), dtype=np.uint8
            ).reshape(n, length)
            stream[:, length : length + BLOCK_SIZE] = np.frombuffer(
                struct.pack(">QQ", 0, length * 8), dtype=np.uint8
            )
            digests = self._gf.ghash_many(stream.reshape(n, -1, BLOCK_SIZE))
            seeds = np.stack([u64_array(addresses), u64_array(counters)], axis=1)
            masks = np.frombuffer(
                self._cipher.encrypt_many(seeds.astype("<u8").tobytes()),
                dtype=np.uint8,
            ).reshape(n, BLOCK_SIZE)
            metrics.count("crypto.gmac.tags", n)
            tags = (digests ^ masks)[:, : self.tag_bytes].tobytes()
            return [
                tags[offset : offset + self.tag_bytes]
                for offset in range(0, len(tags), self.tag_bytes)
            ]

    def verify(self, address: int, counter: int, ciphertext: bytes, tag: bytes) -> bool:
        """Constant-shape verification (returns False on any mismatch)."""
        expected = self.tag(address, counter, ciphertext)
        return self._compare(expected, tag)

    def verify_lines(
        self,
        addresses: Sequence[int],
        counters: Sequence[int],
        ciphertexts: Sequence[bytes],
        tags: Sequence[bytes],
    ) -> list[bool]:
        """Batched verification: one boolean per line, one tag pass.

        Recomputes every expected tag through :meth:`tag_lines` (on the
        vector backend: a single lane-parallel GHASH plus one batched AES
        call for the whole batch) and compares constant-shape per line.
        This is the entry point the serving batcher amortizes lane setup
        through (:mod:`repro.serve.batcher`).
        """
        if len(tags) != len(ciphertexts):
            raise ValueError("ciphertexts and tags must align")
        expected = self.tag_lines(addresses, counters, ciphertexts)
        return [
            self._compare(want, got) for want, got in zip(expected, tags)
        ]

    @staticmethod
    def _compare(expected: bytes, tag: bytes) -> bool:
        return hmac.compare_digest(expected, tag)
