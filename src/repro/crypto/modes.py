"""Memory-encryption modes of operation used in secure processors.

Two schemes from the paper (Section II-B, following Yan et al. [24]):

* **Direct encryption** — each cache line is encrypted in place with the
  block cipher.  To avoid identical plaintext lines producing identical
  ciphertext at different addresses we use an address tweak (an XEX/XTS-style
  construction: the line address, encrypted, is XORed into each block before
  and after the cipher).  Decryption sits on the critical read path, which is
  why direct encryption adds the AES latency to every memory read.

* **Counter-mode encryption** — each line has a counter (major + per-line
  minor, see :mod:`repro.crypto.counter_cache`); the pad
  ``AES_K(address ‖ counter)`` is XORed with the data.  If the counter is
  cached on chip, pad generation overlaps the DRAM access and only the XOR is
  on the critical path; on a counter-cache miss an extra memory access is
  needed — the effect Figure 1 of the paper measures.

Both operate on whole cache lines (any multiple of 16 bytes; counter mode
accepts arbitrary lengths, the keystream tail is truncated).

Both encryptors accept ``backend="scalar" | "vector" | None``
(:mod:`repro.crypto.fastpath`): ``scalar`` is the readable pure-Python
oracle, ``vector`` the NumPy batch implementation; ``None`` defers to the
``REPRO_CRYPTO_BACKEND`` environment variable and then the ``vector``
default.  Output is byte-identical across backends — the differential
conformance suite pins it.  The batched line APIs
(:meth:`CounterModeEncryptor.encrypt_lines` /
:meth:`~CounterModeEncryptor.decrypt_lines` and the
:class:`DirectEncryptor` pair of the same names) push whole batches of
lines through one cipher call, which is where the vector backend earns its
keep (``benchmarks/bench_crypto_throughput.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.trace import instrument
from .aes import BLOCK_SIZE
from .fastpath import block_backend, ctr_seeds, u64_array

__all__ = ["DirectEncryptor", "CounterModeEncryptor"]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings, truncated to the shorter one (as ``zip``)."""
    n = min(len(a), len(b))
    return (
        int.from_bytes(a[:n], "little") ^ int.from_bytes(b[:n], "little")
    ).to_bytes(n, "little")


def _split(data: bytes, length: int) -> list[bytes]:
    return [data[offset : offset + length] for offset in range(0, len(data), length)]


def _batch_length(lines: Sequence[bytes]) -> int:
    length = len(lines[0])
    if any(len(line) != length for line in lines):
        raise ValueError("batched lines must share one length")
    return length


class DirectEncryptor:
    """XEX-tweaked direct (in-place) cache-line encryption.

    Parameters
    ----------
    key:
        AES key (16/24/32 bytes).
    tweak_key:
        Separate key used to derive the per-address tweak; defaults to the
        data key with all bytes inverted, which keeps the two schedules
        distinct without requiring callers to manage a second secret.
    backend:
        Crypto backend name (``None`` = environment/default selection).
    """

    def __init__(
        self,
        key: bytes,
        tweak_key: bytes | None = None,
        *,
        backend: str | None = None,
    ) -> None:
        self._cipher = block_backend(key, backend)
        if tweak_key is None:
            tweak_key = bytes(b ^ 0xFF for b in key)
        self._tweak_cipher = block_backend(tweak_key, self.backend)
        get_metrics().count(f"crypto.backend.{self.backend}")

    @property
    def backend(self) -> str:
        """Resolved backend name (``scalar`` or ``vector``)."""
        return self._cipher.name

    def _xex(
        self,
        op: str,
        addresses: Sequence[int],
        data: bytes,
        n_blocks: int,
        *,
        decrypt: bool,
    ) -> bytes:
        """Tweak → cipher → tweak over ``n_blocks`` blocks per address.

        One tweak-cipher call and one block-cipher call, however many
        lines ``addresses`` names.
        """
        metrics = get_metrics()
        blocks = len(addresses) * n_blocks
        attrs = {"op": op, "blocks": blocks, "backend": self.backend}
        if op == "batch":
            attrs["lines"] = len(addresses)
        with instrument("crypto.direct", attrs):
            material = np.zeros((len(addresses), n_blocks, 2), dtype="<u8")
            material[..., 0] = u64_array(addresses)[:, None]
            material[..., 1] = np.arange(n_blocks, dtype=np.uint64)
            tweaks = self._tweak_cipher.encrypt_many(material.tobytes())
            cipher = self._cipher.decrypt_many if decrypt else self._cipher.encrypt_many
            out = cipher(_xor_bytes(data, tweaks))
            metrics.count("crypto.direct.blocks", blocks)
            return _xor_bytes(out, tweaks)

    def encrypt_line(self, address: int, plaintext: bytes) -> bytes:
        """Encrypt a cache line stored at ``address``."""
        self._check_length(plaintext)
        n_blocks = len(plaintext) // BLOCK_SIZE
        return self._xex("encrypt", [address], plaintext, n_blocks, decrypt=False)

    def decrypt_line(self, address: int, ciphertext: bytes) -> bytes:
        """Decrypt a cache line stored at ``address``."""
        self._check_length(ciphertext)
        n_blocks = len(ciphertext) // BLOCK_SIZE
        return self._xex("decrypt", [address], ciphertext, n_blocks, decrypt=True)

    def encrypt_lines(
        self, addresses: Sequence[int], lines: Sequence[bytes]
    ) -> list[bytes]:
        """Encrypt a batch of equal-length lines in one pass."""
        return self._process_lines(addresses, lines, decrypt=False)

    def decrypt_lines(
        self, addresses: Sequence[int], lines: Sequence[bytes]
    ) -> list[bytes]:
        """Decrypt a batch of equal-length lines in one pass."""
        return self._process_lines(addresses, lines, decrypt=True)

    def _process_lines(
        self, addresses: Sequence[int], lines: Sequence[bytes], *, decrypt: bool
    ) -> list[bytes]:
        if len(addresses) != len(lines):
            raise ValueError("addresses and lines must align")
        if not lines:
            return []
        length = _batch_length(lines)
        self._check_length(lines[0])
        out = self._xex(
            "batch", addresses, b"".join(lines), length // BLOCK_SIZE, decrypt=decrypt
        )
        return _split(out, length)

    @staticmethod
    def _check_length(data: bytes) -> None:
        if not data or len(data) % BLOCK_SIZE:
            raise ValueError(
                f"line length must be a positive multiple of {BLOCK_SIZE}, "
                f"got {len(data)}"
            )


class CounterModeEncryptor:
    """Counter-mode cache-line encryption with a per-line counter.

    The one-time pad for a line is ``AES_K(address ‖ counter ‖ block_index)``
    per 16-byte block.  Reusing a (address, counter) pair would reuse the
    pad, so callers must bump the counter on every write-back; the
    :class:`repro.crypto.counter_cache.CounterCache` tracks these counters
    and this class checks pad-uniqueness in debug mode.
    """

    def __init__(
        self,
        key: bytes,
        *,
        track_pad_reuse: bool = False,
        backend: str | None = None,
    ) -> None:
        self._cipher = block_backend(key, backend)
        self._track_pad_reuse = track_pad_reuse
        self._seen_pads: set[tuple[int, int]] = set()
        get_metrics().count(f"crypto.backend.{self.backend}")

    @property
    def backend(self) -> str:
        """Resolved backend name (``scalar`` or ``vector``)."""
        return self._cipher.name

    def _pad(self, address: int, counter: int, length: int) -> bytes:
        n_blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
        seeds = ctr_seeds([address], [counter], n_blocks)
        pad = self._cipher.encrypt_many(seeds)
        get_metrics().count("crypto.ctr.blocks", n_blocks)
        return pad[:length]

    def keystream(self, address: int, counter: int, length: int) -> bytes:
        """The CTR keystream for one line — exposed so the conformance
        suite can compare backends on the pad itself, not only on XORed
        ciphertext."""
        with instrument("crypto.ctr", {"op": "keystream", "backend": self.backend}):
            return self._pad(address, counter, length)

    def _note_pad(self, address: int, counter: int) -> None:
        pair = (address, counter)
        if pair in self._seen_pads:
            raise ValueError(
                f"pad reuse detected for address={address:#x} counter={counter}"
            )
        self._seen_pads.add(pair)

    def encrypt_line(self, address: int, counter: int, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` at ``address`` using ``counter``.

        The caller is responsible for incrementing the counter before each
        new write to the same address (pad reuse breaks confidentiality).
        """
        if self._track_pad_reuse:
            self._note_pad(address, counter)
        with instrument("crypto.ctr", {"op": "encrypt", "backend": self.backend}):
            return _xor_bytes(plaintext, self._pad(address, counter, len(plaintext)))

    def decrypt_line(self, address: int, counter: int, ciphertext: bytes) -> bytes:
        """Decrypt ``ciphertext`` at ``address`` using ``counter``."""
        with instrument("crypto.ctr", {"op": "decrypt", "backend": self.backend}):
            return _xor_bytes(ciphertext, self._pad(address, counter, len(ciphertext)))

    # ------------------------------------------------------------------
    # Batched line APIs (one cipher call per batch — the vector backend's
    # fast path; the scalar backend loops but produces identical bytes)
    # ------------------------------------------------------------------
    def encrypt_lines(
        self,
        addresses: Sequence[int],
        counters: Sequence[int],
        lines: Sequence[bytes],
    ) -> list[bytes]:
        """Encrypt a batch of equal-length lines in one keystream pass."""
        return self._process_lines(addresses, counters, lines, track=True)

    def decrypt_lines(
        self,
        addresses: Sequence[int],
        counters: Sequence[int],
        lines: Sequence[bytes],
    ) -> list[bytes]:
        """Decrypt a batch of equal-length lines in one keystream pass."""
        return self._process_lines(addresses, counters, lines, track=False)

    def _process_lines(
        self,
        addresses: Sequence[int],
        counters: Sequence[int],
        lines: Sequence[bytes],
        *,
        track: bool,
    ) -> list[bytes]:
        if not (len(addresses) == len(counters) == len(lines)):
            raise ValueError("addresses, counters and lines must align")
        if not lines:
            return []
        length = _batch_length(lines)
        if track and self._track_pad_reuse:
            for address, counter in zip(addresses, counters):
                self._note_pad(address, counter)
        n_blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
        padded = n_blocks * BLOCK_SIZE
        metrics = get_metrics()
        blocks = n_blocks * len(lines)
        attrs = dict(op="batch", lines=len(lines), blocks=blocks, backend=self.backend)
        with instrument("crypto.ctr", attrs):
            pad = self._cipher.encrypt_many(
                ctr_seeds(addresses, counters, n_blocks)
            )
            if padded != length:
                pad = (
                    np.frombuffer(pad, dtype=np.uint8)
                    .reshape(len(lines), padded)[:, :length]
                    .tobytes()
                )
            metrics.count("crypto.ctr.blocks", blocks)
            return _split(_xor_bytes(b"".join(lines), pad), length)
