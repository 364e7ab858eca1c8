"""Vectorized AES/CTR/GMAC fast path, validated against the scalar oracle.

The scalar datapath (:mod:`repro.crypto.aes`, :func:`repro.crypto.mac.ghash`)
is deliberately readable, spec-first Python — and therefore the wall-clock
bottleneck of everything that functionally encrypts memory lines: the
fault-injection campaign tampering with real ciphertext, the end-to-end
encrypted-memory pipeline, and the throughput benches.  This module keeps the
scalar implementation as the *reference oracle* and adds a NumPy batch
implementation of the same primitives:

* :class:`VectorAES` — T-table AES (fused SubBytes/ShiftRows/MixColumns per
  round, tables derived from the computed S-box, round keys from the scalar
  key schedule) encrypting/decrypting **batches of 16-byte blocks across
  array lanes**.  Each round is one gather from a flat 1024-entry table for
  all 16 bytes of every block plus one XOR-reduce — no per-column loop;
* :class:`GF128Table` — Shoup-style byte tables for multiplication by a
  fixed GHASH key ``H`` in GF(2^128), with a lane-parallel GHASH for
  equal-length lines (the GMAC shape used by per-line authentication) that
  costs one gather and one XOR-reduce per block position;
* :func:`block_backend` — the backend selector the modes
  (:mod:`repro.crypto.modes`) and the authenticator
  (:mod:`repro.crypto.mac`) are parameterised over.

Backend selection: every consumer takes ``backend="scalar" | "vector" |
None``; ``None`` defers to the ``REPRO_CRYPTO_BACKEND`` environment variable
and finally to :data:`DEFAULT_BACKEND` (``vector``).  Both backends produce
**byte-identical** output for every operation — the differential conformance
suite (``tests/crypto/test_backend_conformance.py``) pins FIPS-197 /
SP 800-38A vectors and seeded randomized equality between them, so the fast
path is never trusted beyond what the slow oracle confirms.

>>> from repro.crypto.aes import AES
>>> key = bytes(range(16))
>>> block = bytes.fromhex("00112233445566778899aabbccddeeff")
>>> VectorAES(key).encrypt_block(block) == AES(key).encrypt_block(block)
True
>>> resolve_backend("scalar")
'scalar'
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .aes import AES, BLOCK_SIZE, INV_SBOX, SBOX, gf_mul

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "resolve_backend",
    "VectorAES",
    "ScalarBlockBackend",
    "VectorBlockBackend",
    "block_backend",
    "GF128Table",
    "ctr_seeds",
    "u64_array",
]

#: Environment variable overriding the default backend for consumers that
#: were not given an explicit ``backend=``.
ENV_VAR = "REPRO_CRYPTO_BACKEND"

#: Recognised backend names, in (oracle, fast path) order.
BACKENDS = ("scalar", "vector")

#: Backend used when neither ``backend=`` nor the environment selects one.
DEFAULT_BACKEND = "vector"


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to a concrete name.

    Precedence: explicit ``backend`` argument, then the
    :data:`ENV_VAR` environment variable, then :data:`DEFAULT_BACKEND`.
    """
    if backend is None:
        backend = os.environ.get(ENV_VAR, "").strip() or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown crypto backend {backend!r}; choose from "
            f"{', '.join(BACKENDS)} (explicit backend= argument or the "
            f"{ENV_VAR} environment variable)"
        )
    return backend


# ----------------------------------------------------------------------
# Flat round tables (derived from the computed S-box, not pasted)
# ----------------------------------------------------------------------
def _flat_table(columns: Sequence[Sequence[int]]) -> np.ndarray:
    """``(4·256,)`` uint32 round table from one ``(4, 256)`` byte column.

    ``columns[r][x]`` is the byte that input value ``x`` contributes to
    output row ``r`` when it sits in row 0; entry ``256·i + x`` holds that
    column rotated down by ``i`` rows (the input's own row), packed so the
    uint32's *memory* bytes are output rows 0..3.  A round's output words
    therefore view straight back as state bytes on any host byte order.
    """
    column = np.array(columns, dtype=np.uint8).T
    rows = [np.roll(column, i, axis=1) for i in range(4)]
    return np.ascontiguousarray(np.concatenate(rows)).view(np.uint32).ravel()


_SBOX = list(SBOX)
_INV_SBOX = list(INV_SBOX)
_ZERO = [0] * 256
#: MixColumns ∘ SubBytes: column ``(2·S[x], S[x], S[x], 3·S[x])``.
_TE = _flat_table(
    [[gf_mul(s, 2) for s in _SBOX], _SBOX, _SBOX, [gf_mul(s, 3) for s in _SBOX]]
)
#: InvMixColumns ∘ InvSubBytes (equivalent inverse cipher):
#: column ``(14·v, 9·v, 13·v, 11·v)`` with ``v = S⁻¹[x]``.
_TD = _flat_table([[gf_mul(v, m) for v in _INV_SBOX] for m in (14, 9, 13, 11)])
#: Final rounds (no MixColumns): the S-box byte alone, in the input's row.
_TE_FINAL = _flat_table([_SBOX, _ZERO, _ZERO, _ZERO])
_TD_FINAL = _flat_table([_INV_SBOX, _ZERO, _ZERO, _ZERO])

#: Slot ``4·j + i`` of a round feeds output column ``j`` from input row
#: ``i``, which ShiftRows reads from column ``j + i`` (InvShiftRows
#: ``j - i``); the row offset ``256·i`` selects that row's quarter of a
#: flat table.
_ROWS = np.arange(4)
_SLOT_ROW = np.tile(_ROWS, 4)
_ENC_COLUMN = ((_ROWS[:, None] + _ROWS) % 4).ravel()
_DEC_COLUMN = ((_ROWS[:, None] - _ROWS) % 4).ravel()
_ROW_OFFSETS = (256 * _SLOT_ROW)[:, None]


def _round(
    words: np.ndarray, columns: np.ndarray, table: np.ndarray, key: np.ndarray
) -> np.ndarray:
    """One whole-batch AES round over ``(4, n)`` column words.

    One gather of all 16 byte indices of every block, one flat-table
    lookup, one XOR-reduce over the four rows feeding each column.
    """
    n = words.shape[1]
    state = words.view(np.uint8).reshape(4, n, 4)  # [column, block, row]
    looked_up = table[state[columns, :, _SLOT_ROW] + _ROW_OFFSETS]
    return np.bitwise_xor.reduce(looked_up.reshape(4, 4, n), axis=1) ^ key[:, None]


class VectorAES:
    """Batched AES over NumPy lanes, byte-identical to :class:`~repro.crypto.aes.AES`.

    The key schedule is *reused* from the scalar implementation (one source
    of truth for FIPS-197 key expansion); only the round function is
    re-expressed.  The batch is held as ``(4, n)`` uint32 column words and
    each round is one flat-table gather over every byte of every block
    plus one XOR-reduce.  Encryption and decryption share :func:`_round`
    and differ only in column map, tables and key schedule; there is no
    per-column loop, so a pass costs a fixed number of NumPy calls per
    round whatever the batch size.
    """

    def __init__(self, key: bytes) -> None:
        scalar = AES(key)
        self.key = scalar.key
        self.rounds = scalar.rounds
        # Round keys as native uint32 views of their bytes, like the state.
        self._enc_keys = np.array(scalar._round_keys, dtype=np.uint8).view(np.uint32)
        # Equivalent inverse cipher: middle-round keys pass through
        # InvMixColumns once, so decryption can use the TD table directly;
        # stored in the order decryption applies them.
        inv_keys = [list(rk) for rk in scalar._round_keys]
        for round_index in range(1, self.rounds):
            AES._inv_mix_columns(inv_keys[round_index])
        self._dec_keys = np.array(inv_keys[::-1], dtype=np.uint8).view(np.uint32)

    @staticmethod
    def _cipher(
        blocks: np.ndarray,
        keys: np.ndarray,
        columns: np.ndarray,
        table: np.ndarray,
        final: np.ndarray,
    ) -> np.ndarray:
        blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
        if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
            raise ValueError(
                f"expected an (n, {BLOCK_SIZE}) byte array, got {blocks.shape}"
            )
        words = np.ascontiguousarray(blocks.view(np.uint32).T) ^ keys[0][:, None]
        for key in keys[1:-1]:
            words = _round(words, columns, table, key)
        words = _round(words, columns, final, keys[-1])
        return np.ascontiguousarray(words.T).view(np.uint8)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(n, 16)`` uint8 batch; returns the same shape."""
        return self._cipher(blocks, self._enc_keys, _ENC_COLUMN, _TE, _TE_FINAL)

    def decrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Decrypt an ``(n, 16)`` uint8 batch; returns the same shape."""
        return self._cipher(blocks, self._dec_keys, _DEC_COLUMN, _TD, _TD_FINAL)

    # ------------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        """Single-block convenience wrapper (scalar-API compatible)."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        batch = np.frombuffer(block, dtype=np.uint8).reshape(1, BLOCK_SIZE)
        return self.encrypt_blocks(batch).tobytes()

    def decrypt_block(self, block: bytes) -> bytes:
        """Single-block convenience wrapper (scalar-API compatible)."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        batch = np.frombuffer(block, dtype=np.uint8).reshape(1, BLOCK_SIZE)
        return self.decrypt_blocks(batch).tobytes()


# ----------------------------------------------------------------------
# Block-cipher backends (what modes.py / mac.py are parameterised over)
# ----------------------------------------------------------------------
def _check_many(data: bytes) -> None:
    if len(data) % BLOCK_SIZE:
        raise ValueError(
            f"batched input must be a multiple of {BLOCK_SIZE} bytes, "
            f"got {len(data)}"
        )


class ScalarBlockBackend:
    """The pure-Python oracle: block-at-a-time loops over :class:`AES`."""

    name = "scalar"

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        self.key = self._aes.key

    def encrypt_block(self, block: bytes) -> bytes:
        return self._aes.encrypt_block(block)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._aes.decrypt_block(block)

    def encrypt_many(self, data: bytes) -> bytes:
        """Encrypt concatenated 16-byte blocks, one ECB pass per block."""
        _check_many(data)
        return b"".join(
            self._aes.encrypt_block(data[offset : offset + BLOCK_SIZE])
            for offset in range(0, len(data), BLOCK_SIZE)
        )

    def decrypt_many(self, data: bytes) -> bytes:
        _check_many(data)
        return b"".join(
            self._aes.decrypt_block(data[offset : offset + BLOCK_SIZE])
            for offset in range(0, len(data), BLOCK_SIZE)
        )


class VectorBlockBackend:
    """The NumPy fast path: whole batches per round through :class:`VectorAES`."""

    name = "vector"

    def __init__(self, key: bytes) -> None:
        self._aes = VectorAES(key)
        self.key = self._aes.key

    def encrypt_block(self, block: bytes) -> bytes:
        return self._aes.encrypt_block(block)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._aes.decrypt_block(block)

    def encrypt_many(self, data: bytes) -> bytes:
        _check_many(data)
        if not data:
            return b""
        blocks = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
        return self._aes.encrypt_blocks(blocks).tobytes()

    def decrypt_many(self, data: bytes) -> bytes:
        _check_many(data)
        if not data:
            return b""
        blocks = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
        return self._aes.decrypt_blocks(blocks).tobytes()


def block_backend(
    key: bytes, backend: str | None = None
) -> ScalarBlockBackend | VectorBlockBackend:
    """Instantiate the selected block-cipher backend for ``key``."""
    name = resolve_backend(backend)
    if name == "scalar":
        return ScalarBlockBackend(key)
    return VectorBlockBackend(key)


# ----------------------------------------------------------------------
# GF(2^128) multiplication tables (GMAC fast path)
# ----------------------------------------------------------------------
#: GHASH reduction constant of SP 800-38D (x^128 + x^7 + x^2 + x + 1 in the
#: bit-reflected convention) — mirrors ``repro.crypto.mac._R``.
_R_INT = 0xE1000000000000000000000000000000
#: Row offset of byte ``j`` in the flat ``(16·256, 2)`` table view.
_GF_OFFSETS = (256 * np.arange(BLOCK_SIZE))[:, None]


class GF128Table:
    """Byte-sliced multiplication tables for a fixed GHASH key ``H``.

    ``table[j][v]`` holds ``(v · x^(8j)) • H``, so a full 128×128-bit
    product is the XOR of 16 table rows.  Viewed flat as ``(16·256, 2)``
    uint64, those 16 rows come out of **one gather** and fold with one
    XOR-reduce — and the gather vectorizes across *lanes*:
    :meth:`ghash_many` runs the sequential GHASH recurrence once per block
    position while every line in the batch moves in parallel.
    """

    def __init__(self, key_h: bytes) -> None:
        if len(key_h) != BLOCK_SIZE:
            raise ValueError("GHASH key must be 16 bytes")
        self.key_h = bytes(key_h)
        # powers[i] = H · x^i (one right shift per step in the bit-reflected
        # convention), as byte rows.
        power = int.from_bytes(key_h, "big")
        powers = np.zeros((128, BLOCK_SIZE), dtype=np.uint8)
        for index in range(128):
            powers[index] = np.frombuffer(power.to_bytes(16, "big"), dtype=np.uint8)
            power = (power >> 1) ^ (_R_INT if power & 1 else 0)
        table = np.zeros((BLOCK_SIZE, 256, BLOCK_SIZE), dtype=np.uint8)
        values = np.arange(256)
        for j in range(BLOCK_SIZE):
            for bit in range(8):
                selected = ((values >> bit) & 1).astype(bool)
                table[j, selected] ^= powers[8 * j + 7 - bit]
        self._table = table
        self._flat = table.reshape(BLOCK_SIZE * 256, BLOCK_SIZE).view(np.uint64)

    def _mul(self, x: np.ndarray) -> np.ndarray:
        # Index byte-major so the reduce folds 16 contiguous (n, 2) slabs.
        looked_up = self._flat[x.T + _GF_OFFSETS]
        return np.bitwise_xor.reduce(looked_up, axis=0).view(np.uint8)

    def mul_many(self, x: np.ndarray) -> np.ndarray:
        """Multiply each ``(n, 16)`` lane by ``H`` in GF(2^128)."""
        return self._mul(np.ascontiguousarray(x, dtype=np.uint8))

    def ghash_many(self, blocks: np.ndarray) -> np.ndarray:
        """GHASH over ``(n, m, 16)`` pre-padded blocks, lane-parallel.

        Every lane runs the same-length recurrence
        ``y = (y ^ block) • H`` over its ``m`` blocks: one gather and one
        XOR-reduce per block position.
        """
        blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
        if blocks.ndim != 3 or blocks.shape[2] != BLOCK_SIZE:
            raise ValueError(
                f"expected an (n, m, {BLOCK_SIZE}) block array, got {blocks.shape}"
            )
        y = np.zeros((blocks.shape[0], BLOCK_SIZE), dtype=np.uint8)
        for position in range(blocks.shape[1]):
            y = self._mul(y ^ blocks[:, position])
        return y

    def ghash(self, data: bytes) -> bytes:
        """Single-shot GHASH of ``data`` (zero-padded), table-driven."""
        padded = data + bytes(-len(data) % BLOCK_SIZE)
        blocks = np.frombuffer(padded, dtype=np.uint8).reshape(
            1, -1, BLOCK_SIZE
        )
        if blocks.shape[1] == 0:
            return bytes(BLOCK_SIZE)
        return self.ghash_many(blocks)[0].tobytes()


# ----------------------------------------------------------------------
# Batched CTR seed construction (shared by modes.py and the benches)
# ----------------------------------------------------------------------
_U64 = 0xFFFFFFFFFFFFFFFF


def u64_array(values: Sequence[int]) -> np.ndarray:
    """Python ints reduced mod 2^64 (``& 0xFFFF…``) into a uint64 array."""
    return np.fromiter((value & _U64 for value in values), np.uint64, len(values))


def ctr_seeds(
    addresses: Sequence[int], counters: Sequence[int], blocks_per_line: int
) -> bytes:
    """Concatenated per-block CTR seeds for a batch of lines.

    Layout per block matches ``CounterModeEncryptor._pad``:
    ``<QII`` = (address mod 2^64, counter mod 2^32, block_index), exactly
    16 bytes, built as two little-endian uint64 words per block.
    """
    if len(addresses) != len(counters):
        raise ValueError("addresses and counters must have equal length")
    seeds = np.empty((len(addresses), blocks_per_line, 2), dtype="<u8")
    seeds[..., 0] = u64_array(addresses)[:, None]
    seeds[..., 1] = (u64_array(counters) & np.uint64(0xFFFFFFFF))[:, None] | (
        np.arange(blocks_per_line, dtype=np.uint64) << np.uint64(32)
    )
    return seeds.tobytes()
