"""Unit tests for the vectorized fast path's own surface.

The differential conformance suite (``test_backend_conformance.py``) pins
scalar/vector byte-equality; this file covers what that suite cannot —
backend *selection* precedence, validation/error paths, and the numpy-level
primitives (:class:`VectorAES` batches, :class:`GF128Table` algebra,
:func:`ctr_seeds` layout) against their scalar definitions.
"""

import struct

import numpy as np
import pytest

from repro.crypto.aes import AES
from repro.crypto.fastpath import (
    BACKENDS,
    DEFAULT_BACKEND,
    ENV_VAR,
    GF128Table,
    ScalarBlockBackend,
    VectorAES,
    VectorBlockBackend,
    block_backend,
    ctr_seeds,
    resolve_backend,
)
from repro.crypto.mac import gf128_mul, ghash


class TestResolveBackend:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vector")
        assert resolve_backend("scalar") == "scalar"

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "scalar")
        assert resolve_backend(None) == "scalar"

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend() == DEFAULT_BACKEND

    def test_blank_environment_falls_through(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  ")
        assert resolve_backend() == DEFAULT_BACKEND

    @pytest.mark.parametrize("bad", ["turbo", "SCALAR", "vectorized"])
    def test_unknown_name_rejected(self, bad):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            resolve_backend(bad)

    def test_bad_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "simd")
        with pytest.raises(ValueError, match=ENV_VAR):
            resolve_backend()


class TestBlockBackendFactory:
    def test_returns_selected_implementation(self):
        key = bytes(16)
        assert isinstance(block_backend(key, "scalar"), ScalarBlockBackend)
        assert isinstance(block_backend(key, "vector"), VectorBlockBackend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_name_attribute_matches(self, backend):
        assert block_backend(bytes(16), backend).name == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_many_requires_block_multiple(self, backend):
        cipher = block_backend(bytes(16), backend)
        with pytest.raises(ValueError, match="multiple of 16"):
            cipher.encrypt_many(b"x" * 17)
        with pytest.raises(ValueError, match="multiple of 16"):
            cipher.decrypt_many(b"x" * 15)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batch(self, backend):
        cipher = block_backend(bytes(16), backend)
        assert cipher.encrypt_many(b"") == b""
        assert cipher.decrypt_many(b"") == b""

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_key_sizes_roundtrip(self, key_len):
        key = bytes(range(key_len))
        data = bytes(range(16)) * 5
        for backend in BACKENDS:
            cipher = block_backend(key, backend)
            assert cipher.decrypt_many(cipher.encrypt_many(data)) == data


class TestVectorAES:
    def test_round_key_count_tracks_key_size(self):
        for key_len, rounds in ((16, 10), (24, 12), (32, 14)):
            aes = VectorAES(bytes(key_len))
            assert aes.rounds == rounds
            assert aes._enc_keys.shape == (rounds + 1, 4)
            assert aes._dec_keys.shape == (rounds + 1, 4)

    @pytest.mark.parametrize("method", ["encrypt_block", "decrypt_block"])
    def test_single_block_length_checked(self, method):
        aes = VectorAES(bytes(16))
        with pytest.raises(ValueError, match="must be 16 bytes"):
            getattr(aes, method)(b"short")

    def test_pack_rejects_wrong_shape(self):
        aes = VectorAES(bytes(16))
        with pytest.raises(ValueError, match=r"\(n, 16\)"):
            aes.encrypt_blocks(np.zeros((3, 8), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"\(n, 16\)"):
            aes.decrypt_blocks(np.zeros(16, dtype=np.uint8))

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    @pytest.mark.parametrize("n_blocks", [1, 3, 257])
    def test_large_batch_matches_scalar(self, key_len, n_blocks):
        key = bytes(range(key_len))
        scalar = AES(key)
        vector = VectorAES(key)
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 256, size=(n_blocks, 16), dtype=np.uint8)
        encrypted = vector.encrypt_blocks(blocks)
        for row in sorted({0, n_blocks // 2, n_blocks - 1}):
            assert (
                encrypted[row].tobytes()
                == scalar.encrypt_block(blocks[row].tobytes())
            )
        assert np.array_equal(vector.decrypt_blocks(encrypted), blocks)


class TestGF128Table:
    def test_key_length_checked(self):
        with pytest.raises(ValueError, match="16 bytes"):
            GF128Table(b"\x01" * 8)

    def test_mul_many_matches_scalar_gf128_mul(self):
        h = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")
        table = GF128Table(h)
        rng = np.random.default_rng(11)
        lanes = rng.integers(0, 256, size=(32, 16), dtype=np.uint8)
        products = table.mul_many(lanes)
        h_int = int.from_bytes(h, "big")
        for lane, product in zip(lanes, products):
            expected = gf128_mul(int.from_bytes(lane.tobytes(), "big"), h_int)
            assert product.tobytes() == expected.to_bytes(16, "big")

    def test_ghash_matches_scalar_ghash(self):
        h = bytes(range(16))
        table = GF128Table(h)
        for length in (0, 1, 16, 33, 128):
            data = bytes((i * 7 + 1) & 0xFF for i in range(length))
            assert table.ghash(data) == ghash(h, data)

    def test_ghash_many_shape_checked(self):
        table = GF128Table(bytes(range(16)))
        with pytest.raises(ValueError, match=r"\(n, m, 16\)"):
            table.ghash_many(np.zeros((2, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"\(n, m, 16\)"):
            table.ghash_many(np.zeros((2, 3, 8), dtype=np.uint8))

    @pytest.mark.parametrize("positions", range(1, 18))
    def test_ghash_many_lanes_are_independent(self, positions):
        h = bytes(reversed(range(16)))
        table = GF128Table(h)
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 256, size=(5, positions, 16), dtype=np.uint8)
        batched = table.ghash_many(blocks)
        for lane in range(5):
            alone = table.ghash_many(blocks[lane : lane + 1])[0]
            assert np.array_equal(batched[lane], alone)
            assert batched[lane].tobytes() == ghash(h, blocks[lane].tobytes())


class TestCtrSeeds:
    @pytest.mark.parametrize(
        "addresses",
        [(0x1234, 0x40), (-1, -0x80), ((1 << 64) + 0x40, (1 << 70) - 1)],
        ids=["in-range", "negative", "over-64-bits"],
    )
    def test_layout_matches_struct_pack(self, addresses):
        counters = (5, (1 << 32) + 2)
        seeds = ctr_seeds(addresses, counters, 2)
        expected = b"".join(
            struct.pack(
                "<QII", address & 0xFFFFFFFFFFFFFFFF, counter & 0xFFFFFFFF, block
            )
            for address, counter in zip(addresses, counters)
            for block in range(2)
        )
        assert seeds == expected

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ctr_seeds([1, 2], [3], 1)

    def test_empty_batch(self):
        assert ctr_seeds([], [], 8) == b""
