"""Differential conformance suite: scalar oracle vs NumPy vector backend.

The vector fast path (:mod:`repro.crypto.fastpath`) is only trusted to the
extent the scalar reference confirms it.  This suite pins that contract
three ways:

1. **Known-answer tests** — the FIPS-197 appendix C vectors and the full
   NIST SP 800-38A CTR/ECB vector sets, parametrized over *both* backends
   (the scalar oracle must satisfy the spec too, or it is no oracle);
2. **Seeded randomized differential tests** — random keys of every size,
   random addresses/counters/payloads (non-block-aligned tails included,
   counters at the 32-bit wrap boundary) asserting byte-equality of
   encrypt, decrypt, keystream and GMAC tag between the backends, with the
   failing case's seed named in the assertion message;
3. **Batched-API equivalence** — the lane-parallel ``encrypt_lines`` /
   ``decrypt_lines`` (counter and direct mode) / ``tag_lines`` paths must
   equal their one-line counterparts on both backends.
"""

import random

import pytest

from repro.crypto.fastpath import BACKENDS, block_backend
from repro.crypto.mac import LineAuthenticator
from repro.crypto.modes import CounterModeEncryptor, DirectEncryptor, _xor_bytes

pytestmark = pytest.mark.parametrize("backend", BACKENDS)

# ----------------------------------------------------------------------
# FIPS-197 appendix C (one vector per key size)
# ----------------------------------------------------------------------
FIPS197_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS197_VECTORS = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]

# ----------------------------------------------------------------------
# NIST SP 800-38A — the four-block ECB and CTR vector sets
# ----------------------------------------------------------------------
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

SP800_38A_ECB = [
    # (key hex, ciphertext hex) — F.1.1/F.1.3/F.1.5
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "3ad77bb40d7a3660a89ecaf32466ef97"
        "f5d3d58503b9699de785895a96fdbaaf"
        "43b1cd7f598ece23881b00e3ed030688"
        "7b0c785e27e8ad3f8223207104725dd4",
    ),
    (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "bd334f1d6e45f25ff712a214571fa5cc"
        "974104846d0ad3ad7734ecb3ecee4eef"
        "ef7afd2270e2e60adce0ba2face6444e"
        "9a4b41ba738d6c72fb16691603c18e0e",
    ),
    (
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "f3eed1bdb5d2a03c064b5a7e3db181f8"
        "591ccb10d410ed26dc5ba74a31362870"
        "b6ed21b99ca6f4f9f153e7b1beafed1d"
        "23304b7a39f9f3ff067d8d8f9e24ecc7",
    ),
]

SP800_38A_CTR_COUNTER0 = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
SP800_38A_CTR = [
    # (key hex, ciphertext hex) — F.5.1/F.5.3/F.5.5
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee",
    ),
    (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050",
    ),
    (
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6",
    ),
]


def _standard_ctr_blocks(counter0: bytes, n_blocks: int) -> bytes:
    """SP 800-38A counter sequence: the full 128-bit block increments."""
    value = int.from_bytes(counter0, "big")
    return b"".join(
        ((value + index) % (1 << 128)).to_bytes(16, "big")
        for index in range(n_blocks)
    )


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class TestKnownAnswerVectors:
    @pytest.mark.parametrize("key_hex,expected_hex", FIPS197_VECTORS)
    def test_fips197_appendix_c(self, backend, key_hex, expected_hex):
        cipher = block_backend(bytes.fromhex(key_hex), backend)
        expected = bytes.fromhex(expected_hex)
        assert cipher.encrypt_block(FIPS197_PLAINTEXT) == expected
        assert cipher.decrypt_block(expected) == FIPS197_PLAINTEXT

    @pytest.mark.parametrize("key_hex,expected_hex", SP800_38A_ECB)
    def test_sp800_38a_ecb(self, backend, key_hex, expected_hex):
        cipher = block_backend(bytes.fromhex(key_hex), backend)
        expected = bytes.fromhex(expected_hex)
        assert cipher.encrypt_many(SP800_38A_PLAINTEXT) == expected
        assert cipher.decrypt_many(expected) == SP800_38A_PLAINTEXT

    @pytest.mark.parametrize("length", [64, 40, 1])
    @pytest.mark.parametrize("key_hex,expected_hex", SP800_38A_CTR)
    def test_sp800_38a_ctr(self, backend, key_hex, expected_hex, length):
        cipher = block_backend(bytes.fromhex(key_hex), backend)
        plaintext = SP800_38A_PLAINTEXT[:length]
        expected = bytes.fromhex(expected_hex)[:length]
        counters = _standard_ctr_blocks(SP800_38A_CTR_COUNTER0, 4)
        keystream = cipher.encrypt_many(counters)
        assert _xor(plaintext, keystream) == expected
        # CTR decryption is the same keystream XORed the other way.
        assert _xor(expected, keystream) == plaintext
        # The modes' XOR keeps zip's shorter-length semantics either way
        # round, so a keystream longer than the line is truncated.
        assert _xor_bytes(plaintext, keystream) == expected
        assert _xor_bytes(keystream, expected) == plaintext

    def test_batched_known_answer(self, backend):
        # The batch API must agree with block-at-a-time on a mixed batch.
        cipher = block_backend(bytes.fromhex(FIPS197_VECTORS[0][0]), backend)
        blocks = [FIPS197_PLAINTEXT, bytes(16), bytes(range(16)), b"\xff" * 16]
        batch = cipher.encrypt_many(b"".join(blocks))
        singles = b"".join(cipher.encrypt_block(block) for block in blocks)
        assert batch == singles
        assert cipher.decrypt_many(batch) == b"".join(blocks)


# ----------------------------------------------------------------------
# Scalar/vector differential equality (the fast path's only trust anchor)
# ----------------------------------------------------------------------
WRAP = 1 << 32  # the counter field width of the CTR seed layout


class TestDifferentialEquality:
    """Backend-pair equality; ``backend`` names the one under test and the
    scalar oracle is always the reference (scalar vs scalar is the identity
    leg that keeps the parametrization honest)."""

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    @pytest.mark.parametrize(
        "length", [1, 15, 16, 17, 50, 128, 130]
    )
    def test_ctr_tails_match_oracle(self, backend, key_len, length):
        key = bytes(range(key_len))
        oracle = CounterModeEncryptor(key, backend="scalar")
        tested = CounterModeEncryptor(key, backend=backend)
        data = bytes((7 * i + 3) & 0xFF for i in range(length))
        assert tested.encrypt_line(0x8000, 5, data) == oracle.encrypt_line(
            0x8000, 5, data
        )
        assert tested.keystream(0x8000, 5, length) == oracle.keystream(
            0x8000, 5, length
        )

    @pytest.mark.parametrize(
        "counter", [0, 1, WRAP - 1, WRAP, WRAP + 1, 3 * WRAP + 17]
    )
    def test_counter_wrap_boundary(self, backend, counter):
        # The seed layout carries counter & 0xFFFFFFFF; both backends must
        # agree on either side of (and exactly at) the wrap.
        key = bytes(range(16))
        oracle = CounterModeEncryptor(key, backend="scalar")
        tested = CounterModeEncryptor(key, backend=backend)
        data = bytes(64)
        assert tested.encrypt_line(0x40, counter, data) == oracle.encrypt_line(
            0x40, counter, data
        )
        # Documented masking: the pad depends on counter mod 2^32.
        assert tested.keystream(0x40, counter, 32) == tested.keystream(
            0x40, counter % WRAP, 32
        )

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_direct_mode_matches_oracle(self, backend, key_len):
        key = bytes(range(1, key_len + 1))
        oracle = DirectEncryptor(key, backend="scalar")
        tested = DirectEncryptor(key, backend=backend)
        line = bytes((13 * i) & 0xFF for i in range(128))
        ct = tested.encrypt_line(0x2000, line)
        assert ct == oracle.encrypt_line(0x2000, line)
        assert tested.decrypt_line(0x2000, ct) == line

    @pytest.mark.parametrize("length", [0, 1, 16, 100, 128])
    def test_gmac_matches_oracle(self, backend, length):
        key = bytes(reversed(range(16)))
        oracle = LineAuthenticator(key, 16, backend="scalar")
        tested = LineAuthenticator(key, 16, backend=backend)
        ciphertext = bytes((i * i) & 0xFF for i in range(length))
        assert tested.tag(0x77, 9, ciphertext) == oracle.tag(0x77, 9, ciphertext)
        assert tested.verify(0x77, 9, ciphertext, oracle.tag(0x77, 9, ciphertext))

    def test_batched_lines_match_single_calls(self, backend):
        key = bytes(range(16))
        enc = CounterModeEncryptor(key, backend=backend)
        auth = LineAuthenticator(key, backend=backend)
        addresses = [0x1000 + 0x80 * i for i in range(10)]
        counters = [i * 3 + 1 for i in range(10)]
        lines = [bytes(((i + j) & 0xFF for j in range(128))) for i in range(10)]
        batched = enc.encrypt_lines(addresses, counters, lines)
        singles = [
            enc.encrypt_line(a, c, line)
            for a, c, line in zip(addresses, counters, lines)
        ]
        assert batched == singles
        assert enc.decrypt_lines(addresses, counters, batched) == lines
        assert auth.tag_lines(addresses, counters, batched) == [
            auth.tag(a, c, ct) for a, c, ct in zip(addresses, counters, batched)
        ]
        direct = DirectEncryptor(key, backend=backend)
        sealed = direct.encrypt_lines(addresses, lines)
        assert sealed == [
            direct.encrypt_line(a, line) for a, line in zip(addresses, lines)
        ]
        assert direct.decrypt_lines(addresses, sealed) == lines


# ----------------------------------------------------------------------
# Seeded randomized differential fuzz (≥200 cases per key size)
# ----------------------------------------------------------------------
FUZZ_CASES_PER_KEY_SIZE = 200
FUZZ_BASE_SEED = 0xC0FFEE


def _fuzz_case(rng: random.Random, key_len: int):
    key = rng.randbytes(key_len)
    address = rng.randrange(1 << 48)
    # Cluster some counters at the 32-bit wrap so the masked field's
    # boundary is fuzzed, not only its interior.
    counter = rng.choice(
        [rng.randrange(1 << 20), WRAP - 1 + rng.randrange(3), rng.randrange(1 << 34)]
    )
    length = rng.choice([rng.randrange(1, 16), 16, rng.randrange(17, 64), 128])
    payload = rng.randbytes(length)
    return key, address, counter, payload


class TestRandomizedDifferentialFuzz:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_ctr_and_gmac_fuzz(self, backend, key_len):
        if backend == "scalar":
            pytest.skip("scalar is the oracle itself; the vector leg diffs")
        for index in range(FUZZ_CASES_PER_KEY_SIZE):
            case_seed = FUZZ_BASE_SEED + key_len * 100_000 + index
            rng = random.Random(case_seed)
            key, address, counter, payload = _fuzz_case(rng, key_len)
            label = (
                f"fuzz case seed={case_seed} key_len={key_len} "
                f"address={address:#x} counter={counter} "
                f"payload_len={len(payload)}"
            )
            oracle = CounterModeEncryptor(key, backend="scalar")
            tested = CounterModeEncryptor(key, backend=backend)
            expected_ct = oracle.encrypt_line(address, counter, payload)
            actual_ct = tested.encrypt_line(address, counter, payload)
            assert actual_ct == expected_ct, f"CTR encrypt diverged: {label}"
            assert (
                tested.decrypt_line(address, counter, actual_ct) == payload
            ), f"CTR roundtrip broke: {label}"
            assert tested.keystream(address, counter, len(payload)) == (
                oracle.keystream(address, counter, len(payload))
            ), f"keystream diverged: {label}"
            mac_oracle = LineAuthenticator(key[:16], backend="scalar")
            mac_tested = LineAuthenticator(key[:16], backend=backend)
            assert mac_tested.tag(address, counter, actual_ct) == (
                mac_oracle.tag(address, counter, expected_ct)
            ), f"GMAC tag diverged: {label}"
