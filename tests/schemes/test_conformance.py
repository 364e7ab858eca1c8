"""Cross-scheme differential conformance suite.

The refactor contract: re-expressing the existing protections as
:class:`~repro.schemes.base.ProtectionScheme` instances changed *nothing*
— the SEAL-SE scheme must be **byte-identical** in ciphertext/MAC output
to the pre-refactor :class:`~repro.core.seal.LineSealer` pipeline and
**counter-identical** in simulator metrics to the pre-refactor
hand-built :class:`~repro.sim.config.EncryptionConfig` runs, on golden
workloads, over both the scalar and vector backends of the crypto
fastpath and of the simulator engine.
"""

import dataclasses
import random

import pytest

from repro.core.plan import ModelEncryptionPlan
from repro.core.seal import LineSealer
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.schemes import get_scheme, scheme_names
from repro.sim.config import EncryptionMode, gtx480_config
from repro.sim.parallel import SimUnit, simulate_unit
from repro.sim.runner import run_layer, scheme_config, tag_traffic

from tests.sim.test_golden_ipc import assert_results_identical
from .conftest import KEY

#: Golden byte workloads: deterministic, multiple sizes, including a
#: padded tail line and a single-line payload.
GOLDEN_PAYLOADS = [
    random.Random(seed).randbytes(size)
    for seed, size in ((0, 128), (1, 500), (2, 128 * 5), (3, 17))
]


def golden_batch(line_bytes: int = 128):
    """A fixed (addresses, counters, lines) batch for seal_lines."""
    rng = random.Random(42)
    lines = [rng.randbytes(line_bytes) for _ in range(24)]
    addresses = [0x1000_0000 + i * line_bytes for i in range(24)]
    counters = [1 + (i % 7) for i in range(24)]
    return addresses, counters, lines


# ----------------------------------------------------------------------
# Byte identity: seal-se vs the pre-refactor LineSealer pipeline
# ----------------------------------------------------------------------
class TestSealSeByteIdentity:
    def test_seal_lines_identical(self, crypto_backend):
        sealer = get_scheme("seal-se").make_sealer(KEY, backend=crypto_backend)
        reference = LineSealer(KEY, backend=crypto_backend)
        addresses, counters, lines = golden_batch()
        assert sealer.seal_lines(addresses, counters, lines) == reference.seal_lines(
            addresses, counters, lines
        )

    def test_sealed_payloads_identical(self, crypto_backend):
        sealer = get_scheme("seal-se").make_sealer(KEY, backend=crypto_backend)
        reference = LineSealer(KEY, backend=crypto_backend)
        for payload in GOLDEN_PAYLOADS:
            ours = sealer.seal(payload, base_address=0x2000, counter=3)
            theirs = reference.seal(payload, base_address=0x2000, counter=3)
            assert ours == theirs  # ciphertext bytes AND every MAC tag

    def test_payloads_interoperate_both_directions(self, crypto_backend):
        sealer = get_scheme("seal-se").make_sealer(KEY, backend=crypto_backend)
        reference = LineSealer(KEY, backend=crypto_backend)
        for payload in GOLDEN_PAYLOADS:
            assert sealer.unseal(reference.seal(payload)) == payload
            assert reference.unseal(sealer.seal(payload)) == payload

    def test_tag_truncation_override_matches(self, crypto_backend):
        sealer = get_scheme("seal-se").make_sealer(
            KEY, backend=crypto_backend, tag_bytes=4
        )
        reference = LineSealer(KEY, tag_bytes=4, backend=crypto_backend)
        addresses, counters, lines = golden_batch()
        assert sealer.seal_lines(addresses, counters, lines) == reference.seal_lines(
            addresses, counters, lines
        )


class TestCrossBackendByteIdentity:
    """Every scheme's sealer is byte-identical across crypto backends."""

    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_scalar_equals_vector(self, scheme_name):
        scheme = get_scheme(scheme_name)
        scalar = scheme.make_sealer(KEY, backend="scalar")
        vector = scheme.make_sealer(KEY, backend="vector")
        addresses, counters, lines = golden_batch()
        assert scalar.seal_lines(addresses, counters, lines) == vector.seal_lines(
            addresses, counters, lines
        )
        for payload in GOLDEN_PAYLOADS:
            assert scalar.seal(payload) == vector.seal(payload)


# ----------------------------------------------------------------------
# Config identity: scheme-built sim configs == pre-refactor hand-built
# ----------------------------------------------------------------------
class TestConfigIdentity:
    def test_seal_se_equals_hand_built_authenticated_seal_c(self):
        hand = gtx480_config(EncryptionMode.COUNTER, selective=True)
        hand = hand.with_encryption(
            dataclasses.replace(hand.encryption, authenticate=True)
        )
        assert get_scheme("seal-se").gpu_config() == hand

    def test_direct_scheme_equals_paper_direct_config(self):
        assert get_scheme("direct").gpu_config() == scheme_config("Direct")
        assert scheme_config("direct") == scheme_config("Direct")

    def test_counter_cache_budget_split_matches_factory(self):
        for kb in (24, 96, 384):
            scheme_cfg = get_scheme("seal-se").gpu_config(counter_cache_kb=kb)
            hand = gtx480_config(
                EncryptionMode.COUNTER, selective=True, counter_cache_kb=kb
            )
            assert (
                scheme_cfg.encryption.counter_cache
                == hand.encryption.counter_cache
            )


# ----------------------------------------------------------------------
# Sim metric identity: counter-for-counter on the golden workload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_traffics():
    set_init_rng(0)
    plan = ModelEncryptionPlan.build(
        build_model("mlp", width_scale=0.25), 0.5, input_shape=(3, 32, 32)
    )
    return plan.layer_traffic()


class TestSimCounterIdentity:
    def test_seal_se_runs_counter_identical(self, golden_traffics, sim_backend):
        """Scheme-name runs == pre-refactor hand-built-config runs, every
        SimResult field, under both simulator engines."""
        hand = gtx480_config(EncryptionMode.COUNTER, selective=True)
        hand = hand.with_encryption(
            dataclasses.replace(hand.encryption, authenticate=True)
        )
        for traffic in golden_traffics:
            via_scheme = run_layer(traffic, "seal-se")
            via_config = simulate_unit(
                SimUnit(
                    tag_traffic(traffic, hand.encryption),
                    hand,
                    label=f"{traffic.name}/seal-se",
                )
            )
            assert_results_identical(via_scheme, via_config)

    def test_direct_scheme_runs_identical_to_paper_direct(
        self, golden_traffics, sim_backend
    ):
        for traffic in golden_traffics:
            ours = run_layer(traffic, "direct")
            paper = run_layer(traffic, "Direct")
            # Same config, same traffic tagging — identical except labels.
            assert_results_identical(
                dataclasses.replace(ours, label=""),
                dataclasses.replace(paper, label=""),
            )

    def test_full_coverage_schemes_tag_all_traffic(self, golden_traffics):
        for traffic in golden_traffics:
            for name in scheme_names():
                tagged = tag_traffic(traffic, scheme_config(name).encryption)
                if get_scheme(name).selective:
                    assert tagged == traffic
                else:
                    assert tagged.weight_bytes_plain == 0
                    assert tagged.input_bytes_plain == 0
                    assert tagged.output_bytes_plain == 0


# ----------------------------------------------------------------------
# Serve-layer plumbing: ServeConfig builds the scheme's sealer
# ----------------------------------------------------------------------
class TestServeSealerPlumbing:
    def test_default_serve_sealer_is_the_pre_refactor_line_sealer(self):
        from repro.serve.server import ServeConfig

        config = ServeConfig()
        sealer = config.make_sealer()
        assert isinstance(sealer, LineSealer)
        assert sealer.tag_bytes == config.resolved_tag_bytes() == 8
        reference = LineSealer(config.key, backend=config.backend)
        for payload in GOLDEN_PAYLOADS:
            assert sealer.seal(payload) == reference.seal(payload)

    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_serve_sealer_matches_scheme_sealer(self, scheme_name):
        from repro.serve.server import ServeConfig, _worker_sealer

        config = ServeConfig(scheme=scheme_name)
        inline = config.make_sealer()
        assert inline.tag_bytes == get_scheme(scheme_name).tag_bytes
        # pool workers rebuild the identical sealer from the batch spec
        worker = _worker_sealer(
            {
                "scheme": scheme_name,
                "key": config.key,
                "tag_bytes": config.resolved_tag_bytes(),
                "line_bytes": config.line_bytes,
                "backend": config.backend,
            }
        )
        addresses, counters, lines = golden_batch()
        assert inline.seal_lines(addresses, counters, lines) == worker.seal_lines(
            addresses, counters, lines
        )
