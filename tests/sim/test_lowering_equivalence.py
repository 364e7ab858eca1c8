"""The array lowering reproduces the frozen object lowering exactly.

:mod:`repro.sim.workloads` computes per-request addresses, sizes and
criticality in bulk; ``reference_lowering`` is the object-by-object
lowering it replaced.  For every input below the two must agree on every
request (address, size, access, criticality, ``sm_id``), every step
(cycles, instructions), the per-SM step counts and the heap allocations.
The flat arrays the vector engine compiles are checked too, against a
flattening of the reference, and so are the trace statistics summed from
them, against a walk over the materialised steps.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import SecureHeap
from repro.core.plan import LayerTraffic, ModelEncryptionPlan
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.sim.config import gtx480_config
from repro.sim.roofline import trace_stats
from repro.sim.runner import SCHEMES, scheme_config, tag_traffic
from repro.sim.sm import LoweredStreams
from repro.sim.workloads import MAX_STEPS_PER_SM, layer_streams, matmul_traffic

from . import reference_lowering
from .test_trace import walk_stats

CONFIG = gtx480_config("none")


def assert_lowerings_identical(config, traffic, tile=32):
    heap, reference_heap = SecureHeap(), SecureHeap()
    lowered = layer_streams(config, traffic, tile=tile, heap=heap)
    reference = reference_lowering.layer_streams(
        config, traffic, tile=tile, heap=reference_heap
    )
    assert list(heap) == list(reference_heap)

    # The arrays the vector engine compiles.
    flat = LoweredStreams.from_steps(reference)
    assert lowered.sm_steps.tolist() == [len(stream) for stream in reference]
    for field in ("address", "size", "is_read", "encrypted"):
        assert np.array_equal(getattr(lowered, field), getattr(flat, field)), field
    for field in ("step_cycles", "step_instructions", "step_reads", "step_writes"):
        assert getattr(lowered, field).tolist() == getattr(flat, field).tolist(), field

    stats = trace_stats(lowered)
    assert lowered._steps is None

    # The materialised view: every TileStep and MemRequest field.
    assert len(lowered) == len(reference) == config.num_sms
    assert list(lowered) == reference
    assert stats == walk_stats(lowered)


def fig7_lowerings():
    """Every distinct lowering input of the Fig 7 set.

    Schemes only change the lowering through the traffic's criticality
    split (the lowering reads no encryption setting), so units that share a
    tagged traffic record share one lowering.
    """
    distinct = {}
    for model in ("vgg16", "resnet18", "resnet34"):
        set_init_rng(0)
        plan = ModelEncryptionPlan.build(
            build_model(model), 0.5, input_shape=(3, 32, 32)
        )
        for traffic in plan.layer_traffic():
            for scheme in SCHEMES:
                tagged = tag_traffic(traffic, scheme_config(scheme).encryption)
                distinct.setdefault(replace(tagged, name=""), tagged)
    return list(distinct.values())


class TestPaperWorkloads:
    def test_fig7_units(self):
        lowerings = fig7_lowerings()
        assert len(lowerings) > 50
        config = scheme_config("SEAL-C")
        for traffic in lowerings:
            assert_lowerings_identical(config, traffic)

    @pytest.mark.parametrize("shape", [(768, 768, 768), (1024, 1024, 1024)])
    def test_fig1_matmul(self, shape):
        assert_lowerings_identical(
            scheme_config("Counter"), matmul_traffic(*shape, encrypted=True)
        )


# ----------------------------------------------------------------------
# Randomised edge cases
# ----------------------------------------------------------------------
#: Region sizes: zero (no region), sub-line, and small counts whose ratios
#: put ``nbytes * fraction`` exactly on .5 (k/8, k/16 fractions).
region_bytes = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=65, max_value=200_000),
)

geometry = st.fixed_dictionaries(
    {
        "num_sms": st.integers(min_value=1, max_value=24),
        "num_channels": st.sampled_from([1, 2, 3, 6, 8]),
        "line_bytes": st.sampled_from([32, 64, 128]),
    }
)


def config_for(geometry):
    return replace(CONFIG, **geometry)


@st.composite
def gemm_cases(draw):
    tile = draw(st.sampled_from([1, 2, 3, 8, 16, 32]))

    def extent():
        # Up to 12 tiles, the last one possibly short.
        return (draw(st.integers(0, 11))) * tile + draw(st.integers(1, tile))

    m, n, k = extent(), extent(), extent()
    element_bytes = draw(st.sampled_from([1, 2, 4]))
    sizes = [draw(region_bytes) for _ in range(6)]
    traffic = LayerTraffic(
        name="gemm",
        kind=draw(st.sampled_from(["conv", "fc"])),
        macs=draw(st.integers(0, 2 * m * n * k)),
        weight_bytes_encrypted=sizes[0],
        weight_bytes_plain=sizes[1],
        input_bytes_encrypted=sizes[2],
        input_bytes_plain=sizes[3],
        output_bytes_encrypted=sizes[4],
        output_bytes_plain=sizes[5],
        gemm_m=m,
        gemm_n=n,
        gemm_k=k,
        element_bytes=element_bytes,
    )
    return draw(geometry), traffic, tile


def pool_traffic(sizes, element_bytes=4):
    return LayerTraffic(
        name="pool",
        kind="pool",
        macs=0,
        weight_bytes_encrypted=0,
        weight_bytes_plain=0,
        input_bytes_encrypted=sizes[0],
        input_bytes_plain=sizes[1],
        output_bytes_encrypted=sizes[2],
        output_bytes_plain=sizes[3],
        element_bytes=element_bytes,
    )


class TestRandomised:
    @given(case=gemm_cases())
    @settings(max_examples=60, deadline=None)
    def test_gemm(self, case):
        geometry, traffic, tile = case
        assert_lowerings_identical(config_for(geometry), traffic, tile)

    @given(
        geometry=geometry,
        sizes=st.lists(region_bytes, min_size=4, max_size=4),
        element_bytes=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pool(self, geometry, sizes, element_bytes):
        assert_lowerings_identical(
            config_for(geometry), pool_traffic(sizes, element_bytes)
        )

    @given(
        extra_k=st.integers(min_value=1, max_value=40),
        num_channels=st.sampled_from([1, 6]),
        fraction_eighths=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=5, deadline=None)
    def test_k_merge(self, extra_k, num_channels, fraction_eighths):
        # 8 x 8 output tiles on one SM: k-steps beyond budget / 64 merge.
        k = MAX_STEPS_PER_SM // 64 + extra_k
        assert 8 * 8 * k > MAX_STEPS_PER_SM
        a_bytes, b_bytes, c_bytes = 8 * k * 4, k * 8 * 4, 8 * 8 * 4
        traffic = LayerTraffic(
            name="merge",
            kind="fc",
            macs=8 * 8 * k,
            weight_bytes_encrypted=b_bytes * fraction_eighths // 8,
            weight_bytes_plain=b_bytes - b_bytes * fraction_eighths // 8,
            input_bytes_encrypted=a_bytes * fraction_eighths // 8,
            input_bytes_plain=a_bytes - a_bytes * fraction_eighths // 8,
            output_bytes_encrypted=c_bytes,
            output_bytes_plain=0,
            gemm_m=8,
            gemm_n=8,
            gemm_k=k,
        )
        config = replace(CONFIG, num_sms=1, num_channels=num_channels)
        assert_lowerings_identical(config, traffic, tile=1)

    @given(
        scale=st.floats(min_value=1.01, max_value=2.5),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=4, deadline=None)
    def test_pool_step_budget(self, scale, fraction):
        config = replace(CONFIG, num_sms=1, line_bytes=32)
        in_bytes = int(MAX_STEPS_PER_SM * 16 * 32 * scale)
        encrypted = int(in_bytes * fraction)
        sizes = [encrypted, in_bytes - encrypted, encrypted // 4, (in_bytes - encrypted) // 4]
        assert_lowerings_identical(config, pool_traffic(sizes))


def test_half_rounds_to_even():
    # 12 bytes at fraction 1/8 is 1.5 encrypted bytes: both lowerings
    # round half to even (2), and 4 bytes (0.5) round to 0.
    traffic = LayerTraffic(
        name="half",
        kind="fc",
        macs=3,
        weight_bytes_encrypted=1,
        weight_bytes_plain=7,
        input_bytes_encrypted=1,
        input_bytes_plain=7,
        output_bytes_encrypted=1,
        output_bytes_plain=7,
        gemm_m=3,
        gemm_n=1,
        gemm_k=1,
    )
    assert_lowerings_identical(CONFIG, traffic, tile=4)
    encrypted = [
        r.size
        for stream in layer_streams(CONFIG, traffic, tile=4, heap=SecureHeap())
        for step in stream
        for r in step.reads
        if r.encrypted
    ]
    assert encrypted == [2]  # A: 12 bytes -> 1.5 -> 2; B: 4 bytes -> 0.5 -> 0
