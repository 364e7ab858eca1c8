"""Trace statistics: array sums over the lowered streams, pinned to the
object walk they replaced."""

import pytest

from repro.core.memory import SecureHeap
from repro.core.plan import ModelEncryptionPlan
from repro.nn.layers import set_init_rng
from repro.nn.models import vgg16
from repro.sim.config import gtx480_config
from repro.sim.request import Access, MemRequest
from repro.sim.roofline import TraceStats, predict_streams, trace_stats
from repro.sim.sm import TileStep
from repro.sim.workloads import layer_streams, matmul_streams

CONFIG = gtx480_config("direct", selective=True)


def walk_stats(streams) -> TraceStats:
    """The object walk over :class:`TileStep` lists that
    :func:`trace_stats` replaced: the oracle for its array sums (see also
    ``tests/sim/test_lowering_equivalence.py``)."""
    steps = requests = read_bytes = write_bytes = encrypted = 0
    compute = instructions = 0
    for stream in streams:
        for step in stream:
            steps += 1
            compute += step.compute_cycles
            instructions += step.instructions
            for request in step.reads + step.writes:
                requests += 1
                if request.is_read:
                    read_bytes += request.size
                else:
                    write_bytes += request.size
                if request.encrypted:
                    encrypted += request.size
    return TraceStats(
        steps=steps,
        requests=requests,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
        encrypted_bytes=encrypted,
        compute_cycles=compute,
        instructions=instructions,
    )


@pytest.fixture(scope="module")
def streams():
    return matmul_streams(CONFIG, 128, 128, 128, heap=SecureHeap())


class TestStats:
    def test_matmul_stats(self, streams):
        stats = trace_stats(streams)
        assert stats.write_bytes == 128 * 128 * 4
        assert stats.encrypted_fraction == pytest.approx(1.0)
        assert stats.requests > 0
        assert stats.compute_cycles > 0

    def test_lowered_streams_stay_unmaterialised(self):
        lowered = matmul_streams(CONFIG, 256, 256, 256, heap=SecureHeap())
        stats = trace_stats(lowered)
        predict_streams(lowered, CONFIG)
        assert lowered._steps is None
        assert stats == walk_stats(lowered)

    def test_seal_layer_encrypted_fraction_matches_plan(self):
        # The simulator amplifies operand reuse per category, so the trace
        # fraction equals the plan fraction only when every operand has the
        # same split — pick such a layer (a fully selective middle CONV).
        set_init_rng(0)
        plan = ModelEncryptionPlan.build(vgg16(width_scale=0.25), 0.5)

        def fractions(t):
            def frac(enc, plain):
                return enc / (enc + plain) if enc + plain else None

            return (
                frac(t.weight_bytes_encrypted, t.weight_bytes_plain),
                frac(t.input_bytes_encrypted, t.input_bytes_plain),
                frac(t.output_bytes_encrypted, t.output_bytes_plain),
            )

        traffic = next(
            t
            for t in plan.layer_traffic()
            if t.kind == "conv"
            and None not in fractions(t)
            and max(fractions(t)) - min(fractions(t)) < 0.02
            and 0 < t.encrypted_fraction < 1
        )
        streams = layer_streams(CONFIG, traffic, heap=SecureHeap())
        stats = trace_stats(streams)
        assert stats.encrypted_fraction == pytest.approx(
            traffic.encrypted_fraction, abs=0.05
        )

    def test_intensity_definition(self):
        streams = [
            [
                TileStep(
                    compute_cycles=100,
                    reads=(MemRequest(0, 50, Access.READ, False),),
                )
            ]
        ]
        stats = trace_stats(streams)
        assert stats == walk_stats(streams)
        assert stats.arithmetic_intensity == pytest.approx(2.0)
