"""Ablation (extension): does SEAL's benefit survive memory authentication?

The paper's baseline [24] covers encryption *and* authentication; the
paper itself evaluates confidentiality only.  This bench adds per-line
64-bit MACs (tag fetch/store traffic + verification latency) to all four
encrypted schemes and checks the SEAL speedup persists.
"""

import dataclasses

from repro.core.memory import SecureHeap
from repro.core.plan import ModelEncryptionPlan
from repro.eval.reporting import ascii_table
from repro.nn.layers import set_init_rng
from repro.nn.models import vgg16
from repro.sim.gpu import GpuSimulator
from repro.sim.runner import SCHEMES, scheme_config, tag_traffic
from repro.sim.workloads import layer_streams


def _run(plan, scheme, authenticate):
    config = scheme_config(scheme)
    if authenticate and config.encryption.enabled:
        config = dataclasses.replace(
            config,
            encryption=dataclasses.replace(config.encryption, authenticate=True),
        )
    cycles = 0.0
    instructions = 0
    for traffic in plan.layer_traffic():
        simulator = GpuSimulator(config)
        streams = layer_streams(
            config, tag_traffic(traffic, config.encryption), heap=SecureHeap()
        )
        result = simulator.run(streams)
        cycles += result.cycles
        instructions += result.instructions
    return instructions / cycles


def test_ablation_authentication(benchmark, record_report, record_metrics):
    set_init_rng(0)
    plan = ModelEncryptionPlan.build(vgg16(), 0.5)

    def sweep():
        rows = []
        baseline = _run(plan, "Baseline", authenticate=False)
        for scheme in SCHEMES[1:]:
            enc_only = _run(plan, scheme, authenticate=False) / baseline
            enc_auth = _run(plan, scheme, authenticate=True) / baseline
            rows.append((scheme, enc_only, enc_auth, enc_only - enc_auth))
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    report = ascii_table(
        ("scheme", "norm IPC (enc)", "norm IPC (enc+auth)", "auth cost"), rows
    )
    record_report("ablation_authentication", report)
    record_metrics("ablation_authentication", payload={"rows": [list(row) for row in rows]})

    by_scheme = {row[0]: row for row in rows}
    for scheme, _, with_auth, cost in rows:
        assert cost >= -0.01, scheme  # authentication never helps
        assert cost < 0.15, scheme  # but 6% tag traffic stays modest
    # SEAL keeps its edge over full encryption with authentication on.
    assert by_scheme["SEAL-D"][2] > by_scheme["Direct"][2] * 1.15
    assert by_scheme["SEAL-C"][2] > by_scheme["Counter"][2] * 1.15
