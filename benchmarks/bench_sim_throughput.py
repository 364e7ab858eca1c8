"""Simulator throughput: scalar reference engine vs the vector backend,
and the array lowering vs the frozen object lowering.

The Figure 7 workload set (the paper's overall-IPC models at 32x32
inputs, ratio 0.5, all five schemes) is lowered to step streams **once**,
then the identical streams are replayed through both simulator backends
(the scalar engine gets the materialised ``TileStep`` lists, built before
the clock starts).  The recorded artefact pins two claims:

* the vector backend (compiled structure-of-arrays event loop,
  :mod:`repro.sim.engine`) sustains at least **10x the simulated
  cycles/sec** of the scalar per-request engine — while the differential
  suite separately guarantees the results are bit-identical, which this
  benchmark re-checks on the total cycle count;
* lowering plus ``compile_streams`` costs at least **10x fewer ns per
  memory request** with the array lowering (:mod:`repro.sim.workloads`)
  than with the object lowering it replaced
  (``tests/sim/reference_lowering.py``).
"""

import sys
import time
from pathlib import Path

from repro.core.memory import SecureHeap
from repro.core.plan import ModelEncryptionPlan
from repro.eval.reporting import ascii_table
from repro.nn.layers import set_init_rng
from repro.nn.models import build_model
from repro.sim.engine import compile_streams
from repro.sim.gpu import GpuSimulator
from repro.sim.runner import SCHEMES, scheme_config, tag_traffic
from repro.sim.workloads import layer_streams

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # repo root
from tests.sim import reference_lowering  # noqa: E402

RATIO = 0.5


def _fig7_units(models):
    """(config, tagged traffic) for every Fig 7 layer/scheme unit."""
    units = []
    for model_name in models:
        set_init_rng(0)
        plan = ModelEncryptionPlan.build(
            build_model(model_name), RATIO, input_shape=(3, 32, 32)
        )
        for traffic in plan.layer_traffic():
            for scheme in SCHEMES:
                config = scheme_config(scheme)
                units.append((config, tag_traffic(traffic, config.encryption)))
    return units


def _prepare_units(units):
    """Lower the units once: (config, lowered streams, TileStep lists)."""
    prepared = []
    for config, traffic in units:
        streams = layer_streams(config, traffic, heap=SecureHeap())
        prepared.append((config, streams, [list(stream) for stream in streams]))
    return prepared


def _lowering_cost(name, lower, units):
    """Lowering + ``compile_streams`` over every unit, per memory request."""
    requests = 0
    start = time.perf_counter()
    for config, traffic in units:
        requests += compile_streams(
            config, lower(config, traffic, heap=SecureHeap())
        ).num_requests
    seconds = time.perf_counter() - start
    return {
        "lowering": name,
        "requests": requests,
        "seconds": seconds,
        "ns_per_request": seconds / requests * 1e9,
    }


def _throughput(backend, prepared):
    """Simulate every prepared unit on one backend; cycles and seconds."""
    start = time.perf_counter()
    total_cycles = 0.0
    for config, streams, steps in prepared:
        program = streams if backend == "vector" else steps
        result = GpuSimulator(config, backend=backend).run(program)
        total_cycles += result.cycles
    seconds = time.perf_counter() - start
    return {
        "backend": backend,
        "total_cycles": total_cycles,
        "seconds": seconds,
        "cycles_per_second": total_cycles / seconds if seconds else 0.0,
    }


def test_sim_throughput(benchmark, record_report, record_metrics, bench_scale):
    full = bench_scale == "full"
    models = ("vgg16", "resnet18", "resnet34") if full else ("vgg16",)
    units = _fig7_units(models)
    prepared = _prepare_units(units)

    # One untimed vector pass first: it compiles (and caches) the native
    # kernel, so the measurement compares steady-state engines.
    _throughput("vector", prepared)

    def sweep():
        return {
            backend: _throughput(backend, prepared)
            for backend in ("vector", "scalar")
        }

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)
    speedup = (
        results["vector"]["cycles_per_second"]
        / results["scalar"]["cycles_per_second"]
    )
    lowering = {
        "reference": _lowering_cost("reference", reference_lowering.layer_streams, units),
        "array": _lowering_cost("array", layer_streams, units),
    }
    lowering_speedup = (
        lowering["reference"]["ns_per_request"] / lowering["array"]["ns_per_request"]
    )

    rows = [
        (
            result["backend"],
            f"{result['total_cycles']:,.0f}",
            f"{result['seconds']:.3f}",
            f"{result['cycles_per_second']:,.0f}",
        )
        for result in results.values()
    ]
    report = (
        f"simulator throughput (Fig 7 set: {', '.join(models)}; "
        f"{len(prepared)} layer/scheme units, ratio {RATIO})\n"
        + ascii_table(
            ("backend", "simulated cycles", "wall s", "cycles/s"), rows
        )
        + f"\nvector/scalar speedup: {speedup:.1f}x (tentpole floor: 10x)\n\n"
        + "lowering + compile_streams per memory request\n"
        + ascii_table(
            ("lowering", "requests", "wall s", "ns/request"),
            [
                (
                    cost["lowering"],
                    f"{cost['requests']:,}",
                    f"{cost['seconds']:.3f}",
                    f"{cost['ns_per_request']:,.0f}",
                )
                for cost in lowering.values()
            ],
        )
        + f"\narray/reference lowering speedup: {lowering_speedup:.1f}x (floor: 10x)"
    )
    record_report("sim_throughput", report)
    record_metrics(
        "sim_throughput",
        payload={
            "models": list(models),
            "ratio": RATIO,
            "units": len(prepared),
            "results": results,
            "speedup": speedup,
            "lowering": lowering,
            "lowering_speedup": lowering_speedup,
        },
    )

    # Bit-identical simulation: the summed cycle counts must match exactly.
    assert results["scalar"]["total_cycles"] == results["vector"]["total_cycles"]
    # The tentpole claim.  Quick scale runs a subset of the figure's
    # models; the floor is kept slightly lower there to absorb noisy CI
    # machines (the full set clears 10x with margin).
    floor = 10.0 if full else 8.0
    assert speedup >= floor, f"vector only {speedup:.1f}x scalar (floor {floor}x)"
    # Both lowerings feed compile_streams the same requests.
    assert lowering["reference"]["requests"] == lowering["array"]["requests"]
    assert lowering_speedup >= 10.0, f"array lowering only {lowering_speedup:.1f}x"
