"""Host process of the ``sim-fig7`` and ``sweep-vgg16`` workloads.

``run.py`` starts one host per set-up sample.  A host imports what its
workload needs (and, for the simulation, loads the native kernel), then
prints one ``{"ready": ...}`` line; the time from launch to that line is a
set-up sample.  It then reads one line from stdin: ``exit``, or a job
``{"seed": n, "seconds": s, "trace": 0|1, "pause": bool}``, which it runs
and answers with one JSON line.  With ``pause``, it prints
``{"pause": true}`` between two timed jobs and waits for a line on stdin
before it goes on.

Usage (normally through run.py): ``python3 perfbench/compute_host.py
sim-fig7|sweep-vgg16``.  ``python3 perfbench/compute_host.py record``
rewrites ``expected.json`` from the current program.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probes  # noqa: E402
from probes import RECORDER  # noqa: E402

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: The Fig 7 set: the paper's overall-IPC models under its five schemes.
SIM_MODELS = ("vgg16", "resnet18", "resnet34")
SIM_RATIO = 0.5

#: The sweep's recorded accuracies and transfer rates hold at this seed.
DEFAULT_SEED = 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pause() -> None:
    """Hand the machine to run.py between two jobs (it takes set-up
    samples) and wait until it answers."""
    print(json.dumps({"pause": True}), flush=True)
    sys.stdin.readline()


def timed_phase(job, seconds: float, least: int, op_timer: str | None = None, pauses: bool = False) -> dict:
    """Run the whole jobs that best fill ``seconds`` (at least ``least``,
    the count set by the first job's time), with a :func:`pause` between
    two jobs when ``pauses``.

    Returns the outputs and each job's wall time; with ``op_timer``, also
    each job's operation times (drained from the recorder after every job,
    with the counts recorded meanwhile summed).
    """
    phase: dict = {"outputs": [], "job_s": [], "op_s": [], "counts": {}}
    while not phase["job_s"] or len(phase["outputs"]) < max(
        least, round(seconds / phase["job_s"][0])
    ):
        if pauses and phase["job_s"]:
            pause()
        begin = time.perf_counter()
        phase["outputs"].append(job())
        phase["job_s"].append(time.perf_counter() - begin)
        if op_timer:
            drained = RECORDER.drain()
            phase["op_s"].append(drained["samples"].get(op_timer, []))
            for name, value in drained["counts"].items():
                phase["counts"][name] = phase["counts"].get(name, 0) + value
    return phase


# ----------------------------------------------------------------------
# sim-fig7
# ----------------------------------------------------------------------
def backends() -> dict:
    """The crypto and simulator backends this process resolves to."""
    from repro.crypto.fastpath import resolve_backend
    from repro.sim.engine import resolve_sim_backend

    return {"crypto_backend": resolve_backend(), "sim_backend": resolve_sim_backend()}


def sim_ready() -> dict:
    import repro.nn.models  # noqa: F401
    import repro.sim.runner  # noqa: F401
    from repro.sim import _native

    return {"native_kernel": _native.load() is not None}


def sim_models(seed: int) -> dict:
    """The inputs: the Fig 7 models with seed-initialised weights.  Which
    weights the plan encrypts depends on them; the traffic counts, and so
    the simulated cycles, do not."""
    from repro.nn.layers import set_init_rng
    from repro.nn.models import build_model

    models = {}
    for name in SIM_MODELS:
        set_init_rng(seed)
        models[name] = build_model(name)
    return models


def sim_job(models: dict):
    from repro.sim.runner import SCHEMES, compare_schemes

    def job() -> dict:
        out = {}
        for name, model in models.items():
            results = compare_schemes(
                model, SCHEMES, ratio=SIM_RATIO, jobs=1, cache=False
            )
            base_ipc = results["Baseline"].ipc
            out[name] = {
                scheme: {
                    "cycles": result.cycles,
                    "normalized_ipc": result.ipc / base_ipc,
                }
                for scheme, result in results.items()
            }
        return out

    return job


def sim_warmup() -> None:
    from repro.nn.layers import set_init_rng
    from repro.nn.models import build_model
    from repro.sim.runner import SCHEMES, compare_schemes

    set_init_rng(0)
    compare_schemes(build_model("mlp"), SCHEMES, jobs=1, cache=False)


def sim_layers(jobs: int) -> dict:
    """Per-job layer numbers from the traced phase's recorder."""
    units = RECORDER.counts.get("sim.run_units.items", 0) / jobs
    kernel_runs = RECORDER.n("sim.kernel") / jobs
    requests = RECORDER.counts.get("sim.compile.items", 0) / jobs
    lower = RECORDER.total("sim.lower") / jobs
    kernel = RECORDER.total("sim.kernel") / jobs
    return {
        "core.plan.build_s": RECORDER.total("core.plan") / jobs,
        "sim.units": units,
        "sim.kernel_runs": kernel_runs,
        "sim.dedupe_ratio": 1.0 - kernel_runs / units if units else 0.0,
        "sim.lower_s": lower,
        "sim.compile_s": RECORDER.total("sim.compile") / jobs,
        "sim.kernel_s": kernel,
        "sim.mem_requests": requests,
        "sim.lower_ns_per_request": lower / requests * 1e9 if requests else 0.0,
        "sim.kernel_ns_per_request": kernel / requests * 1e9 if requests else 0.0,
    }


def sim_check(outputs: list, expected: dict) -> tuple[int, int, list[str]]:
    """Every (model, scheme) result of every job against the pinned values."""
    attempted = failed = 0
    problems = []
    for output in outputs:
        for model, schemes in output.items():
            for scheme, values in schemes.items():
                attempted += 1
                if values != expected[model][scheme]:
                    failed += 1
                    problems.append(f"{model}/{scheme}: {values} != {expected[model][scheme]}")
    return attempted, failed, problems


def run_sim(job: dict) -> dict:
    from repro.obs.metrics import get_metrics

    probes.install_sim_always()
    models = sim_models(job["seed"])
    sim_warmup()
    RECORDER.drain()
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    # At least four jobs (about 45 s) in a plain run: the simulation's wall
    # time swings more with the host's speed than the other workloads' do.
    phase = timed_phase(
        sim_job(models),
        seconds,
        least=1 if job["trace"] else 4,
        op_timer="sim.unit",
        pauses=job["pause"],
    )
    outputs = phase["outputs"]
    result = {"job_s": phase["job_s"], "op_s": phase["op_s"]}
    fallbacks = phase["counts"].get("sim.python_loop", 0)
    if job["trace"]:
        probes.install_sim()
        traced = timed_phase(sim_job(models), seconds, least=1)
        outputs = outputs + traced["outputs"]
        fallbacks += RECORDER.counts.get("sim.python_loop", 0)
        result["layers"] = sim_layers(len(traced["outputs"]))
        result["traced_run_s"] = statistics.median(traced["job_s"])
        result["layers"]["sim.cycles"] = sum(
            values["cycles"]
            for schemes in traced["outputs"][0].values()
            for values in schemes.values()
        )
    result["runner"] = {
        name: get_metrics().counter(name) for name in ("runner.retries", "runner.failures")
    }
    expected = json.loads(EXPECTED_PATH.read_text())["sim-fig7"]
    attempted, failed, problems = sim_check(outputs, expected)
    if fallbacks:
        problems.append(f"{fallbacks} kernel runs fell back to the pure-Python loop")
    result.update(attempted=attempted, failed=failed, problems=problems)
    return result


# ----------------------------------------------------------------------
# sweep-vgg16
# ----------------------------------------------------------------------
def sweep_config(seed: int, *, warmup: bool = False):
    """One reduced-width vgg16 victim; white-box, black-box and SEAL cells
    at three ratios, transfer measured.  The seed picks the synthetic
    dataset and every initialisation.  The sizes are fixed, so the work is
    the same at every seed; the transfer test uses 8 examples, and at
    seeds 0-7 the victim classifies at least 11 of its 128 test images
    correctly.  ``warmup`` shrinks every size, for an untimed first pass."""
    from dataclasses import replace

    from repro.attacks.adversarial import IfgsmConfig
    from repro.attacks.security import SecurityExperimentConfig
    from repro.attacks.substitute import SubstituteConfig

    config = SecurityExperimentConfig(
        model="vgg16",
        width_scale=0.0625,
        ratios=(0.8, 0.5, 0.2),
        train_size=240,
        test_size=128,
        victim_epochs=3,
        victim_lr=4e-3,
        substitute=SubstituteConfig(
            batch_size=32,
            augmentation_rounds=1,
            epochs=1,
            max_samples=64,
            freeze_known=False,
        ),
        ifgsm=IfgsmConfig(iterations=10),
        transfer_examples=8,
        dataset_seed=seed,
        seed=seed,
    )
    if not warmup:
        return config
    # The warm-up keeps 128 test images: the transfer test needs at least
    # one the barely trained victim gets right.
    return replace(
        config,
        ratios=(0.5,),
        train_size=40,
        victim_epochs=1,
        substitute=replace(config.substitute, max_samples=16),
        ifgsm=IfgsmConfig(iterations=2),
        transfer_examples=2,
    )


def sweep_job(config, counters: dict):
    from repro.attacks import sweep
    from repro.obs.metrics import MetricsRegistry

    def job() -> list[dict]:
        # Cold every time: the victim memo would skip the victim fit.
        sweep._VICTIM_CACHE.clear()
        registry = MetricsRegistry()
        result = sweep.run_sweep(config, jobs=1, metrics=registry)
        for name in ("runner.retries", "runner.failures"):
            counters[name] = counters.get(name, 0) + registry.counter(name)
        return [
            {
                "label": cell.label,
                "victim_accuracy": cell.victim_accuracy,
                "accuracy": cell.accuracy,
                "queries": cell.queries,
                "transferability": cell.transferability,
                "targeted_transferability": cell.targeted_transferability,
            }
            for cell in result.cells
        ]

    return job


def sweep_check(outputs: list, seed: int, expected: dict) -> tuple[int, int, list[str]]:
    """Cells must repeat exactly across jobs, keep the seed-independent
    query counts, stay in range, and at the default seed equal the
    recorded values."""
    attempted = failed = 0
    problems = []
    reference = outputs[0]
    for output in outputs:
        for index, cell in enumerate(output):
            attempted += 1
            wrong = []
            if cell != reference[index]:
                wrong.append("differs between jobs")
            pinned = expected["cells"][index]
            if cell["label"] != pinned["label"] or cell["queries"] != pinned["queries"]:
                wrong.append(f"label/queries {cell['label']}/{cell['queries']}")
            rates = [v for k, v in cell.items() if k not in ("label", "queries")]
            if not all(0.0 <= v <= 1.0 for v in rates):
                wrong.append("rate out of [0, 1]")
            if seed == DEFAULT_SEED and cell != pinned:
                wrong.append(f"{cell} != recorded {pinned}")
            if wrong:
                failed += 1
                problems.append(f"{cell['label']}: " + "; ".join(wrong))
    return attempted, failed, problems


def sweep_layers(jobs: int) -> dict:
    fit_s = RECORDER.total("nn.fit")
    samples = RECORDER.counts.get("nn.fit.items", 0)
    return {
        "attacks.victim_fit_s": RECORDER.total("attacks.victim_fit") / jobs,
        "attacks.substitute_fit_s": RECORDER.total("attacks.substitute_fit") / jobs,
        "attacks.augment_s": RECORDER.total("attacks.augment") / jobs,
        "attacks.transfer_s": RECORDER.total("attacks.transfer") / jobs,
        "nn.conv2d_s": RECORDER.total("nn.conv2d") / jobs,
        "nn.col2im_s": RECORDER.total("nn.col2im") / jobs,
        "nn.batch_norm_s": RECORDER.total("nn.batch_norm") / jobs,
        "nn.pool_s": RECORDER.total("nn.pool") / jobs,
        "nn.backward_s": RECORDER.total("nn.backward") / jobs,
        "nn.train_samples_per_s": samples / fit_s if fit_s else 0.0,
    }


def run_sweep(job: dict) -> dict:
    probes.install_sweep_always()
    seed = job["seed"]
    counters: dict = {}
    timed_phase(sweep_job(sweep_config(seed, warmup=True), {}), 0.0, least=1)
    RECORDER.drain()
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    phase = timed_phase(
        sweep_job(sweep_config(seed), counters),
        seconds,
        least=1 if job["trace"] else 2,
        op_timer="sweep.cell",
        pauses=job["pause"],
    )
    outputs = phase["outputs"]
    result = {"job_s": phase["job_s"], "op_s": phase["op_s"]}
    if job["trace"]:
        probes.install_sweep()
        traced = timed_phase(sweep_job(sweep_config(seed), counters), seconds, least=1)
        outputs = outputs + traced["outputs"]
        result["layers"] = sweep_layers(len(traced["outputs"]))
        result["layers"]["attacks.queries"] = sum(cell["queries"] for cell in traced["outputs"][0])
        result["traced_run_s"] = statistics.median(traced["job_s"])
    expected = json.loads(EXPECTED_PATH.read_text())["sweep-vgg16"]
    attempted, failed, problems = sweep_check(outputs, seed, expected)
    result["runner"] = counters
    result.update(attempted=attempted, failed=failed, problems=problems)
    return result


# ----------------------------------------------------------------------
def record() -> None:
    """Rewrite expected.json from the current program (seed-independent
    simulation results; sweep cells at DEFAULT_SEED)."""
    sim = sim_job(sim_models(DEFAULT_SEED))()
    cells = sweep_job(sweep_config(DEFAULT_SEED), {})()
    EXPECTED_PATH.write_text(
        json.dumps({"sim-fig7": sim, "sweep-vgg16": {"cells": cells}}, indent=1) + "\n"
    )


def sweep_ready() -> dict:
    import repro.attacks.sweep  # noqa: F401

    return {}


WORKLOADS = {
    "sim-fig7": (sim_ready, run_sim),
    "sweep-vgg16": (sweep_ready, run_sweep),
}


def main(argv: list[str]) -> int:
    if argv == ["record"]:
        record()
        return 0
    ready, run = WORKLOADS[argv[0]]
    info = ready()  # set-up: imports (and the kernel load)
    print(json.dumps({"ready": True, "pid": os.getpid(), **info}), flush=True)
    line = sys.stdin.readline().strip()
    if not line or line == "exit":
        return 0
    result = run(json.loads(line))
    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = {**backends(), **info}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
