"""Shared benchmark fixtures.

Every benchmark regenerates one table or figure of the paper and writes the
rendered rows/series to ``benchmarks/out/<name>.txt`` (also echoed to the
terminal) so the recorded artefacts can be compared against the paper.
Figure benchmarks additionally emit a machine-readable
``benchmarks/out/BENCH_<name>.json`` trajectory (the ``repro.metrics/v1``
snapshot plus per-benchmark payload) via the ``record_metrics`` fixture.

Options::

    --jobs N           worker processes for layer simulations (0 = CPU count)
    --metrics-out DIR  directory for BENCH_*.json files (default benchmarks/out)

Scaling: set ``SEAL_BENCH_SCALE=full`` for the paper-scale security sweep
(slower); the default ``quick`` settings preserve every qualitative shape.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


def pytest_addoption(parser):
    group = parser.getgroup("seal-bench")
    group.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for layer simulations (0 = CPU count)",
    )
    group.addoption(
        "--metrics-out",
        default=None,
        help="directory for BENCH_*.json metric files (default benchmarks/out)",
    )


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ.get("SEAL_BENCH_SCALE", "quick")


@pytest.fixture(scope="session")
def jobs(request) -> int:
    return request.config.getoption("--jobs")


@pytest.fixture()
def record_report(request):
    """Return a callable that persists a report under benchmarks/out/."""

    def write(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return write


@pytest.fixture()
def record_metrics(request):
    """Persist the run's metrics snapshot as ``BENCH_<name>.json``.

    The callable merges the process-wide registry snapshot (counters,
    timers, cache hit rate) with an optional per-benchmark ``payload`` of
    JSON-serialisable result data, and returns the written path.
    ``sim_backend`` names the simulator engine(s) the counters show ran
    (``None`` when no kernel ran), not the backend requested.
    """
    from repro.crypto.fastpath import resolve_backend
    from repro.obs.metrics import get_metrics, sim_backends_ran

    out_option = request.config.getoption("--metrics-out")
    out_dir = Path(out_option) if out_option else OUT_DIR

    def write(name: str, payload: dict | None = None) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        document = get_metrics().snapshot()
        document["benchmark"] = name
        document["crypto_backend"] = resolve_backend()
        document["sim_backend"] = sim_backends_ran(document["counters"])
        if payload:
            document["payload"] = payload
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"[metrics saved to {path}]")
        return path

    return write


@pytest.fixture(scope="session")
def security_sweep():
    """The Figure-3/Figure-4 substitute sweep (shared: it is by far the most
    expensive artefact, so both benches consume one session-scoped run)."""
    from repro.attacks.substitute import SubstituteConfig
    from repro.eval.experiments import fig3_fig4_security

    full = os.environ.get("SEAL_BENCH_SCALE") == "full"
    ratios_full = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
    ratios_quick = (0.8, 0.5, 0.2)
    return fig3_fig4_security(
        models=("vgg16", "resnet18", "resnet34") if full else ("vgg16",),
        ratios=ratios_full if full else ratios_quick,
        width_scale=0.125,
        train_size=3000 if full else 1200,
        test_size=500 if full else 300,
        victim_epochs=12 if full else 10,
        substitute=SubstituteConfig(
            augmentation_rounds=3 if full else 2,
            epochs=8 if full else 5,
            max_samples=4000 if full else 1600,
            freeze_known=False,
        ),
        transfer_examples=200 if full else 60,
        measure_transfer=True,
    )
