#!/usr/bin/env python3
"""Sweep the encryption ratio: the performance side of the 50% decision.

The paper picks a 50% encryption ratio because, in its Figures 3-4, it is
the smallest ratio whose substitute models are no better than black-box
(a claim of the paper; see docs/threat-model.md for this repo's
measurements).  This
example shows the other half of that trade-off: how encrypted-traffic
fraction and simulated IPC vary with the ratio, for all three models.

Run:  python examples/encryption_ratio_sweep.py
"""

from repro.core import ModelEncryptionPlan, summarize_traffic
from repro.eval.reporting import ascii_table
from repro.nn import build_model
from repro.sim import run_model


def main() -> None:
    ratios = (0.1, 0.3, 0.5, 0.7, 0.9)
    for model_name in ("vgg16", "resnet18", "resnet34"):
        model = build_model(model_name)
        baseline_ipc = None
        rows = []
        for ratio in ratios:
            plan = ModelEncryptionPlan.build(model, ratio)
            summary = summarize_traffic(plan)
            result = run_model(plan, "SEAL-D")
            if baseline_ipc is None:
                baseline_ipc = run_model(plan, "Baseline").ipc
            rows.append(
                (
                    f"{ratio:.0%}",
                    f"{plan.realized_ratio:.1%}",
                    f"{summary.encrypted_fraction:.1%}",
                    f"{result.ipc / baseline_ipc:.3f}",
                )
            )
        print(f"\n=== {getattr(model, 'name', model_name)} ===")
        print(
            ascii_table(
                (
                    "requested ratio",
                    "realized weight ratio",
                    "encrypted traffic",
                    "SEAL-D normalized IPC",
                ),
                rows,
            )
        )
    print(
        "\nLower ratios bypass more traffic and recover more IPC.  The paper "
        "reports (Figures 3-4) that ratios below ~50% leak enough weights "
        "to beat the black-box adversary, hence its 50% default.  This "
        "repo has not tested that threshold: which adversary is stronger "
        "depends on the query budget (docs/threat-model.md)."
    )


if __name__ == "__main__":
    main()
