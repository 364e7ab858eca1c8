"""Figure 4: security against adversarial attacks — transferability.

Uses the substitutes built for Figure 3 (shared fixture) to craft I-FGSM
adversarial examples and measures how many transfer to the victim.

Paper shapes: white-box transfers near-perfectly; black-box sits low
(~20%); SEAL transferability approaches (or undercuts) black-box once the
encryption ratio reaches ~50%, and rises sharply below ~40%.
"""

from repro.attacks.sweep import seal_key


def test_fig4_transferability(benchmark, record_report, record_metrics, security_sweep):
    result = benchmark.pedantic(lambda: security_sweep, iterations=1, rounds=1)

    lines = []
    for model_name in result.models():
        for key in result.labels():
            cell = result.cell(model_name, key)
            lines.append(
                f"{model_name:10s} {key:12s} transfer={cell.transferability:.3f} "
                f"(substitute success {cell.substitute_success_rate:.2f})"
            )
    record_report("fig4_transferability", "\n".join(lines))
    record_metrics(
        "fig4_transferability",
        payload={
            "transferability": {
                name: {
                    key: result.cell(name, key).transferability
                    for key in result.labels()
                }
                for name in result.models()
            }
        },
    )

    for model_name in result.models():
        white = result.cell(model_name, "white-box").transferability
        black = result.cell(model_name, "black-box").transferability
        # White-box adversarial examples transfer essentially perfectly
        # (they are crafted on the victim itself).
        assert white > 0.9, model_name
        # Black-box transferability is far below white-box (paper: ~20%).
        assert black < white - 0.3, model_name
        # SEAL at the highest swept ratio must not transfer meaningfully
        # better than black-box.
        ratios = sorted(
            float(k.split("@")[1])
            for k in result.labels()
            if k.startswith("seal@")
        )
        high_key = seal_key(ratios[-1])
        assert (
            result.cell(model_name, high_key).transferability <= black + 0.2
        ), model_name
