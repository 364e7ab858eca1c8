"""Fig 3/4 table rendering of :class:`SweepResult` (synthetic cells — no
training)."""

from repro.attacks.sweep import CellResult, SweepResult, seal_key

ACCURACY = {
    "white-box": 0.94, "black-box": 0.75, seal_key(0.5): 0.76, seal_key(0.2): 0.80
}
TRANSFER = {
    "white-box": 1.0, "black-box": 0.2, seal_key(0.5): 0.18, seal_key(0.2): 0.45
}


def fake_cell(
    model: str, label: str, accuracy: float, transfer: float | None
) -> CellResult:
    seal = label.startswith("seal@")
    return CellResult(
        key=f"{model}:{label}",
        model=model,
        adversary="seal" if seal else label,
        variant="init-only" if seal else None,
        ratio=float(label.split("@")[1]) if seal else None,
        label=label,
        victim_accuracy=0.94,
        accuracy=accuracy,
        train_accuracy=1.0,
        queries=100,
        transferability=transfer,
        targeted_transferability=None if transfer is None else transfer / 2,
        substitute_success_rate=None if transfer is None else 1.0,
    )


def fake_sweep(*, transfer: bool = True) -> SweepResult:
    """Two models, cells out of figure order; ``seal@0.80`` only for vgg16."""
    cells = []
    for model in ("vgg16", "resnet18"):
        for label in ("black-box", seal_key(0.2), "white-box", seal_key(0.5)):
            measured = TRANSFER[label] if transfer else None
            cells.append(fake_cell(model, label, ACCURACY[label], measured))
    cells.append(fake_cell("vgg16", seal_key(0.8), 0.70, 0.15 if transfer else None))
    return SweepResult(cells=cells)


def table_rows(report: str, title: str) -> dict[str, list[str]]:
    """``{label: rendered cells}`` of the report's table titled ``title``."""
    (section,) = [part for part in report.split("\n\n") if part.startswith(title)]
    rows = section.splitlines()[3:]  # title, header, rule
    return {row.split()[0]: row.split()[1:] for row in rows}


class TestSweepResult:
    def setup_method(self):
        self.sweep = fake_sweep()

    def test_accuracy_rows_cover_ratio_grid(self):
        labels = self.sweep.labels()
        assert labels[0] == "white-box"
        assert labels[-1] == "black-box"
        assert "seal@0.50" in labels
        assert list(table_rows(self.sweep.report(), "Fig 3")) == labels

    def test_accuracy_series_order(self):
        # SEAL rows ordered by decreasing ratio (as in the figure).
        seal_labels = [l for l in self.sweep.labels() if l.startswith("seal@")]
        assert seal_labels == ["seal@0.80", "seal@0.50", "seal@0.20"]
        ratios = [float(l.split("@")[1]) for l in seal_labels]
        assert ratios == sorted(ratios, reverse=True)

    def test_missing_ratios_render_nan(self):
        # A label one model lacks is a NaN cell, which ascii_table prints
        # as n/a.
        assert seal_key(0.8) not in self.sweep.accuracy_dict("resnet18")
        rows = table_rows(self.sweep.report(), "Fig 3")
        assert rows["seal@0.80"] == ["0.700", "n/a"]
        assert rows["seal@0.50"] == ["0.760", "0.760"]

    def test_transfer_rows(self):
        rows = table_rows(self.sweep.report(), "Fig 4")
        assert rows["white-box"] == ["1.000", "1.000"]
        assert rows["black-box"] == ["0.200", "0.200"]

    def test_report_renders_both_figures(self):
        report = self.sweep.report()
        assert "Fig 3" in report
        assert "Fig 4" in report
        assert "victim accuracy: vgg16=0.940, resnet18=0.940" in report

    def test_report_without_transfer(self):
        report = fake_sweep(transfer=False).report()
        assert "Fig 3" in report
        assert "Fig 4" not in report
