"""Golden suite for the checkpointed security sweep.

The contract under test: every cell is a pure function of its unit, so
serial, parallel, checkpointed and resumed sweeps are **field-for-field
identical** — to each other and to the frozen serial experiment in
``tests/attacks/reference_security.py``.
"""

import json
from dataclasses import replace

import pytest

from repro.attacks.security import SecurityExperimentConfig
from repro.attacks.substitute import SubstituteConfig
from repro.attacks.sweep import (
    CellResult,
    CheckpointError,
    CheckpointStore,
    SweepUnit,
    cell_key,
    plan_units,
    run_sweep,
)
from repro.obs.metrics import MetricsRegistry
from tests.attacks.reference_security import run_security_experiment


def tiny_config(**overrides) -> SecurityExperimentConfig:
    """Smallest config that still exercises every adversary (~0.5 s/cell)."""
    defaults = dict(
        model="mlp",
        width_scale=0.25,
        ratios=(0.5, 0.2),
        train_size=160,
        test_size=64,
        victim_epochs=2,
        substitute=SubstituteConfig(
            augmentation_rounds=1,
            epochs=1,
            max_samples=128,
            batch_size=16,
            freeze_known=False,
        ),
        transfer_examples=16,
    )
    defaults.update(overrides)
    return SecurityExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def config() -> SecurityExperimentConfig:
    return tiny_config()


@pytest.fixture(scope="module")
def serial_sweep(config):
    """One serial reference sweep, shared by the golden comparisons."""
    return run_sweep(plan_units(config), jobs=1, metrics=MetricsRegistry())


class TestGoldenEquality:
    def test_sweep_matches_serial_experiment(self, config, serial_sweep):
        outcome = run_security_experiment(config)
        assert serial_sweep.accuracy_dict("mlp") == outcome.accuracy
        for cell in serial_sweep.cells:
            assert cell.victim_accuracy == outcome.victim_accuracy
            transfer = outcome.transferability[cell.label]
            assert cell.transferability == transfer.transferability
            assert cell.targeted_transferability == transfer.targeted_transferability
            assert cell.substitute_success_rate == transfer.substitute_success_rate
            assert cell.queries == outcome.substitutes[cell.label].queries

    def test_parallel_identical_to_serial(self, config, serial_sweep):
        parallel = run_sweep(
            plan_units(config), jobs=4, metrics=MetricsRegistry()
        )
        assert parallel.cells == serial_sweep.cells

    def test_checkpointed_run_identical(self, config, serial_sweep, tmp_path):
        checkpointed = run_sweep(
            plan_units(config),
            jobs=1,
            checkpoint_dir=tmp_path,
            metrics=MetricsRegistry(),
        )
        assert checkpointed.cells == serial_sweep.cells


class TestResume:
    def test_partial_sweep_resume_equals_fresh(self, config, serial_sweep, tmp_path):
        units = plan_units(config)
        assert len(units) == 4  # white-box, black-box, seal@0.50, seal@0.20
        # Crash mid-sweep: only half the cells got checkpointed.
        partial = run_sweep(
            units[:2], jobs=1, checkpoint_dir=tmp_path, metrics=MetricsRegistry()
        )
        assert len(list(tmp_path.glob("*.json"))) == 2

        metrics = MetricsRegistry()
        resumed = run_sweep(
            units, jobs=1, checkpoint_dir=tmp_path, resume=True, metrics=metrics
        )
        assert metrics.counter("sweep.cells.resumed") == 2
        assert metrics.counter("sweep.cells.computed") == 2
        assert resumed.cells[:2] == partial.cells
        assert resumed.cells == serial_sweep.cells

    def test_full_resume_skips_every_cell(self, config, serial_sweep, tmp_path):
        units = plan_units(config)
        run_sweep(units, jobs=1, checkpoint_dir=tmp_path, metrics=MetricsRegistry())
        metrics = MetricsRegistry()
        resumed = run_sweep(
            units, jobs=2, checkpoint_dir=tmp_path, resume=True, metrics=metrics
        )
        assert metrics.counter("sweep.cells.resumed") == len(units)
        assert metrics.counter("sweep.cells.computed") == 0
        assert metrics.counter("sweep.checkpoints.written") == 0
        assert resumed.cells == serial_sweep.cells

    def test_resume_false_recomputes(self, config, tmp_path):
        units = plan_units(config)[:1]  # white-box only: cheap
        run_sweep(units, jobs=1, checkpoint_dir=tmp_path, metrics=MetricsRegistry())
        metrics = MetricsRegistry()
        run_sweep(
            units, jobs=1, checkpoint_dir=tmp_path, resume=False, metrics=metrics
        )
        assert metrics.counter("sweep.cells.resumed") == 0
        assert metrics.counter("sweep.cells.computed") == 1


class TestCheckpointValidation:
    @pytest.fixture()
    def stored(self, config, tmp_path):
        """One real checkpoint on disk (the cheap white-box cell)."""
        unit = plan_units(config)[0]
        run_sweep([unit], jobs=1, checkpoint_dir=tmp_path, metrics=MetricsRegistry())
        store = CheckpointStore(tmp_path)
        return store, unit, store.path(unit)

    def test_roundtrip(self, stored):
        store, unit, path = stored
        cell = store.load(unit)
        assert isinstance(cell, CellResult)
        assert cell.key == unit.key()
        assert path.name.startswith("mlp.white-box.")

    def test_truncated_json_rejected(self, stored):
        store, unit, path = stored
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointError, match="unreadable"):
            store.load(unit)

    def test_wrong_schema_rejected(self, stored):
        store, unit, path = stored
        document = json.loads(path.read_text())
        document["schema"] = "repro.sweep-checkpoint/v0"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="not a"):
            store.load(unit)

    def test_foreign_key_rejected(self, stored):
        store, unit, path = stored
        document = json.loads(path.read_text())
        document["key"] = "0" * 64
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="stale or copied"):
            store.load(unit)

    def test_missing_result_field_rejected(self, stored):
        store, unit, path = stored
        document = json.loads(path.read_text())
        del document["result"]["accuracy"]
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="accuracy"):
            store.load(unit)

    def test_sweep_recovers_from_corrupt_checkpoint(self, config, stored):
        store, unit, path = stored
        good = store.load(unit)
        path.write_text("{not json")
        metrics = MetricsRegistry()
        result = run_sweep(
            [unit],
            jobs=1,
            checkpoint_dir=store.root,
            resume=True,
            metrics=metrics,
        )
        assert metrics.counter("sweep.checkpoints.corrupt") == 1
        assert metrics.counter("sweep.cells.computed") == 1
        assert result.cells == [good]  # recomputed, identical
        assert store.load(unit) == good  # and overwritten with a valid doc


class TestCellKeys:
    def test_deterministic(self, config):
        units = plan_units(config)
        assert [cell_key(u) for u in units] == [cell_key(u) for u in units]

    def test_sensitive_to_seed(self, config):
        reseeded = replace(config, seed=config.seed + 1)
        for a, b in zip(plan_units(config), plan_units(reseeded)):
            assert cell_key(a) != cell_key(b)

    def test_sensitive_to_dataset_seed(self, config):
        other = replace(config, dataset_seed=config.dataset_seed + 1)
        for a, b in zip(plan_units(config), plan_units(other)):
            assert cell_key(a) != cell_key(b)

    def test_sensitive_to_ratio(self, config):
        unit = plan_units(config)[2]
        assert unit.adversary == "seal"
        assert cell_key(replace(unit, ratio=0.3)) != cell_key(unit)

    def test_sensitive_to_variant(self, config):
        frozen, init_only = (
            SweepUnit(config, "seal", ratio=0.5, variant=v)
            for v in ("frozen", "init-only")
        )
        assert cell_key(frozen) != cell_key(init_only)

    def test_insensitive_to_ratios_grid(self, config):
        # A cell depends on its own ratio + offset, not on which other
        # ratios the sweep happens to contain — that's what lets a resumed
        # run with a narrower grid reuse earlier checkpoints.
        narrow = replace(config, ratios=(0.5,))
        assert cell_key(plan_units(config)[2]) == cell_key(plan_units(narrow)[2])

    def test_variant_carries_freeze_known(self, config):
        # freeze_known is excluded from the hash: the variant is the truth.
        flipped = replace(
            config, substitute=replace(config.substitute, freeze_known=True)
        )
        a = SweepUnit(config, "seal", ratio=0.5, variant="frozen")
        b = SweepUnit(flipped, "seal", ratio=0.5, variant="frozen")
        assert cell_key(a) == cell_key(b)


class TestPlanningAndValidation:
    def test_plan_order_and_labels(self, config):
        labels = [u.label for u in plan_units(config)]
        assert labels == ["white-box", "black-box", "seal@0.50", "seal@0.20"]

    def test_plan_both_variants(self, config):
        units = plan_units(config, variants=("init-only", "frozen"))
        seal = [(u.label, u.variant) for u in units if u.adversary == "seal"]
        assert seal == [
            ("seal@0.50", "init-only"),
            ("seal@0.50", "frozen"),
            ("seal@0.20", "init-only"),
            ("seal@0.20", "frozen"),
        ]
        # Both variants of one ratio share the serial experiment's init seed.
        assert units[2].init_seed == units[3].init_seed == config.seed + 2

    def test_plan_rejects_unknown_variant(self, config):
        with pytest.raises(ValueError, match="unknown variant"):
            plan_units(config, variants=("thawed",))

    def test_unit_validation(self, config):
        with pytest.raises(ValueError, match="adversary"):
            SweepUnit(config, "gray-box")
        with pytest.raises(ValueError, match="ratio"):
            SweepUnit(config, "seal", variant="frozen")
        with pytest.raises(ValueError, match="variant"):
            SweepUnit(config, "seal", ratio=0.5)
        with pytest.raises(ValueError, match="no ratio"):
            SweepUnit(config, "white-box", ratio=0.5)

    def test_duplicate_units_computed_once(self, config):
        unit = plan_units(config)[0]
        metrics = MetricsRegistry()
        result = run_sweep([unit, unit], jobs=1, metrics=metrics)
        assert metrics.counter("sweep.cells.computed") == 1
        assert len(result.cells) == 2
        assert result.cells[0] == result.cells[1]

    def test_cell_result_roundtrip(self, serial_sweep):
        for cell in serial_sweep.cells:
            assert CellResult.from_dict(cell.to_dict()) == cell

    def test_report_mentions_every_label(self, serial_sweep):
        report = serial_sweep.report()
        for label in ("white-box", "black-box", "seal@0.50", "seal@0.20"):
            assert label in report
        assert "victim accuracy" in report
