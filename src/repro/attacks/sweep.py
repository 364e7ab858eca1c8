"""Checkpointed, parallel security-sweep pipeline (Figures 3 and 4).

:func:`repro.attacks.security.run_security_experiment` runs one model's
whole ratio sweep serially in one process; this module decomposes the same
experiment into independent :class:`SweepUnit` cells — one per
``model × encryption-ratio × adversary-variant`` — and runs them through

* a **content-addressed result key** (:func:`cell_key`, built on
  :mod:`repro.core.keys`) covering the experiment configuration, seeds,
  ratio and adversary variant,
* **atomic per-cell JSON checkpoints** (:class:`CheckpointStore`) written
  as each cell finishes, so a crash or Ctrl-C loses at most the cells in
  flight,
* ``--jobs N`` fan-out over long-lived worker slots
  (:class:`repro.faults.worker.SlotPool`, through
  :func:`~repro.faults.runner.run_hardened`), and
* ``--resume``, which reloads completed cells and recomputes only the
  rest (corrupt or stale checkpoints are rejected and recomputed).

Every cell is a pure function of its unit: the victim is retrained
deterministically from the experiment seeds (and memoised per process),
and each substitute build re-seeds the parameter-initialisation RNG
exactly as the serial experiment does (``seed + 1`` for black-box,
``seed + 2 + ratio_offset`` for SEAL cells).  Parallel and resumed runs
are therefore **field-for-field identical** to a serial run — the golden
suite in ``tests/attacks/test_sweep.py`` pins this, including equality
with :func:`~repro.attacks.security.run_security_experiment` itself.

See ``docs/threat-model.md`` for the adversary variants and
``docs/metrics.md`` for the counters/timers a sweep emits.

>>> from repro.attacks.security import SecurityExperimentConfig
>>> config = SecurityExperimentConfig(model="mlp", ratios=(0.5, 0.2))
>>> units = plan_units(config)
>>> [unit.label for unit in units]
['white-box', 'black-box', 'seal@0.50', 'seal@0.20']
>>> cell_key(units[2]) == cell_key(units[2])        # deterministic
True
>>> from dataclasses import replace
>>> cell_key(replace(units[2], ratio=0.3)) == cell_key(units[2])
False
>>> other_seed = replace(config, seed=1)
>>> cell_key(plan_units(other_seed)[2]) == cell_key(units[2])
False
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from ..core.keys import canonical_encode, content_key
from ..core.seal import SealScheme
from ..faults import CHAOS_ENV_VAR, RetryPolicy, chaos_probe, run_hardened
from ..faults.quarantine import quarantine_artifact
from ..nn.data import SyntheticCIFAR10, train_adversary_split
from ..nn.layers import set_init_rng
from ..nn.models import build_model
from ..obs.events import get_events
from ..obs.metrics import MetricsRegistry, get_metrics, set_metrics
from ..obs.trace import get_tracer, worker_tracer
from ..sim.parallel import resolve_jobs
from .security import SecurityExperimentConfig, SecurityOutcome, _train_victim
from .substitute import (
    SubstituteResult,
    black_box_substitute,
    seal_substitute,
    white_box_substitute,
)
from .transferability import measure_transferability

__all__ = [
    "SWEEP_SCHEMA",
    "ADVERSARIES",
    "VARIANTS",
    "SweepUnit",
    "CellResult",
    "SweepResult",
    "CheckpointError",
    "CheckpointStore",
    "cell_key",
    "plan_units",
    "run_cell",
    "run_sweep",
]

#: Schema tag written into every checkpoint document.
SWEEP_SCHEMA = "repro.sweep-checkpoint/v1"

#: The three adversary strengths of the paper's Section III-B.
ADVERSARIES = ("white-box", "black-box", "seal")

#: SEAL fine-tuning variants (see docs/threat-model.md): ``frozen`` is the
#: paper's exact adversary (known plaintext weights stay fixed),
#: ``init-only`` the strictly stronger one (copy, then fine-tune all).
VARIANTS = ("init-only", "frozen")


# ----------------------------------------------------------------------
# Units and keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepUnit:
    """One independent sweep cell: a single substitute build + evaluation.

    ``ratio_offset`` is the ratio's position in the experiment's original
    sweep grid; it seeds the substitute's parameter initialisation exactly
    as the serial experiment does, which is what makes a cell-by-cell run
    bit-identical to :func:`~repro.attacks.security.run_security_experiment`.
    """

    experiment: SecurityExperimentConfig
    adversary: str
    ratio: float | None = None
    ratio_offset: int = 0
    variant: str | None = None
    measure_transfer: bool = True

    def __post_init__(self) -> None:
        if self.adversary not in ADVERSARIES:
            raise ValueError(f"adversary must be one of {ADVERSARIES}")
        if self.adversary == "seal":
            if self.ratio is None:
                raise ValueError("seal units need an encryption ratio")
            if self.variant not in VARIANTS:
                raise ValueError(f"seal variant must be one of {VARIANTS}")
        elif self.ratio is not None:
            raise ValueError(f"{self.adversary} units take no ratio")

    @property
    def label(self) -> str:
        """Row label in the paper's figures (``seal@0.50`` style)."""
        if self.adversary == "seal":
            assert self.ratio is not None
            return SecurityOutcome.seal_key(self.ratio)
        return self.adversary

    @property
    def init_seed(self) -> int | None:
        """Parameter-init seed of the substitute build (None: no build)."""
        if self.adversary == "black-box":
            return self.experiment.seed + 1
        if self.adversary == "seal":
            return self.experiment.seed + 2 + self.ratio_offset
        return None

    def key(self) -> str:
        return cell_key(self)


def cell_key(unit: SweepUnit) -> str:
    """Content hash of everything one cell's result depends on.

    Covers the experiment configuration (model, sizes, epochs, every
    seed), the substitute training budget, the cell's adversary, ratio and
    derived init seed, and the fine-tuning variant.  The experiment's
    ``ratios`` grid is excluded (a cell depends on its own ratio and init
    seed, not on which other ratios the sweep happens to contain), and so
    is ``substitute.freeze_known`` (the unit's ``variant`` carries it).
    """
    experiment = canonical_encode(unit.experiment)
    assert isinstance(experiment, dict)
    experiment.pop("ratios", None)
    substitute = experiment.get("substitute")
    if isinstance(substitute, dict):
        substitute.pop("freeze_known", None)
    return content_key(
        {
            "schema": SWEEP_SCHEMA,
            "experiment": experiment,
            "adversary": unit.adversary,
            "ratio": None if unit.ratio is None else round(unit.ratio, 6),
            "variant": unit.variant if unit.adversary == "seal" else None,
            "init_seed": unit.init_seed,
            "measure_transfer": unit.measure_transfer,
        }
    )


def plan_units(
    experiment: SecurityExperimentConfig,
    *,
    variants: Sequence[str] | None = None,
    measure_transfer: bool = True,
) -> list[SweepUnit]:
    """Decompose one experiment into its independent cells.

    ``variants`` defaults to the single variant the experiment's
    substitute config selects (``freeze_known``); pass both to evaluate
    the paper's frozen adversary next to the stronger init-only one.
    """
    if variants is None:
        variants = ("frozen" if experiment.substitute.freeze_known else "init-only",)
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    units = [
        SweepUnit(experiment, "white-box", measure_transfer=measure_transfer),
        SweepUnit(experiment, "black-box", measure_transfer=measure_transfer),
    ]
    for offset, ratio in enumerate(experiment.ratios):
        for variant in variants:
            units.append(
                SweepUnit(
                    experiment,
                    "seal",
                    ratio=ratio,
                    ratio_offset=offset,
                    variant=variant,
                    measure_transfer=measure_transfer,
                )
            )
    return units


# ----------------------------------------------------------------------
# Cell results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellResult:
    """Deterministic outcome of one cell (JSON-checkpointable scalars).

    Wall-clock time deliberately lives in the metrics registry and the
    checkpoint envelope, not here: every field of a ``CellResult`` is a
    pure function of its unit, which is what lets the golden suite compare
    serial, parallel and resumed sweeps field-for-field.
    """

    key: str
    model: str
    adversary: str
    variant: str | None
    ratio: float | None
    label: str
    victim_accuracy: float
    accuracy: float
    train_accuracy: float
    queries: int
    transferability: float | None = None
    targeted_transferability: float | None = None
    substitute_success_rate: float | None = None

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    #: Fields a checkpoint may omit (transfer measurement disabled).
    _OPTIONAL = (
        "transferability",
        "targeted_transferability",
        "substitute_success_rate",
    )

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "CellResult":
        fields: dict[str, object] = {}
        for name in cls.__dataclass_fields__:
            if name in data:
                fields[name] = data[name]
            elif name not in cls._OPTIONAL:
                raise CheckpointError(f"checkpoint result misses field {name!r}")
        return cls(**fields)


def _victim_cache_key(experiment: SecurityExperimentConfig) -> str:
    return content_key(
        {
            "model": experiment.model,
            "width_scale": experiment.width_scale,
            "train_size": experiment.train_size,
            "test_size": experiment.test_size,
            "victim_epochs": experiment.victim_epochs,
            "victim_lr": experiment.victim_lr,
            "batch_size": experiment.substitute.batch_size,
            "dataset_seed": experiment.dataset_seed,
            "seed": experiment.seed,
        }
    )


#: Per-process memo of trained victims: rebuilding the victim is the only
#: work cells of one experiment share, and retraining it is deterministic,
#: so memoising is a pure optimisation (results are bit-identical either
#: way; the golden suite covers both the warm and cold paths).
_VICTIM_CACHE: dict[str, tuple] = {}
_VICTIM_CACHE_MAX = 4


def _victim_context(experiment: SecurityExperimentConfig) -> tuple:
    """(victim, test_set, adversary_seed, victim_accuracy), memoised."""
    metrics = get_metrics()
    key = _victim_cache_key(experiment)
    cached = _VICTIM_CACHE.get(key)
    if cached is not None:
        metrics.count("sweep.victims.cached")
        return cached
    generator = SyntheticCIFAR10(seed=experiment.dataset_seed)
    train_set, test_set = generator.standard_splits(
        train_size=experiment.train_size, test_size=experiment.test_size
    )
    victim_set, adversary_seed = train_adversary_split(
        train_set, seed=experiment.seed
    )
    set_init_rng(experiment.seed)
    victim = build_model(experiment.model, width_scale=experiment.width_scale)
    with metrics.timer("sweep.victim_fit"):
        victim_accuracy = _train_victim(victim, victim_set, test_set, experiment)
    metrics.count("sweep.victims.trained")
    if len(_VICTIM_CACHE) >= _VICTIM_CACHE_MAX:
        _VICTIM_CACHE.clear()
    context = (victim, test_set, adversary_seed, victim_accuracy)
    _VICTIM_CACHE[key] = context
    return context


def run_cell(unit: SweepUnit) -> CellResult:
    """Compute one cell cold: train/reuse the victim, build the cell's
    substitute with the serial experiment's exact seeding, evaluate."""
    experiment = unit.experiment
    metrics = get_metrics()
    tracer = get_tracer()
    with metrics.timer("sweep.cell"), tracer.span(
        "sweep.cell",
        {
            "label": unit.label,
            "adversary": unit.adversary,
            "ratio": unit.ratio,
            "variant": unit.variant,
        },
    ):
        victim, test_set, adversary_seed, victim_accuracy = _victim_context(experiment)

        def builder():
            return build_model(experiment.model, width_scale=experiment.width_scale)

        if unit.adversary == "white-box":
            substitute: SubstituteResult = white_box_substitute(victim)
        elif unit.adversary == "black-box":
            set_init_rng(unit.init_seed)
            substitute = black_box_substitute(
                builder, victim, adversary_seed, experiment.substitute
            )
        else:
            scheme = SealScheme(victim, unit.ratio)
            set_init_rng(unit.init_seed)
            substitute = seal_substitute(
                builder,
                victim,
                scheme.snooped_view(),
                adversary_seed,
                replace(experiment.substitute, freeze_known=unit.variant == "frozen"),
            )

        accuracy = substitute.accuracy_on(test_set)
        transferability = targeted = success_rate = None
        if unit.measure_transfer:
            transfer = measure_transferability(
                substitute.model,
                victim,
                test_set,
                num_examples=experiment.transfer_examples,
                config=experiment.ifgsm,
                substitute_kind=substitute.kind,
                ratio=substitute.ratio,
                seed=experiment.seed,
            )
            transferability = transfer.transferability
            targeted = transfer.targeted_transferability
            success_rate = transfer.substitute_success_rate
    metrics.count("sweep.cells.computed")
    return CellResult(
        key=unit.key(),
        model=experiment.model,
        adversary=unit.adversary,
        variant=unit.variant,
        ratio=unit.ratio,
        label=unit.label,
        victim_accuracy=victim_accuracy,
        accuracy=accuracy,
        train_accuracy=substitute.train_accuracy,
        queries=substitute.queries,
        transferability=transferability,
        targeted_transferability=targeted,
        substitute_success_rate=success_rate,
    )


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class CheckpointError(ValueError):
    """A checkpoint file exists but cannot be trusted (corrupt or stale)."""


class CheckpointStore:
    """Atomic per-cell JSON checkpoints under one directory.

    Each completed cell is written as ``<model>.<adversary>[.r<ratio>.
    <variant>].<key16>.json`` via a temp-file + :func:`os.replace` pair, so
    a kill can never leave a half-written document behind.  ``load``
    validates the schema tag, the embedded key against the unit's
    recomputed key, and the result payload; anything invalid raises
    :class:`CheckpointError` (the sweep recomputes and overwrites it).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, unit: SweepUnit) -> Path:
        parts = [unit.experiment.model, unit.adversary]
        if unit.adversary == "seal":
            parts += [f"r{unit.ratio:.2f}", str(unit.variant)]
        parts.append(unit.key()[:16])
        return self.root / (".".join(parts) + ".json")

    def load(self, unit: SweepUnit) -> CellResult | None:
        """The unit's checkpointed result, ``None`` if absent.

        Raises :class:`CheckpointError` for unreadable JSON, schema or key
        mismatches, and missing/invalid result fields.
        """
        path = self.path(unit)
        if not path.exists():
            return None
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error
        if not isinstance(document, dict) or document.get("schema") != SWEEP_SCHEMA:
            raise CheckpointError(f"{path} is not a {SWEEP_SCHEMA} document")
        expected = unit.key()
        if document.get("key") != expected:
            raise CheckpointError(
                f"{path} was written for key {document.get('key')!r}, "
                f"but the unit hashes to {expected!r} (stale or copied)"
            )
        result = document.get("result")
        if not isinstance(result, dict):
            raise CheckpointError(f"{path} carries no result payload")
        cell = CellResult.from_dict(result)
        if cell.key != expected:
            raise CheckpointError(f"{path} result/envelope key mismatch")
        return cell

    def quarantine(self, unit: SweepUnit, *, reason: str = "") -> Path | None:
        """Move the unit's (corrupt) checkpoint aside; None when absent.

        The original path is freed for recomputation while the bad bytes
        land next to it as ``<name>.quarantine`` with a ``.reason``
        sidecar — see :func:`repro.faults.quarantine.quarantine_artifact`.
        """
        return quarantine_artifact(self.path(unit), reason=reason)

    def store(self, unit: SweepUnit, result: CellResult, *, wall_seconds: float) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(unit)
        document = {
            "schema": SWEEP_SCHEMA,
            "key": result.key,
            "wall_seconds": wall_seconds,
            "result": result.to_dict(),
        }
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# Sweep execution
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """All cells of one sweep, in plan order."""

    cells: list[CellResult]

    def models(self) -> list[str]:
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.model, None)
        return list(seen)

    def variants(self) -> list[str | None]:
        seen: dict[str | None, None] = {}
        for cell in self.cells:
            if cell.adversary == "seal":
                seen.setdefault(cell.variant, None)
        return list(seen) or [None]

    def labels(self) -> list[str]:
        """Row labels in the paper's figure order (white-box first, SEAL
        by decreasing ratio, black-box last)."""
        ratios = sorted(
            {cell.ratio for cell in self.cells if cell.ratio is not None},
            reverse=True,
        )
        labels = ["white-box"]
        labels += [SecurityOutcome.seal_key(ratio) for ratio in ratios]
        labels.append("black-box")
        return [
            label
            for label in labels
            if any(cell.label == label for cell in self.cells)
        ]

    def cell(
        self, model: str, label: str, variant: str | None = None
    ) -> CellResult | None:
        for cell in self.cells:
            if cell.model != model or cell.label != label:
                continue
            if cell.adversary == "seal" and variant is not None and cell.variant != variant:
                continue
            return cell
        return None

    def accuracy_dict(self, model: str, variant: str | None = None) -> dict[str, float]:
        """``{label: accuracy}`` for one model/variant — the same mapping
        :class:`~repro.attacks.security.SecurityOutcome` carries."""
        out: dict[str, float] = {}
        for label in self.labels():
            cell = self.cell(model, label, variant)
            if cell is not None:
                out[label] = cell.accuracy
        return out

    def _table(self, field: str, variant: str | None) -> tuple[list[str], list[list[object]]]:
        models = self.models()
        headers = ["substitute"] + models
        rows: list[list[object]] = []
        for label in self.labels():
            row: list[object] = [label]
            for model in models:
                cell = self.cell(model, label, variant)
                value = getattr(cell, field) if cell is not None else None
                row.append(float("nan") if value is None else value)
            rows.append(row)
        return headers, rows

    def report(self) -> str:
        """Paper-style accuracy (+ transferability) tables, per variant."""
        from ..eval.reporting import ascii_table  # deferred: avoids import cycle

        parts: list[str] = []
        victims = {
            cell.model: cell.victim_accuracy for cell in self.cells
        }
        parts.append(
            "victim accuracy: "
            + ", ".join(f"{m}={a:.3f}" for m, a in victims.items())
        )
        for variant in self.variants():
            suffix = f" [{variant}]" if variant is not None else ""
            headers, rows = self._table("accuracy", variant)
            parts.append(
                f"Fig 3: substitute accuracy{suffix}\n" + ascii_table(headers, rows)
            )
            if any(cell.transferability is not None for cell in self.cells):
                headers, rows = self._table("transferability", variant)
                parts.append(
                    f"Fig 4: transferability{suffix}\n" + ascii_table(headers, rows)
                )
        return "\n\n".join(parts)


def _pool_worker(
    unit: SweepUnit,
) -> tuple[CellResult, dict[str, object], float, list[dict[str, object]]]:
    """Worker entry point: compute one cell in a fresh metrics registry.

    Returns ``(result, metrics snapshot, wall seconds, span dicts)`` — the
    spans are empty unless the parent enabled tracing (``REPRO_TRACE``).
    The chaos probe lets the hardening suite crash/hang/fail a chosen cell
    by label (no-op unless ``REPRO_CHAOS`` is set).
    """
    if os.environ.get(CHAOS_ENV_VAR):
        chaos_probe(unit.key(), unit.label)
    local = MetricsRegistry()
    previous = set_metrics(local)
    start = time.perf_counter()
    try:
        with worker_tracer() as tracer:
            result = run_cell(unit)
    finally:
        set_metrics(previous)
    spans = tracer.span_dicts() if tracer is not None else []
    return result, local.snapshot(), time.perf_counter() - start, spans


def run_sweep(
    units: Iterable[SweepUnit] | SecurityExperimentConfig,
    *,
    jobs: int | None = 1,
    checkpoint_dir: str | Path | None = None,
    resume: bool = True,
    metrics: MetricsRegistry | None = None,
    policy: RetryPolicy | None = None,
) -> SweepResult:
    """Execute sweep cells, deduplicated, checkpointed and in parallel.

    ``units`` may be a pre-planned list or a bare
    :class:`~repro.attacks.security.SecurityExperimentConfig` (then
    :func:`plan_units` decomposes it).  Results come back in plan order
    regardless of worker count or completion order.  With
    ``checkpoint_dir``, each finished cell is written atomically the
    moment it completes; with ``resume`` (the default), cells whose
    checkpoint validates are loaded instead of recomputed — a corrupt or
    stale checkpoint is quarantined (``*.quarantine`` next to it, reason
    in a sidecar) and its cell recomputed.

    Execution is hardened (see :mod:`repro.faults.runner`): ``policy``
    grants per-cell retries and timeouts, a crashed worker only charges
    the cells in flight, and a permanently-failing cell raises a
    :class:`~repro.faults.UnitExecutionError` naming its key — only after
    every other cell has completed *and been checkpointed*, so the next
    ``--resume`` run picks up exactly where this one failed.
    """
    if isinstance(units, SecurityExperimentConfig):
        units = plan_units(units)
    units = list(units)
    jobs = resolve_jobs(jobs)
    metrics = metrics if metrics is not None else get_metrics()
    tracer = get_tracer()
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None

    keys = [unit.key() for unit in units]
    events = get_events()
    resolved: dict[str, CellResult] = {}
    pending: dict[str, SweepUnit] = {}
    for unit, key in zip(units, keys):
        if key in resolved or key in pending:
            continue
        if store is not None and resume:
            try:
                loaded = store.load(unit)
            except CheckpointError as error:
                metrics.count("sweep.checkpoints.corrupt")
                if store.quarantine(unit, reason=str(error)) is not None:
                    metrics.count("sweep.checkpoints.quarantined")
                    events.emit(
                        "sweep.cell.quarantined",
                        key=key[:16],
                        label=unit.label,
                        reason=str(error)[:200],
                    )
                loaded = None
            if loaded is not None:
                resolved[key] = loaded
                metrics.count("sweep.cells.resumed")
                events.emit(
                    "sweep.cell.resumed", key=key[:16], label=unit.label
                )
                continue
        pending[key] = unit

    def checkpoint(unit: SweepUnit, result: CellResult, seconds: float) -> None:
        if store is not None:
            store.store(unit, result, wall_seconds=seconds)
            metrics.count("sweep.checkpoints.written")

    todo = [(key, unit.label, unit) for key, unit in pending.items()]
    events.emit(
        "sweep.started",
        cells=len(units),
        pending=len(todo),
        resumed=len(resolved),
        jobs=jobs,
    )
    if todo:
        with metrics.timer("sweep.compute"), tracer.span(
            "sweep.run_sweep",
            {"cells": len(units), "pending": len(todo), "jobs": jobs},
        ) as dispatch:
            if jobs == 1 or len(todo) == 1:
                # Route run_cell's ambient instrumentation (cell timers,
                # train/augmentation counters) into this run's registry,
                # exactly as the pool path does via worker snapshots.
                previous = set_metrics(metrics)
                try:

                    def serial_worker(unit: SweepUnit) -> tuple[CellResult, float]:
                        start = time.perf_counter()
                        return run_cell(unit), time.perf_counter() - start

                    def serial_deliver(key: str, unit: object, outcome: object) -> None:
                        result, seconds = outcome  # type: ignore[misc]
                        resolved[key] = result
                        checkpoint(unit, result, seconds)  # type: ignore[arg-type]

                    run_hardened(
                        serial_worker,
                        todo,
                        jobs=1,
                        policy=policy,
                        metrics=metrics,
                        on_result=serial_deliver,
                        event_prefix="sweep.cell",
                    )
                finally:
                    set_metrics(previous)
            else:
                metrics.count("sweep.pools")

                def pool_deliver(key: str, unit: object, outcome: object) -> None:
                    result, snapshot, seconds, spans = outcome  # type: ignore[misc]
                    resolved[key] = result
                    metrics.merge(snapshot)
                    if dispatch:
                        tracer.adopt(spans, parent=dispatch)
                    checkpoint(unit, result, seconds)  # type: ignore[arg-type]

                run_hardened(
                    _pool_worker,
                    todo,
                    jobs=jobs,
                    policy=policy,
                    metrics=metrics,
                    on_result=pool_deliver,
                    event_prefix="sweep.cell",
                )
    metrics.count("sweep.cells.total", len(units))
    events.emit("sweep.finished", cells=len(units), computed=len(todo))
    return SweepResult(cells=[resolved[key] for key in keys])
