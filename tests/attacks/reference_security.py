"""Frozen serial Figure-3/4 experiment: the differential reference for the
checkpointed sweep.

This is ``run_security_experiment`` and its ``SecurityOutcome`` result as
:mod:`repro.attacks.security` shipped them before
:func:`repro.attacks.sweep.run_sweep` became the only driver: one process
trains the victim, builds every substitute in plan order with the
``seed``, ``seed + 1``, ``seed + 2 + offset`` init seeds, and measures
accuracy and transferability.  The victim-fit helper's body is copied
too, so the oracle does not call the code it checks.  It is kept verbatim
as the oracle ``test_sweep.py`` pins every sweep cell against,
field-for-field.  Do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.security import SecurityExperimentConfig
from repro.attacks.substitute import (
    SubstituteResult,
    black_box_substitute,
    seal_substitute,
    white_box_substitute,
)
from repro.attacks.transferability import TransferResult, measure_transferability
from repro.core.seal import SealScheme
from repro.nn.data import Dataset, SyntheticCIFAR10, train_adversary_split
from repro.nn.layers import Module, set_init_rng
from repro.nn.models import build_model
from repro.nn.optim import Adam
from repro.nn.training import fit, predict_labels


@dataclass
class SecurityOutcome:
    """Results of one experiment (accuracy = Fig. 3, transfer = Fig. 4)."""

    model: str
    victim_accuracy: float
    accuracy: dict[str, float]  # "white-box" | "black-box" | "seal@0.50" …
    transferability: dict[str, TransferResult]
    substitutes: dict[str, SubstituteResult] = field(repr=False, default_factory=dict)

    @staticmethod
    def seal_key(ratio: float) -> str:
        return f"seal@{ratio:.2f}"

    def accuracy_series(self) -> list[tuple[str, float]]:
        """(label, accuracy) rows in the paper's figure order."""
        rows = [("white-box", self.accuracy["white-box"])]
        rows += [
            (key, value)
            for key, value in sorted(
                ((k, v) for k, v in self.accuracy.items() if k.startswith("seal@")),
                key=lambda item: -float(item[0].split("@")[1]),
            )
        ]
        rows.append(("black-box", self.accuracy["black-box"]))
        return rows


def _train_victim(
    model: Module, train_set: Dataset, test_set: Dataset, config: SecurityExperimentConfig
) -> np.ndarray:
    """Fit the victim; return its predicted labels for ``test_set``.

    Those labels give the victim's accuracy, the white-box substitute's
    accuracy (that substitute *is* the victim) and every transfer test's
    correctly-classified pool, so one experiment computes them once.
    """
    optimizer = Adam(list(model.parameters()), lr=config.victim_lr)
    fit(
        model,
        train_set,
        optimizer,
        epochs=config.victim_epochs,
        batch_size=config.substitute.batch_size,
        seed=config.seed,
    )
    return predict_labels(model, test_set.images)


def _accuracy(labels: np.ndarray, dataset: Dataset) -> float:
    """Top-1 accuracy of predicted ``labels`` (as :func:`evaluate`)."""
    return float((labels == dataset.labels).mean())


def run_security_experiment(
    config: SecurityExperimentConfig = SecurityExperimentConfig(),
    *,
    measure_transfer: bool = True,
    verbose: bool = False,
) -> SecurityOutcome:
    """Run one full Figure-3 (+ optionally Figure-4) experiment."""

    def builder() -> Module:
        return build_model(config.model, width_scale=config.width_scale)

    generator = SyntheticCIFAR10(seed=config.dataset_seed)
    train_set, test_set = generator.standard_splits(
        train_size=config.train_size, test_size=config.test_size
    )
    victim_set, adversary_seed = train_adversary_split(train_set, seed=config.seed)

    set_init_rng(config.seed)
    victim = builder()
    victim_labels = _train_victim(victim, victim_set, test_set, config)
    victim_accuracy = _accuracy(victim_labels, test_set)
    if verbose:
        print(f"victim {config.model} accuracy: {victim_accuracy:.3f}")

    substitutes: dict[str, SubstituteResult] = {}
    substitutes["white-box"] = white_box_substitute(victim)
    set_init_rng(config.seed + 1)
    substitutes["black-box"] = black_box_substitute(
        builder, victim, adversary_seed, config.substitute
    )
    for offset, ratio in enumerate(config.ratios):
        scheme = SealScheme(victim, ratio)
        set_init_rng(config.seed + 2 + offset)
        substitutes[SecurityOutcome.seal_key(ratio)] = seal_substitute(
            builder, victim, scheme.snooped_view(), adversary_seed, config.substitute
        )
        if verbose:
            key = SecurityOutcome.seal_key(ratio)
            print(f"built {key} (queries={substitutes[key].queries})")

    accuracy = {
        key: victim_accuracy if key == "white-box" else result.accuracy_on(test_set)
        for key, result in substitutes.items()
    }
    if verbose:
        for key, value in accuracy.items():
            print(f"accuracy[{key}] = {value:.3f}")

    transferability: dict[str, TransferResult] = {}
    if measure_transfer:
        for key, result in substitutes.items():
            ratio = result.ratio
            transferability[key] = measure_transferability(
                result.model,
                victim,
                test_set,
                num_examples=config.transfer_examples,
                config=config.ifgsm,
                substitute_kind=result.kind,
                ratio=ratio,
                seed=config.seed,
                victim_labels=victim_labels,
            )
            if verbose:
                print(f"transfer[{key}] = {transferability[key].transferability:.3f}")

    return SecurityOutcome(
        model=config.model,
        victim_accuracy=victim_accuracy,
        accuracy=accuracy,
        transferability=transferability,
        substitutes=substitutes,
    )
