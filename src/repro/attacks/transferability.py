"""Transferability measurement (Figure 4 of the paper).

Transferability = the fraction of adversarial examples crafted against a
*substitute* that also fool the *victim* — "a widely used metric to
evaluate the efficiency of substitute models for adversarial attacks".
White-box substitutes transfer almost perfectly; black-box substitutes sit
around 20%; SEAL substitutes approach black-box once the encryption ratio
reaches ~50%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.data import Dataset
from ..nn.layers import Module
from ..nn.training import predict_labels
from .adversarial import AdversarialBatch, IfgsmConfig, craft_adversarial_batch

__all__ = ["TransferResult", "measure_transferability"]


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one substitute → victim transfer test."""

    substitute_kind: str
    ratio: float | None
    examples: int
    substitute_success_rate: float
    transferability: float
    targeted_transferability: float

    def __str__(self) -> str:
        label = self.substitute_kind
        if self.ratio is not None:
            label += f"@{self.ratio:.0%}"
        return (
            f"{label}: substitute success {self.substitute_success_rate:.1%}, "
            f"transferability {self.transferability:.1%}"
        )


def measure_transferability(
    substitute: Module,
    victim: Module,
    dataset: Dataset,
    *,
    num_examples: int = 200,
    config: IfgsmConfig = IfgsmConfig(),
    substitute_kind: str = "substitute",
    ratio: float | None = None,
    seed: int = 0,
    only_correctly_classified: bool = True,
    victim_labels: np.ndarray | None = None,
) -> TransferResult:
    """Craft on ``substitute``, attack ``victim``, report success ratios.

    ``only_correctly_classified`` restricts the pool to images the victim
    classifies correctly (standard practice: an example the victim already
    gets wrong cannot demonstrate a *caused* misclassification).
    ``victim_labels`` are the victim's predictions on ``dataset.images``
    when the caller already has them; otherwise they are computed here.
    Transferability counts victim misclassification of the true label; the
    targeted variant (victim predicts the pre-assigned target) is also
    reported for completeness.
    """
    rng = np.random.default_rng(seed)
    images, labels = dataset.images, dataset.labels
    if only_correctly_classified:
        if victim_labels is None:
            victim_labels = predict_labels(victim, images)
        keep = victim_labels == labels
        images, labels = images[keep], labels[keep]
    if len(images) == 0:
        raise ValueError("no usable images for the transfer test")
    if len(images) > num_examples:
        choice = rng.choice(len(images), size=num_examples, replace=False)
        images, labels = images[choice], labels[choice]

    batch: AdversarialBatch = craft_adversarial_batch(
        substitute, images, labels, config, rng=rng
    )
    victim_predictions = predict_labels(victim, batch.examples)
    misclassified = victim_predictions != batch.true_labels
    transfer = float(misclassified.mean())
    if batch.target_labels is not None:
        targeted = float((victim_predictions == batch.target_labels).mean())
    else:
        targeted = transfer
    return TransferResult(
        substitute_kind=substitute_kind,
        ratio=ratio,
        examples=len(images),
        substitute_success_rate=batch.substitute_success_rate,
        transferability=transfer,
        targeted_transferability=targeted,
    )
