"""Jacobian-based dataset augmentation (Papernot et al., ASIA CCS'17).

The adversary holds a small seed set (the paper gives them 10% of the
CIFAR-10 training split) and no other data.  To train a useful substitute
they synthesise new inputs that probe the victim's decision boundary:

    x' = x + λ · sign(∂F_ŷ(x) / ∂x)

where ``F`` is the *current substitute* and ``ŷ`` the victim's label for
``x``.  The new points are labelled by querying the victim, doubling the
dataset per round.  The paper's adversary turns 5,000 seed images into
45,000 via this procedure; scaled-down runs use fewer rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..nn.data import Dataset
from ..nn.layers import Module
from ..nn.tensor import Tensor
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer, instrument

__all__ = ["jacobian_step", "jacobian_augment", "AugmentationResult"]

QueryFn = Callable[[np.ndarray], np.ndarray]


def jacobian_step(
    substitute: Module,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    lambda_: float = 0.1,
    batch_size: int = 128,
) -> np.ndarray:
    """One augmentation step: perturb ``images`` along the substitute's
    Jacobian sign in the direction of their (victim-assigned) labels."""
    substitute.eval()
    outputs = []
    for start in range(0, len(images), batch_size):
        batch = images[start : start + batch_size].astype(np.float32)
        batch_labels = labels[start : start + batch_size]
        x = Tensor(batch, requires_grad=True)
        logits = substitute(x)
        # Sum of the label-logit over the batch: its input gradient is the
        # per-sample Jacobian row for each sample's own label.
        selected = logits[np.arange(len(batch_labels)), batch_labels.astype(int)]
        selected.sum().backward()
        gradient = x.grad
        perturbed = batch + lambda_ * np.sign(gradient)
        outputs.append(np.clip(perturbed, 0.0, 1.0).astype(np.float32))
    return np.concatenate(outputs, axis=0)


@dataclass
class AugmentationResult:
    """Dataset produced by Jacobian augmentation plus provenance info."""

    dataset: Dataset
    rounds: int
    queries: int


def jacobian_augment(
    substitute: Module,
    seed: Dataset,
    query_victim: QueryFn,
    *,
    rounds: int = 2,
    lambda_: float = 0.1,
    max_samples: int | None = None,
    train_between_rounds: Callable[[Module, Dataset], None] | None = None,
    rng: np.random.Generator | None = None,
) -> AugmentationResult:
    """Grow ``seed`` by ``rounds`` of Jacobian augmentation.

    ``query_victim`` maps an image batch to the victim's hard labels (the
    only oracle the threat model grants).  ``train_between_rounds``
    optionally refreshes the substitute on the accumulated data after each
    round — the full Papernot procedure; omitting it still produces
    boundary-probing data from the initial substitute.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    metrics = get_metrics()
    tracer = get_tracer()
    rng = rng or np.random.default_rng(0)
    with instrument(
        "attack.augment", {"rounds": rounds, "seed_samples": len(seed.images)}
    ):
        images = seed.images.copy()
        labels = query_victim(images)
        queries = len(images)
        for round_index in range(rounds):
            base = images
            if max_samples is not None and 2 * len(base) > max_samples:
                keep = max_samples - len(base)
                if keep <= 0:
                    break
                choice = rng.choice(len(base), size=keep, replace=False)
                base = base[choice]
                base_labels = labels[choice]
            else:
                base_labels = labels
            with tracer.span("attack.augment.round", {"round": round_index}) as span:
                new_images = jacobian_step(
                    substitute, base, base_labels, lambda_=lambda_
                )
                new_labels = query_victim(new_images)
                queries += len(new_images)
                metrics.count("attack.augmentation_rounds")
                if span:
                    span.set_attr("new_samples", len(new_images))
                    span.set_attr("total_samples", len(images) + len(new_images))
            images = np.concatenate([images, new_images], axis=0)
            labels = np.concatenate([labels, new_labels], axis=0)
            if train_between_rounds is not None:
                train_between_rounds(substitute, Dataset(images, labels))
    metrics.count("attack.queries", queries)
    return AugmentationResult(Dataset(images, labels), rounds, queries)
