"""Training and evaluation loops for the numpy framework."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer, instrument
from . import functional as F
from .data import Dataset, batch_iterator
from .layers import Module
from .optim import Optimizer
from .tensor import Tensor, no_grad

__all__ = ["TrainReport", "train_epoch", "evaluate", "fit", "predict_logits", "predict_labels"]


@dataclass
class TrainReport:
    """Per-epoch loss/accuracy history from :func:`fit`."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    eval_accuracy: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.eval_accuracy[-1] if self.eval_accuracy else float("nan")


def train_epoch(
    model: Module,
    dataset: Dataset,
    optimizer: Optimizer,
    *,
    batch_size: int = 64,
    seed: int = 0,
    label_smoothing: float = 0.0,
) -> tuple[float, float]:
    """One pass over ``dataset``; returns (mean loss, accuracy)."""
    model.train()
    total_loss = 0.0
    correct = 0
    seen = 0
    for images, labels in batch_iterator(dataset, batch_size, seed=seed):
        x = Tensor(images.astype(np.float32))
        logits = model(x)
        loss = F.cross_entropy(logits, labels, label_smoothing=label_smoothing)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        batch = len(labels)
        total_loss += loss.item() * batch
        correct += int((logits.data.argmax(axis=1) == labels).sum())
        seen += batch
    return total_loss / max(seen, 1), correct / max(seen, 1)


def predict_logits(model: Module, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Forward-only logits for an image array (no graph construction)."""
    model.eval()
    outputs = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            x = Tensor(images[start : start + batch_size].astype(np.float32))
            outputs.append(model(x).data.copy())
    return np.concatenate(outputs, axis=0)


def predict_labels(model: Module, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Hard label predictions — what the paper's query interface exposes."""
    return predict_logits(model, images, batch_size).argmax(axis=1)


def evaluate(model: Module, dataset: Dataset, batch_size: int = 256) -> float:
    """Top-1 accuracy on ``dataset``."""
    predictions = predict_labels(model, dataset.images, batch_size)
    return float((predictions == dataset.labels).mean())


def fit(
    model: Module,
    train_set: Dataset,
    optimizer: Optimizer,
    *,
    epochs: int,
    eval_set: Dataset | None = None,
    batch_size: int = 64,
    scheduler: object | None = None,
    seed: int = 0,
    verbose: bool = False,
) -> TrainReport:
    """Train for ``epochs`` epochs, optionally evaluating each epoch."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    metrics = get_metrics()
    tracer = get_tracer()
    report = TrainReport()
    with instrument("train.fit", {"epochs": epochs, "batch_size": batch_size}):
        for epoch in range(epochs):
            with tracer.span("train.epoch", {"epoch": epoch}) as span:
                loss, accuracy = train_epoch(
                    model, train_set, optimizer, batch_size=batch_size, seed=seed + epoch
                )
                metrics.count("train.epochs")
                if span:
                    span.set_attr("loss", round(loss, 6))
                    span.set_attr("accuracy", round(accuracy, 6))
            report.train_loss.append(loss)
            report.train_accuracy.append(accuracy)
            if eval_set is not None:
                report.eval_accuracy.append(evaluate(model, eval_set))
            if scheduler is not None:
                scheduler.step()
            if verbose:
                eval_txt = (
                    f" eval_acc={report.eval_accuracy[-1]:.3f}" if eval_set is not None else ""
                )
                print(f"epoch {epoch + 1}/{epochs} loss={loss:.4f} acc={accuracy:.3f}{eval_txt}")
    return report
