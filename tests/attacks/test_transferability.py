"""Transferability-measurement tests."""

import numpy as np
import pytest

from repro.attacks.adversarial import IfgsmConfig
from repro.attacks.transferability import measure_transferability
from repro.nn.data import SyntheticCIFAR10
from repro.nn.layers import (
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    set_init_rng,
)
from repro.nn.optim import Adam
from repro.nn.training import fit, predict_labels


def make_model(seed):
    set_init_rng(seed)
    return Sequential(
        Conv2d(3, 8, 3, padding=1),
        ReLU(),
        MaxPool2d(2),
        Conv2d(8, 16, 3, padding=1),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(16 * 8 * 8, 10),
    )


@pytest.fixture(scope="module")
def setting():
    gen = SyntheticCIFAR10(noise=0.15)
    train = gen.sample(256, seed=1)
    test = gen.sample(96, seed=2)
    victim = make_model(0)
    fit(victim, train, Adam(list(victim.parameters()), lr=3e-3), epochs=10, batch_size=32)
    other = make_model(7)
    fit(other, train, Adam(list(other.parameters()), lr=3e-3), epochs=2, batch_size=32)
    return victim, other, test


ATTACK = IfgsmConfig(epsilon=0.1, alpha=0.02, iterations=10)


class TestMeasurement:
    def test_white_box_transfer_is_high(self, setting):
        victim, _, test = setting
        result = measure_transferability(
            victim, victim, test, num_examples=40, config=ATTACK,
            substitute_kind="white-box",
        )
        assert result.transferability > 0.8

    def test_weak_substitute_transfers_less_than_white_box(self, setting):
        victim, other, test = setting
        white = measure_transferability(
            victim, victim, test, num_examples=40, config=ATTACK
        )
        cross = measure_transferability(
            other, victim, test, num_examples=40, config=ATTACK
        )
        assert cross.transferability <= white.transferability

    def test_result_fields(self, setting):
        victim, other, test = setting
        result = measure_transferability(
            other, victim, test, num_examples=20, config=ATTACK,
            substitute_kind="seal", ratio=0.5,
        )
        assert result.substitute_kind == "seal"
        assert result.ratio == 0.5
        assert result.examples == 20
        assert 0.0 <= result.transferability <= 1.0
        assert 0.0 <= result.targeted_transferability <= result.transferability + 1e-9
        assert "seal" in str(result)

    def test_only_correct_pool_filter(self, setting):
        victim, other, test = setting
        result = measure_transferability(
            other, victim, test, num_examples=1000, config=ATTACK,
            only_correctly_classified=True,
        )
        # Cannot exceed the number of correctly classified test images.
        assert result.examples <= len(test)

    def test_deterministic_given_seed(self, setting):
        victim, other, test = setting
        a = measure_transferability(
            other, victim, test, num_examples=20, config=ATTACK, seed=5
        )
        b = measure_transferability(
            other, victim, test, num_examples=20, config=ATTACK, seed=5
        )
        assert a.transferability == b.transferability
        # Passing the victim's test-set labels in skips its forward pass only.
        c = measure_transferability(
            other, victim, test, num_examples=20, config=ATTACK, seed=5,
            victim_labels=predict_labels(victim, test.images),
        )
        assert c == a

    def test_untargeted_config(self, setting):
        victim, other, test = setting
        result = measure_transferability(
            other, victim, test, num_examples=20,
            config=IfgsmConfig(epsilon=0.1, alpha=0.02, iterations=5, targeted=False),
        )
        assert result.targeted_transferability == result.transferability

    def test_empty_pool_raises(self, setting):
        victim, other, test = setting
        # An untrained "victim" that classifies nothing correctly on a
        # single-class subset triggers the guard.
        from repro.nn.data import Dataset

        wrong_labels = Dataset(test.images[:10], (test.labels[:10] + 1) % 10)
        correct = (victim is not None)
        assert correct
        with pytest.raises(ValueError):
            # Victim never matches deliberately wrong labels.
            predictions_all_wrong = wrong_labels
            from repro.nn.training import predict_labels

            labels = predict_labels(victim, predictions_all_wrong.images)
            mismatched = Dataset(
                predictions_all_wrong.images, (labels + 1) % 10
            )
            measure_transferability(
                other, victim, mismatched, num_examples=5, config=ATTACK
            )
