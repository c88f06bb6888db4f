"""Tests for the shared training loop and accuracy evaluation."""

import numpy as np
import pytest

from repro.nn import SGD
from repro.training import TrainConfig, evaluate_accuracy, predict, train_classifier
from tests.conftest import TinyConvNet, make_tiny_dataset


class TestTrainClassifier:
    def test_loss_decreases(self):
        model = TinyConvNet(seed=0)
        dataset = make_tiny_dataset(120, seed=0)
        result = train_classifier(model, dataset, TrainConfig(epochs=5, batch_size=32, lr=0.08))
        assert result.losses[-1] < result.losses[0]
        assert result.final_loss == result.losses[-1]

    def test_learns_separable_task(self):
        model = TinyConvNet(seed=1)
        train = make_tiny_dataset(150, seed=1)
        test = make_tiny_dataset(60, seed=2)
        train_classifier(model, train, TrainConfig(epochs=8, batch_size=32, lr=0.08))
        assert evaluate_accuracy(model, test) > 0.8

    def test_deterministic_given_seeds(self):
        def run():
            model = TinyConvNet(seed=3)
            dataset = make_tiny_dataset(90, seed=3)
            train_classifier(model, dataset, TrainConfig(epochs=2, batch_size=32, shuffle_seed=7))
            return model.state_dict()

        a, b = run(), run()
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_custom_optimizer_used(self):
        model = TinyConvNet(seed=0)
        dataset = make_tiny_dataset(60, seed=0)
        optimizer = SGD(model.parameters(), lr=1e-9)
        before = model.fc.weight.data.copy()
        train_classifier(model, dataset, TrainConfig(epochs=1), optimizer=optimizer)
        # With a vanishing LR the weights barely move.
        assert np.abs(model.fc.weight.data - before).max() < 1e-5

    def test_epoch_callback_invoked(self):
        calls = []
        model = TinyConvNet(seed=0)
        dataset = make_tiny_dataset(60, seed=0)
        train_classifier(
            model, dataset, TrainConfig(epochs=3, batch_size=32),
            epoch_callback=lambda epoch, loss: calls.append((epoch, loss)),
        )
        assert [c[0] for c in calls] == [0, 1, 2]

    def test_model_left_in_eval_mode(self):
        model = TinyConvNet(seed=0)
        train_classifier(model, make_tiny_dataset(30), TrainConfig(epochs=1))
        assert not model.training


class TestPredictAndAccuracy:
    def test_predict_shape_and_range(self):
        model = TinyConvNet(seed=0)
        data = make_tiny_dataset(40, seed=5)
        preds = predict(model, data.images)
        assert preds.shape == (40,)
        assert set(np.unique(preds)) <= {0, 1, 2}

    def test_predict_batching_invariant(self):
        model = TinyConvNet(seed=0)
        data = make_tiny_dataset(50, seed=6)
        a = predict(model, data.images, batch_size=7)
        b = predict(model, data.images, batch_size=64)
        assert np.array_equal(a, b)

    def test_empty_accuracy_raises(self):
        from repro.data import ImageDataset

        empty = ImageDataset(np.zeros((0, 3, 8, 8), dtype=np.float32), np.zeros(0))
        with pytest.raises(ValueError):
            evaluate_accuracy(TinyConvNet(), empty)

    def test_accuracy_bounds(self):
        model = TinyConvNet(seed=0)
        acc = evaluate_accuracy(model, make_tiny_dataset(30, seed=7))
        assert 0.0 <= acc <= 1.0
