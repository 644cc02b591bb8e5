"""Tests for repro.learning.gbt."""

import numpy as np
import pytest

from repro.learning.gbt import GradientBoostedTrees
from repro.learning.metrics import rank_accuracy, rmse


def friedman_like(n=400, seed=0):
    """A smooth nonlinear target the ensemble should fit well."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 5))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
    )
    return X, y


class TestFitQuality:
    def test_beats_constant_predictor(self):
        X, y = friedman_like()
        model = GradientBoostedTrees(
            n_estimators=50, max_depth=4, seed=0
        ).fit(X, y)
        pred = model.predict(X)
        assert rmse(y, pred) < 0.3 * y.std()

    def test_ranking_quality(self):
        X, y = friedman_like(300, seed=1)
        model = GradientBoostedTrees(n_estimators=40, seed=0).fit(X, y)
        assert rank_accuracy(y, model.predict(X)) > 0.9

    def test_generalizes(self):
        X, y = friedman_like(500, seed=2)
        Xt, yt = friedman_like(200, seed=3)
        model = GradientBoostedTrees(n_estimators=60, seed=0).fit(X, y)
        assert rmse(yt, model.predict(Xt)) < 0.5 * yt.std()

    def test_single_sample(self):
        model = GradientBoostedTrees(n_estimators=3, seed=0)
        model.fit(np.array([[1.0, 2.0]]), np.array([5.0]))
        assert model.predict(np.array([[1.0, 2.0]]))[0] == pytest.approx(5.0)

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        model = GradientBoostedTrees(n_estimators=5, seed=0).fit(
            X, np.full(50, 3.0)
        )
        assert model.predict(X) == pytest.approx(np.full(50, 3.0))


class TestDeterminism:
    def test_same_seed_same_model(self):
        X, y = friedman_like(100)
        a = GradientBoostedTrees(n_estimators=20, seed=9).fit(X, y).predict(X)
        b = GradientBoostedTrees(n_estimators=20, seed=9).fit(X, y).predict(X)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        X, y = friedman_like(100)
        a = GradientBoostedTrees(n_estimators=20, subsample=0.7,
                                 seed=1).fit(X, y).predict(X)
        b = GradientBoostedTrees(n_estimators=20, subsample=0.7,
                                 seed=2).fit(X, y).predict(X)
        assert not np.allclose(a, b)


class TestValidation:
    def test_bad_hyperparams(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=1.5)

    def test_shape_errors(self):
        model = GradientBoostedTrees()
        with pytest.raises(ValueError):
            model.fit(np.ones((5, 2)), np.ones(4))
        with pytest.raises(ValueError):
            model.fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.ones((2, 2)))

    def test_sample_weight_mismatch(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(
                np.ones((5, 2)), np.ones(5), sample_weight=np.ones(4)
            )

    def test_weights_downweight_outliers(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(100, 2))
        y = X[:, 0].copy()
        y[:10] += 100.0  # corrupted rows
        w = np.ones(100)
        w[:10] = 1e-6
        model = GradientBoostedTrees(n_estimators=30, seed=0).fit(
            X, y, sample_weight=w
        )
        clean_rmse = rmse(X[10:, 0], model.predict(X[10:]))
        assert clean_rmse < 1.0


class TestInvalidWeights:
    """Negative, NaN, infinite or all-zero weights raise, never fit NaN."""

    def test_fit_rejects(self, bad_weights):
        X, y = friedman_like(30)
        model = GradientBoostedTrees(n_estimators=3, seed=0)
        with pytest.raises(ValueError, match="weight"):
            model.fit(X, y, sample_weight=bad_weights(30))

    def test_fit_more_rejects(self, bad_weights):
        X, y = friedman_like(30)
        model = GradientBoostedTrees(n_estimators=3, seed=0)
        model.fit(X, y)
        with pytest.raises(ValueError, match="weight"):
            model.fit_more(X, y, 2, sample_weight=bad_weights(30))
        assert model.n_trees == 3

    def test_zero_weights_on_some_rows_still_fit(self):
        X, y = friedman_like(30)
        w = np.ones(30)
        w[:10] = 0.0
        model = GradientBoostedTrees(n_estimators=5, seed=0)
        assert np.isfinite(model.fit(X, y, sample_weight=w).predict(X)).all()
