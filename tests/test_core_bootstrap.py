"""Tests for repro.core.bootstrap (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.bootstrap import BootstrapEnsemble, bootstrap_sample


def toy_data(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = 5.0 - (X**2).sum(axis=1) + 0.05 * rng.normal(size=n)
    return X, y


class TestBootstrapEnsemble:
    def test_fit_predict(self):
        X, y = toy_data()
        ensemble = BootstrapEnsemble(gamma=3, seed=0).fit(X, y)
        pred = ensemble.predict_sum(X)
        assert pred.shape == (80,)
        assert np.corrcoef(pred, y)[0, 1] > 0.7

    def test_sum_is_gamma_times_mean(self):
        X, y = toy_data()
        ensemble = BootstrapEnsemble(gamma=4, seed=0).fit(X, y)
        assert np.allclose(
            ensemble.predict_sum(X), 4 * ensemble.predict_mean(X)
        )

    def test_members_disagree(self):
        """Bootstrap resamples differ, so member predictions must too —
        that disagreement is the whole point of bagging (Sec. II-C)."""
        X, y = toy_data()
        ensemble = BootstrapEnsemble(gamma=2, seed=0).fit(X, y)
        std = ensemble.predict_std(X)
        assert std.max() > 0

    def test_deterministic(self):
        X, y = toy_data()
        a = BootstrapEnsemble(gamma=2, seed=7).fit(X, y).predict_sum(X)
        b = BootstrapEnsemble(gamma=2, seed=7).fit(X, y).predict_sum(X)
        assert np.allclose(a, b)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BootstrapEnsemble(gamma=2).predict_sum(np.ones((2, 3)))
        with pytest.raises(RuntimeError):
            BootstrapEnsemble(gamma=2).predict_std(np.ones((2, 3)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            BootstrapEnsemble(gamma=2).fit(np.empty((0, 3)), np.empty(0))

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            BootstrapEnsemble(gamma=0)

    def test_custom_model_factory(self):
        calls = []

        class ConstantModel:
            def fit(self, X, y):
                calls.append(len(y))
                self.value = float(np.mean(y))
                return self

            def predict(self, X):
                return np.full(len(X), self.value)

        X, y = toy_data(n=30)
        ensemble = BootstrapEnsemble(
            gamma=3, model_factory=ConstantModel, seed=0
        ).fit(X, y)
        assert len(calls) == 3
        assert calls == [30, 30, 30]  # resample cardinality == |X| (Alg. 3)
        assert ensemble.predict_sum(X).shape == (30,)


class TestInvalidWeights:
    @pytest.mark.parametrize("refit", ["full", "incremental"])
    def test_rejected_before_any_draw(self, refit, bad_weights):
        X, y = toy_data(40)
        ensemble = BootstrapEnsemble(gamma=2, seed=0, refit=refit)
        ensemble.fit(X, y)
        members = list(ensemble._models)
        state = ensemble._rng.bit_generator.state
        with pytest.raises(ValueError, match="weight"):
            ensemble.fit(X, y, sample_weight=bad_weights(40))
        # a rejected call draws nothing and leaves the fitted members
        assert ensemble._rng.bit_generator.state == state
        assert ensemble._models == members

    def test_custom_factory_rejected_before_any_draw(self, bad_weights):
        X, y = toy_data(40)
        calls = []
        ensemble = BootstrapEnsemble(
            gamma=2, model_factory=lambda: calls.append(1), seed=0
        )
        state = ensemble._rng.bit_generator.state
        with pytest.raises(ValueError, match="weight"):
            ensemble.fit(X, y, sample_weight=bad_weights(40))
        assert ensemble._rng.bit_generator.state == state
        assert calls == []


class TestBootstrapSample:
    def test_picks_argmax_region(self):
        """With a clean quadratic target the chosen candidate must be
        near the optimum."""
        X, y = toy_data(n=150, seed=1)
        candidates = np.random.default_rng(2).uniform(-1, 1, size=(100, 3))
        labels = list(range(1000, 1100))
        chosen = bootstrap_sample(
            X, y, candidates, labels, gamma=2, seed=0
        )
        row = labels.index(chosen)
        dist_to_opt = np.linalg.norm(candidates[row])
        all_dists = np.linalg.norm(candidates, axis=1)
        assert dist_to_opt <= np.quantile(all_dists, 0.25)

    def test_empty_candidates(self):
        X, y = toy_data(n=20)
        with pytest.raises(ValueError):
            bootstrap_sample(X, y, np.empty((0, 3)), [], gamma=2)

    def test_label_mismatch(self):
        X, y = toy_data(n=20)
        with pytest.raises(ValueError):
            bootstrap_sample(X, y, np.ones((3, 3)), [1, 2], gamma=2)

    def test_returns_label_not_row(self):
        X, y = toy_data(n=40)
        candidates = np.random.default_rng(0).uniform(-1, 1, size=(10, 3))
        labels = [90, 91, 92, 93, 94, 95, 96, 97, 98, 99]
        chosen = bootstrap_sample(X, y, candidates, labels, gamma=2, seed=1)
        assert chosen in labels
