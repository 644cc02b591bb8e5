"""Tests for repro.learning.tree: binning and histogram trees, checked
against the exact-CART oracle in ``tests/tree_oracle.py``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.learning.tree import BinnedRegressionTree, apply_bins, bin_features
from tests import tree_oracle
from tests.tree_oracle import RegressionTree


def step_data(n=200, seed=0):
    """Data with an exact axis-aligned step: a tree should nail it."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 3))
    y = np.where(X[:, 1] > 0.5, 2.0, -1.0)
    return X, y


class TestRegressionTree:
    """The exact-CART oracle is itself a correct regression tree."""

    def test_learns_a_step(self):
        X, y = step_data()
        tree = RegressionTree(max_depth=2).fit(X, y)
        pred = tree.predict(X)
        assert np.abs(pred - y).max() < 1e-9

    def test_stump_is_mean(self):
        X = np.ones((10, 2))  # constant features: no split possible
        y = np.arange(10.0)
        tree = RegressionTree(max_depth=3).fit(X, y)
        assert tree.predict(X) == pytest.approx(np.full(10, y.mean()))

    def test_min_samples_leaf(self):
        X, y = step_data(40)
        tree = RegressionTree(max_depth=8, min_samples_leaf=10).fit(X, y)
        # count samples routed to each leaf
        pred = tree.predict(X)
        for value in np.unique(pred):
            assert (pred == value).sum() >= 10

    def test_sample_weight_shifts_leaf_values(self):
        X = np.zeros((4, 1))
        y = np.array([0.0, 0.0, 10.0, 10.0])
        w = np.array([1.0, 1.0, 0.0001, 0.0001])
        tree = RegressionTree(max_depth=1).fit(X, y, sample_weight=w)
        assert tree.predict(np.zeros((1, 1)))[0] < 0.1

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_predictions_within_target_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        tree = RegressionTree(max_depth=4).fit(X, y)
        pred = tree.predict(X)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9


class TestBinning:
    def test_codes_in_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 5))
        codes, edges = bin_features(X, n_bins=8)
        assert codes.min() >= 0
        assert codes.max() < 8
        assert len(edges) == 5

    def test_apply_bins_consistent(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        codes, edges = bin_features(X, n_bins=8)
        assert (apply_bins(X, edges) == codes).all()

    def test_constant_column(self):
        X = np.ones((50, 2))
        codes, edges = bin_features(X, n_bins=8)
        assert (codes == codes[0]).all()

    def test_monotone(self):
        X = np.linspace(0, 1, 64)[:, None]
        codes, _ = bin_features(X, n_bins=8)
        assert (np.diff(codes[:, 0]) >= 0).all()

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 200),
        d=st.integers(1, 30),
        n_bins=st.integers(2, 32),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_per_column_quantiles(self, seed, n, d, n_bins):
        # one quantile call over every column gives each column's own
        # edges and codes bit for bit
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        X[:, 0] = 1.0
        if d >= 3:
            X[:, 2] = np.round(X[:, 1], 1)
        codes, edges = bin_features(X, n_bins=n_bins)
        ref_codes, ref_edges = tree_oracle.bin_features(X, n_bins=n_bins)
        assert codes.tobytes() == ref_codes.tobytes()
        assert len(edges) == len(ref_edges)
        for edge, ref in zip(edges, ref_edges):
            assert edge.dtype == ref.dtype and edge.tobytes() == ref.tobytes()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            bin_features(np.ones(5))
        with pytest.raises(ValueError):
            bin_features(np.ones((5, 2)), n_bins=1)


class TestBinnedTree:
    def test_learns_a_step_on_codes(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 16, size=(300, 3))
        y = np.where(codes[:, 1] > 7, 2.0, -1.0)
        tree = BinnedRegressionTree(n_bins=16, max_depth=3).fit(codes, y)
        pred = tree.predict(codes)
        assert np.abs(pred - y).max() < 1e-9

    def test_learns_step_through_binning_approximately(self):
        X, y = step_data(300)
        codes, _ = bin_features(X, n_bins=16)
        tree = BinnedRegressionTree(n_bins=16, max_depth=3).fit(codes, y)
        pred = tree.predict(codes)
        # quantile edges rarely align exactly with the step at 0.5, so a
        # few boundary samples may be off — but not more than a bin's worth
        assert np.mean(np.abs(pred - y) > 1e-6) < 0.1

    def test_agrees_with_exact_tree_on_binned_data(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 8, size=(200, 4))
        y = codes[:, 0] * 1.0 + (codes[:, 2] > 4) * 3.0
        binned = BinnedRegressionTree(n_bins=8, max_depth=4).fit(codes, y)
        exact = RegressionTree(max_depth=4).fit(codes.astype(float), y)
        a = binned.predict(codes)
        b = exact.predict(codes.astype(float))
        # identical split family -> identical training error profile
        assert np.mean((a - y) ** 2) == pytest.approx(
            np.mean((b - y) ** 2), rel=0.05, abs=1e-9
        )

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 16, size=(60, 3))
        y = rng.normal(size=60)
        tree = BinnedRegressionTree(
            n_bins=16, max_depth=6, min_samples_leaf=10
        ).fit(codes, y)
        pred = tree.predict(codes)
        values, counts = np.unique(pred, return_counts=True)
        assert counts.min() >= 10

    def test_constant_target_single_node(self):
        codes = np.random.default_rng(0).integers(0, 8, size=(30, 2))
        tree = BinnedRegressionTree(n_bins=8).fit(codes, np.full(30, 5.0))
        assert tree.node_count == 1
        assert tree.predict(codes) == pytest.approx(np.full(30, 5.0))

    def test_sample_weight(self):
        codes = np.array([[0], [0], [7], [7]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        w = np.array([1.0, 1.0, 1e-6, 1e-6])
        tree = BinnedRegressionTree(n_bins=8, max_depth=1,
                                    min_samples_leaf=1).fit(codes, y, w)
        assert tree.predict(np.array([[0]]))[0] == pytest.approx(0.0, abs=0.1)

    def test_validation(self):
        tree = BinnedRegressionTree(n_bins=8)
        with pytest.raises(ValueError):
            tree.fit(np.ones((5, 2)) * 9, np.ones(5))  # codes out of range
        with pytest.raises(ValueError):
            tree.fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(RuntimeError):
            BinnedRegressionTree(n_bins=8).predict(np.zeros((2, 2), int))
        with pytest.raises(ValueError):
            BinnedRegressionTree(n_bins=1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_predictions_within_range(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 16, size=(60, 5))
        y = rng.normal(size=60)
        tree = BinnedRegressionTree(n_bins=16, max_depth=5).fit(codes, y)
        pred = tree.predict(codes)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9


class TestInvalidWeights:
    """Negative, NaN, infinite or all-zero weights raise, never fit NaN."""

    def test_binned_tree_rejects(self, bad_weights):
        codes = np.random.default_rng(0).integers(0, 8, size=(20, 3))
        y = np.arange(20.0)
        with pytest.raises(ValueError, match="weight"):
            BinnedRegressionTree(n_bins=8).fit(
                codes, y, sample_weight=bad_weights(20)
            )

    def test_weight_length_must_match(self):
        codes = np.zeros((5, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="sample_weight"):
            BinnedRegressionTree(n_bins=8).fit(
                codes, np.ones(5), sample_weight=np.ones(4)
            )
