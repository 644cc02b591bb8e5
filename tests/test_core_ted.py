"""Tests for repro.core.ted (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ted import rbf_kernel, ted_select
from repro.utils.mathx import pairwise_sq_dists


class TestRbfKernel:
    def test_diagonal_is_one(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        K = rbf_kernel(X)
        assert np.allclose(np.diag(K), 1.0)

    def test_symmetric_psd_entries(self):
        X = np.random.default_rng(1).normal(size=(8, 4))
        K = rbf_kernel(X)
        assert np.allclose(K, K.T)
        assert (K > 0).all()
        assert (K <= 1.0 + 1e-12).all()

    def test_distance_monotone(self):
        X = np.array([[0.0], [1.0], [5.0]])
        K = rbf_kernel(X)
        assert K[0, 1] > K[0, 2]

    def test_identical_points_fallback(self):
        X = np.ones((5, 3))
        K = rbf_kernel(X)
        assert np.allclose(K, 1.0)

    def test_single_point(self):
        assert rbf_kernel(np.ones((1, 3))).shape == (1, 1)

    def test_explicit_bandwidth(self):
        X = np.array([[0.0], [1.0]])
        K = rbf_kernel(X, bandwidth=1.0)
        assert K[0, 1] == pytest.approx(np.exp(-0.5))

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.ones((2, 2)), bandwidth=0.0)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.ones(3))


class TestTedSelect:
    def test_selects_m_distinct(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        picked = ted_select(X, m=10)
        assert len(picked) == 10
        assert len(set(picked)) == 10
        assert all(0 <= i < 50 for i in picked)

    def test_m_clipped_to_n(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        assert len(ted_select(X, m=20)) == 5

    def test_empty_input(self):
        assert ted_select(np.empty((0, 3)), m=4) == []

    def test_bad_args(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError):
            ted_select(X, m=0)
        for mu in (0.0, -1.0):
            with pytest.raises(ValueError, match="mu"):
                ted_select(X, m=2, mu=mu)
        with pytest.raises(ValueError):
            ted_select(np.ones(5), m=2)

    def test_picks_cluster_representatives(self):
        """Three tight clusters: the first three picks must cover all
        three clusters (the defining behaviour of TED)."""
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.vstack([
            center + 0.05 * rng.normal(size=(20, 2)) for center in centers
        ])
        picked = ted_select(X, m=3)
        clusters = {i // 20 for i in picked}
        assert clusters == {0, 1, 2}

    def test_more_diverse_than_random(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 6))
        picked = ted_select(X, m=16)
        ted_min = _min_pairwise(X[picked])
        random_mins = []
        for seed in range(10):
            rows = np.random.default_rng(seed).choice(200, 16, replace=False)
            random_mins.append(_min_pairwise(X[rows]))
        assert ted_min > np.mean(random_mins)

    def test_deterministic(self):
        X = np.random.default_rng(0).normal(size=(40, 3))
        assert ted_select(X, m=8) == ted_select(X, m=8)

    @given(st.integers(0, 10**6), st.integers(2, 12))
    @settings(max_examples=15, deadline=None)
    def test_distinct_property(self, seed, m):
        X = np.random.default_rng(seed).normal(size=(30, 4))
        picked = ted_select(X, m=m)
        assert len(set(picked)) == min(m, 30)


def _min_pairwise(X: np.ndarray) -> float:
    sq = pairwise_sq_dists(X, X)
    iu = np.triu_indices(len(X), k=1)
    return float(np.sqrt(sq[iu].min()))
