"""Equivalence pins for the vectorized hot paths.

Every hot-path optimization must be either bit-identical to the
reference implementation it replaced (vectorized histogram-tree
predict against the per-node walk in ``tests/tree_oracle.py``, the
one-pass histogram grower against the single-tree level loop there,
boolean-mask kernel bandwidth, ``np.isin`` visited filtering,
``FeatureCache``) or, where the arithmetic was reassociated
(incremental TED against the in-place loop in ``tests/ted_oracle.py``),
divergent only on floating-point near-ties.  These tests check those
contracts over random inputs.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bao import BaoOptimizer
from repro.core.bootstrap import BootstrapEnsemble
from repro.core.events import BatchMeasured, BatchProposed, EventLog
from repro.core.ted import rbf_kernel, ted_select
from repro.core.tuners.btedbao import BTEDBAOTuner
from repro.hardware.measure import SimulatedTask
from repro.learning.tree import BinnedRegressionTree, grow_binned
from repro.nn.workloads import DenseWorkload
from repro.space.space import FeatureCache
from repro.utils.mathx import pairwise_sq_dists
from tests import ted_oracle, tree_oracle

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TASK = SimulatedTask(
    DenseWorkload(batch=1, in_features=64, out_features=48), seed=3
)


class TestTreePredictEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 120),
        d=st.integers(1, 8),
        n_bins=st.integers(2, 16),
        max_depth=st.integers(1, 9),
        n_test=st.integers(1, 200),
    )
    @PROPERTY
    def test_vectorized_predict_matches_reference(
        self, seed, n, d, n_bins, max_depth, n_test
    ):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, n_bins, size=(n, d))
        y = rng.random(n)
        tree = BinnedRegressionTree(n_bins, max_depth=max_depth)
        tree.fit(codes, y)
        codes_test = rng.integers(0, n_bins, size=(n_test, d))
        fast = tree.predict(codes_test)
        ref = tree_oracle.predict(tree, codes_test)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)


def _exact_scores(K, picks, mu):
    """Reference TED scores after deflating ``K`` by ``picks`` in order."""
    K = K.copy()
    for x in picks:
        kx = K[:, x]
        K = K - np.outer(kx, kx) / (kx[x] + mu)
    col_norms = np.einsum("ij,ij->j", K, K)
    return col_norms / (np.diag(K) + mu)


class TestBinnedGrowerEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        sizes=st.lists(st.integers(1, 80), min_size=1, max_size=4),
        d=st.integers(1, 12),
        n_bins=st.integers(2, 32),
        max_depth=st.integers(1, 7),
        min_samples_leaf=st.integers(0, 3),
        weights=st.sampled_from(["unit", "positive", "some-zero"]),
    )
    @PROPERTY
    def test_one_pass_matches_single_tree_fits(
        self, seed, sizes, d, n_bins, max_depth, min_samples_leaf, weights
    ):
        # each member's tree equals a single-tree fit on its subsample,
        # and the returned leaf values equal that tree's predict
        rng = np.random.default_rng(seed)
        bounds = np.cumsum([0] + sizes)
        n = int(bounds[-1])
        codes = rng.integers(0, n_bins, size=(n, d))
        codes[:, 0] = 0  # a constant column
        y = np.round(rng.normal(size=n), 1)
        w = {
            "unit": np.ones(n),
            "positive": rng.uniform(0.1, 2.0, size=n),
            "some-zero": rng.integers(0, 3, size=n).astype(np.float64),
        }[weights]
        fits = []
        for lo, size in zip(bounds, sizes):
            k = max(2, int(round(0.9 * size))) if size > 4 else size
            rows = lo + rng.choice(size, size=k, replace=False)
            w[rows[0]] = max(w[rows[0]], 1.0)  # a positive total weight
            fits.append(rows)
        settings_ = (n_bins, max_depth, min_samples_leaf)
        trees = [BinnedRegressionTree(*settings_) for _ in sizes]
        leaves = grow_binned(trees, codes, y, w, bounds, np.concatenate(fits))
        for m, rows in enumerate(fits):
            ref = tree_oracle.fit_binned(
                BinnedRegressionTree(*settings_), codes[rows], y[rows], w[rows]
            )
            assert pickle.dumps(trees[m]) == pickle.dumps(ref)
            mine = slice(bounds[m], bounds[m + 1])
            assert leaves[mine].tobytes() == ref.predict(codes[mine]).tobytes()


class TestTedFastEquivalence:
    """The incremental ``ted_select`` against the in-place oracle loop."""

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(8, 120),
        d=st.integers(1, 6),
        m=st.integers(1, 16),
        mu=st.floats(1e-3, 10.0),
    )
    @PROPERTY
    def test_fast_matches_exact_or_diverges_on_near_tie(
        self, seed, n, d, m, mu
    ):
        rng = np.random.default_rng(seed)
        features = rng.random((n, d))
        m = min(m, n)
        exact = ted_oracle.ted_select(features, m=m, mu=mu)
        fast = ted_select(features, m=m, mu=mu)
        assert len(fast) == len(exact) == m
        assert len(set(fast)) == m
        if fast == exact:
            return
        # the first divergence must be a floating-point near-tie: the
        # oracle's scores of the two picks agree to ~1e-9 relative
        step = next(i for i, (a, b) in enumerate(zip(exact, fast)) if a != b)
        K = rbf_kernel(features)
        scores = _exact_scores(K, exact[:step], mu)
        gap = abs(scores[exact[step]] - scores[fast[step]])
        tol = 1e-9 * max(1.0, abs(scores[exact[step]]))
        assert gap <= tol, f"fast TED diverged on a non-tie (gap={gap})"

    def test_duplicate_rows_still_select_distinct_points(self):
        # deflating a pick leaves its duplicate a diagonal of
        # mu / (1 + mu), so with mu > 0 every score stays finite
        rng = np.random.default_rng(0)
        features = np.repeat(rng.random((10, 3)), 2, axis=0)
        picked = ted_select(features, m=15, mu=0.1)
        assert picked == ted_oracle.ted_select(features, m=15, mu=0.1)
        assert len(set(picked)) == 15


class TestKernelBandwidthEquivalence:
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 60))
    @PROPERTY
    def test_median_bandwidth_matches_triu_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        # reference: the pre-PR triu_indices median heuristic
        sq = pairwise_sq_dists(X, X)
        iu = np.triu_indices(n, k=1)
        positive = sq[iu][sq[iu] > 0]
        if positive.size == 0:
            return
        bandwidth = float(np.sqrt(np.median(positive)))
        assert np.array_equal(
            rbf_kernel(X), rbf_kernel(X, bandwidth=bandwidth)
        )


class TestFeatureCache:
    @given(
        seed=st.integers(0, 10**6),
        n_batches=st.integers(1, 6),
        capacity=st.integers(1, 16),
    )
    @PROPERTY
    def test_matches_stacked_features_of(self, seed, n_batches, capacity):
        rng = np.random.default_rng(seed)
        cache = FeatureCache(TASK.space, capacity=capacity)
        all_indices = []
        for _ in range(n_batches):
            batch = rng.integers(0, len(TASK.space), size=rng.integers(1, 9))
            cache.extend([int(i) for i in batch])
            all_indices.extend(int(i) for i in batch)
        expected = np.stack([TASK.space.features_of(i) for i in all_indices])
        assert np.array_equal(cache.matrix, expected)
        assert cache.indices == all_indices

    def test_view_is_read_only_and_stable_across_growth(self):
        cache = FeatureCache(TASK.space, capacity=2)
        cache.extend([0, 1])
        view = cache.matrix
        with pytest.raises(ValueError):
            view[0, 0] = 99.0
        frozen = view.copy()
        cache.extend(list(range(2, 40)))  # forces buffer reallocation
        assert np.array_equal(cache.matrix[:2], frozen)
        assert len(cache.matrix) == 40

    def test_append_single(self):
        cache = FeatureCache(TASK.space, capacity=1)
        cache.append(5)
        cache.append(9)
        assert cache.indices == [5, 9]
        assert np.array_equal(cache.matrix[1], TASK.space.features_of(9))

    @pytest.mark.parametrize("rows", [0, 3, 64])
    def test_pickle_holds_filled_rows_and_keeps_growing(self, rows):
        cache = FeatureCache(TASK.space, capacity=64)
        cache.extend(list(range(rows)))
        restored = pickle.loads(pickle.dumps(cache))
        assert restored._buf.shape == (rows, TASK.space.feature_dim)
        assert np.array_equal(restored.matrix, cache.matrix)
        for more in ([7], [8, 9]):
            restored.extend(more)
            cache.extend(more)
            assert np.array_equal(restored.matrix, cache.matrix)
        assert restored.indices == cache.indices

    def test_pickle_is_byte_deterministic(self):
        def filled():
            cache = FeatureCache(TASK.space, capacity=64)
            cache.extend([3, 1, 4])
            return cache

        first = filled()
        first._buf[3:] = 1.0  # the tail past the rows is never read
        second = filled()
        second._buf[3:] = 2.0
        assert pickle.dumps(first) == pickle.dumps(second)


class TestVisitedFiltering:
    @given(
        seed=st.integers(0, 10**6),
        n_candidates=st.integers(1, 60),
        n_visited=st.integers(0, 60),
    )
    @PROPERTY
    def test_ndarray_filter_matches_set_filter(
        self, seed, n_candidates, n_visited
    ):
        rng = np.random.default_rng(seed)
        candidates = rng.integers(0, 100, size=n_candidates)
        visited = sorted(set(rng.integers(0, 100, size=n_visited).tolist()))
        via_array = BaoOptimizer._filter_visited(
            candidates, np.asarray(visited, dtype=np.int64)
        )
        via_set = BaoOptimizer._filter_visited(candidates, set(visited))
        assert np.array_equal(via_array, via_set)

    def test_propose_accepts_sorted_array_visited(self):
        rng = np.random.default_rng(4)
        bao = BaoOptimizer(TASK.space, seed=8)
        measured = list(range(12))
        X = np.stack([TASK.space.features_of(i) for i in measured])
        y = rng.random(len(measured))
        visited_arr = np.asarray(measured, dtype=np.int64)
        pick_arr = bao.propose(X, y, best_index=3, visited=visited_arr)
        bao_set = BaoOptimizer(TASK.space, seed=8)
        pick_set = bao_set.propose(X, y, best_index=3, visited=set(measured))
        assert pick_arr == pick_set


class TestPhaseTimingEvents:
    def test_tuner_stamps_proposal_and_measure_walltime(self):
        log = EventLog()
        tuner = BTEDBAOTuner(
            TASK, seed=2, init_size=4, batch_candidates=16, num_batches=2
        )
        tuner.tune(n_trial=6, early_stopping=None, on_event=[log])
        proposed = log.of_type(BatchProposed)
        measured = log.of_type(BatchMeasured)
        assert proposed and measured
        assert all(e.proposal_s > 0.0 for e in proposed)
        assert all(e.measure_s > 0.0 for e in measured)


class TestSharedBinEdges:
    def _data(self, n=40, d=6, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((n, d)), rng.random(n)

    def test_incremental_members_share_one_edges_object(self):
        X, y = self._data()
        ensemble = BootstrapEnsemble(gamma=2, seed=1, refit="incremental")
        assert ensemble.share_bin_edges
        ensemble.fit(X[:30], y[:30])
        edges = ensemble._common_edges()
        assert edges is not None
        assert all(m._edges is edges for m in ensemble._models)
        ensemble.fit(X, y)  # warm-started: the edges stay frozen
        assert ensemble.reused_trees_total > 0
        assert ensemble._common_edges() is edges
        assert np.all(np.isfinite(ensemble.predict_sum(X)))

    def test_full_refit_members_do_not_share_edges(self):
        X, y = self._data()
        ensemble = BootstrapEnsemble(gamma=2, seed=1, refit="full")
        assert not ensemble.share_bin_edges
        ensemble.fit(X, y)
        assert ensemble._common_edges() is None
        # without tree reuse an incremental ensemble is a full one
        assert not BootstrapEnsemble(
            gamma=2, refit="incremental", reuse_trees=False
        ).share_bin_edges
