"""Lockstep ensemble boosting: bit-identical to member-by-member fits.

``BootstrapEnsemble.fit`` draws every member's bootstrap and subsample
rows up front and grows round ``r`` of all members in one histogram
pass.  The member-by-member loop it replaced is the oracle in
``tests/ensemble_oracle.py``.  These tests pin that the two leave the
ensemble byte-identical — every tree array, base prediction, bin edge,
the generator state and the ensemble's pickle — over random data,
ensemble sizes, bin counts and both refit modes, and that the lockstep
path is the one the default factory takes.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bootstrap import BootstrapEnsemble, _DefaultModelFactory
from repro.learning import gbt
from repro.learning.gbt import GradientBoostedTrees
from repro.learning.tree import grow_binned
from tests import ensemble_oracle

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TREE_ARRAYS = ("_feature", "_threshold", "_left", "_right", "_value")


def _factory(n_estimators, max_depth, subsample, n_bins):
    """A ``_DefaultModelFactory.__call__`` with other GBT settings."""

    def make(self):
        return GradientBoostedTrees(
            n_estimators=n_estimators,
            learning_rate=0.28,
            max_depth=max_depth,
            subsample=subsample,
            n_bins=n_bins,
            seed=self._rng,
        )

    return make


def _data(seed, n, d):
    """Rows with a constant column, a duplicated one and coarse values."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = rng.normal(size=n)
    X[:, 0] = 0.5
    if d >= 3:
        X[:, 2] = X[:, 1]
    if d >= 4:
        X[:, 3] = np.round(X[:, 3] * 3)
    weight = rng.uniform(0.1, 2.0, size=n)
    return X, y, weight


def assert_same_ensemble(lock, ref):
    """Every array, edge, base, generator state and pickled byte agrees."""
    assert len(lock._models) == len(ref._models)
    for a, b in zip(lock._models, ref._models):
        assert a._base == b._base
        assert len(a._edges) == len(b._edges)
        for ea, eb in zip(a._edges, b._edges):
            assert ea.dtype == eb.dtype and ea.tobytes() == eb.tobytes()
        assert len(a._trees) == len(b._trees)
        for ta, tb in zip(a._trees, b._trees):
            for name in TREE_ARRAYS:
                xa, xb = getattr(ta, name), getattr(tb, name)
                assert xa.dtype == xb.dtype
                assert xa.shape == xb.shape
                assert xa.tobytes() == xb.tobytes()
    assert lock._rng.bit_generator.state == ref._rng.bit_generator.state
    assert lock.reused_trees_total == ref.reused_trees_total
    assert pickle.dumps(lock) == pickle.dumps(ref)


class TestLockstepMatchesOracle:
    @PROPERTY
    @given(
        gamma=st.integers(1, 4),
        n=st.integers(1, 200),
        d=st.integers(1, 30),
        n_bins=st.integers(2, 32),
        n_estimators=st.integers(1, 6),
        max_depth=st.integers(1, 6),
        subsample=st.sampled_from([0.5, 0.9, 1.0]),
        weighted=st.booleans(),
        refit=st.sampled_from(["full", "incremental"]),
        rounds=st.integers(1, 4),
        growths=st.lists(st.integers(0, 30), min_size=0, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_byte_identical(
        self, gamma, n, d, n_bins, n_estimators, max_depth, subsample,
        weighted, refit, rounds, growths, seed,
    ):
        X, y, weight = _data(seed, n + sum(growths), d)
        sizes = np.cumsum([n] + growths)
        # one warm start fits, the next refreshes the whole generation
        kwargs = dict(
            gamma=gamma, seed=seed, refit=refit, incremental_rounds=rounds,
            max_trees=n_estimators + rounds,
        )
        lock = BootstrapEnsemble(**kwargs)
        ref = BootstrapEnsemble(**kwargs)
        make = _factory(n_estimators, max_depth, subsample, n_bins)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_DefaultModelFactory, "__call__", make)
            for size in sizes:
                w = weight[:size] if weighted else None
                lock.fit(X[:size], y[:size], sample_weight=w)
                ensemble_oracle.fit(ref, X[:size], y[:size], w)
                assert_same_ensemble(lock, ref)
                edges = lock._common_edges()
                if lock.share_bin_edges:
                    # _common_edges compares identity: one shared list
                    assert edges is not None
                    assert all(m._edges is edges for m in lock._models)
                elif gamma > 1:
                    assert edges is None

    def test_default_factory_compile_sized_fit(self):
        # the size a BAO refit sees on a ResNet-18 task: ~70 rows, 20
        # features, two members of 24 rounds
        X, y, _ = _data(3, 70, 20)
        lock = BootstrapEnsemble(gamma=2, seed=11).fit(X, y)
        ref = ensemble_oracle.fit(BootstrapEnsemble(gamma=2, seed=11), X, y)
        assert_same_ensemble(lock, ref)


class TestOneGrowerPass:
    def _count_passes(self, monkeypatch):
        calls = []

        def counting(trees, *args, **kwargs):
            calls.append(len(trees))
            return grow_binned(trees, *args, **kwargs)

        monkeypatch.setattr(gbt, "grow_binned", counting)
        return calls

    def test_every_round_grows_all_members_at_once(self, monkeypatch):
        calls = self._count_passes(monkeypatch)
        X, y, _ = _data(0, 40, 6)
        BootstrapEnsemble(gamma=3, seed=1).fit(X, y)
        assert calls == [3] * 24

    def test_warm_start_grows_all_members_at_once(self, monkeypatch):
        X, y, _ = _data(0, 40, 6)
        ens = BootstrapEnsemble(
            gamma=2, seed=1, refit="incremental", incremental_rounds=5
        )
        ens.fit(X[:30], y[:30])
        calls = self._count_passes(monkeypatch)
        ens.fit(X, y)
        assert calls == [2] * 5

    def test_custom_factory_fits_member_by_member(self, monkeypatch):
        calls = self._count_passes(monkeypatch)
        X, y, _ = _data(0, 40, 6)
        rng = np.random.default_rng(4)
        BootstrapEnsemble(
            gamma=2,
            model_factory=lambda: GradientBoostedTrees(
                n_estimators=3, seed=rng
            ),
            seed=1,
        ).fit(X, y)
        assert calls == [1] * 6

    def test_only_like_histogram_models_boost_together(self):
        X, y, _ = _data(0, 30, 4)
        slow = GradientBoostedTrees(n_estimators=2, seed=0)
        fast = GradientBoostedTrees(n_estimators=2, learning_rate=0.5, seed=0)
        states = [slow.start_fit(X, y), fast.start_fit(X, y)]
        with pytest.raises(ValueError, match="one learning rate"):
            gbt.boost_rounds(states, 2)
