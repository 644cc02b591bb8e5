"""Member-by-member ensemble fits, kept as the oracle for lockstep boosting.

:meth:`repro.core.bootstrap.BootstrapEnsemble.fit` draws every
member's bootstrap rows and per-round subsample rows up front and grows
round ``r`` of all members in one histogram pass.  :func:`fit` is the
loop it replaced: each member is drawn, binned and boosted to the end
before the next member's rows are drawn, and every round fits one tree
with the single-tree level loop and then predicts the member's rows
with it.  Both must leave the ensemble byte-identical — trees, base
predictions, bin edges and generator state — so the equivalence tests
compare ``pickle.dumps`` of the two.

Tests substitute it for the library's fit by monkeypatching
``BootstrapEnsemble.fit`` with :func:`fit`.
"""

from typing import Optional

import numpy as np

from repro.learning.tree import apply_bins, check_sample_weight
from tests import tree_oracle


def fit(ensemble, X, y, sample_weight: Optional[np.ndarray] = None):
    """Drop-in for ``BootstrapEnsemble.fit``; returns ``ensemble``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (n, d) and y (n,)")
    n = len(y)
    if n == 0:
        raise ValueError("cannot fit on an empty measured set")
    if sample_weight is not None:
        sample_weight = check_sample_weight(sample_weight, n)
    if ensemble._can_fit_incrementally():
        for model in ensemble._models:
            rows = ensemble._rng.integers(0, n, size=n)
            ensemble.reused_trees_total += model.n_trees
            weight = None if sample_weight is None else sample_weight[rows]
            fit_more(model, X[rows], y[rows], ensemble.incremental_rounds,
                     weight)
        return ensemble
    ensemble._models = []
    shared_edges = None
    for _ in range(ensemble.gamma):
        rows = ensemble._rng.integers(0, n, size=n)
        model = ensemble._factory()
        if ensemble.share_bin_edges:
            if shared_edges is None:
                shared_edges = tree_oracle.bin_features(
                    X, n_bins=model.n_bins
                )[1]
            model.bin_edges = shared_edges
        weight = None if sample_weight is None else sample_weight[rows]
        fit_model(model, X[rows], y[rows], weight)
        ensemble._models.append(model)
    return ensemble


def fit_model(model, X, y, sample_weight=None):
    """A GBT's fit, one tree at a time."""
    weight = check_sample_weight(sample_weight, len(y))
    if model.bin_edges is not None:
        model._edges = model.bin_edges
        data = apply_bins(X, model._edges)
    else:
        data, model._edges = tree_oracle.bin_features(X, n_bins=model.n_bins)
    model._base = float(np.dot(weight, y) / weight.sum())
    model._trees = []
    pred = np.full(len(y), model._base)
    for _ in range(model.n_estimators):
        _round(model, data, y, weight, pred)
    model._fitted = True
    model._stack = None
    return model


def fit_more(model, X, y, n_rounds, sample_weight=None):
    """A GBT's warm start, one tree at a time."""
    weight = check_sample_weight(sample_weight, len(y))
    data = apply_bins(X, model._edges)
    pred = model._accumulate(data, len(y))
    for _ in range(n_rounds):
        _round(model, data, y, weight, pred)
    model._stack = None
    return model


def _round(model, data, y, weight, pred):
    """One boosting round: draw, fit one tree, predict every row."""
    n = len(y)
    residual = y - pred
    if model.subsample < 1.0 and n > 4:
        n_sub = max(2, int(round(model.subsample * n)))
        rows = model._rng.choice(n, size=n_sub, replace=False)
    else:
        rows = np.arange(n)
    tree = model._new_tree()
    tree_oracle.fit_binned(tree, data[rows], residual[rows], weight[rows])
    model._trees.append(tree)
    pred += model.learning_rate * tree.predict(data)
