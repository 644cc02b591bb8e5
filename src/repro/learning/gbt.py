"""Gradient-boosted regression trees — the XGBoost stand-in.

Squared-error boosting with shrinkage, row subsampling, and optional
early stopping on a validation split.  This is the evaluation-function
family used by AutoTVM's cost model [15] and by all three experimental
arms of the paper (the framework is agnostic to the evaluation
function; see Sec. IV).

Two tree back-ends are available:

* ``method="hist"`` (default) — quantile-binned histogram trees
  (:class:`~repro.learning.tree.BinnedRegressionTree`), fast enough for
  BAO's per-iteration ensemble refits;
* ``method="exact"`` — exact greedy CART
  (:class:`~repro.learning.tree.RegressionTree`), the reference
  implementation (supports ``max_features`` column subsampling).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.learning.tree import (
    BinnedRegressionTree,
    RegressionTree,
    apply_bins,
    bin_features,
    predict_stacked,
    stack_trees,
)
from repro.obs.hooks import notify_refit_reuse, refit_reuse_hooks_active
from repro.utils.rng import SeedLike, as_generator

_Tree = Union[RegressionTree, BinnedRegressionTree]


class GradientBoostedTrees:
    """Additive tree ensemble fit by gradient boosting on squared loss."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.2,
        max_depth: int = 5,
        min_samples_leaf: int = 2,
        subsample: float = 0.9,
        max_features: Optional[float] = None,
        early_stopping_rounds: Optional[int] = None,
        validation_fraction: float = 0.15,
        method: str = "hist",
        n_bins: int = 16,
        seed: SeedLike = None,
        bin_edges: Optional[list] = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if method not in ("hist", "exact"):
            raise ValueError("method must be 'hist' or 'exact'")
        if method == "hist" and max_features is not None:
            raise ValueError("max_features requires method='exact'")
        if bin_edges is not None and method != "hist":
            raise ValueError("bin_edges requires method='hist'")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_features = max_features
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        self.method = method
        self.n_bins = n_bins
        #: optional precomputed quantile bin edges (from
        #: :func:`~repro.learning.tree.bin_features`); lets a bootstrap
        #: ensemble bin the shared design matrix once instead of
        #: re-deriving quantiles per member fit
        self.bin_edges = bin_edges
        self._rng = as_generator(seed)
        self._trees: List[_Tree] = []
        self._edges: Optional[list[np.ndarray]] = None
        self._base: float = 0.0
        self._fitted = False
        self._stack = None  # lazy StackedTrees cache for vectorized predict

    def __getstate__(self):
        # the stacked-predict cache is derivable; keep checkpoints lean
        state = self.__dict__.copy()
        state["_stack"] = None
        return state

    # ------------------------------------------------------------------

    def _new_tree(self) -> _Tree:
        if self.method == "hist":
            return BinnedRegressionTree(
                n_bins=self.n_bins,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )
        return RegressionTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=self._rng,
        )

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        """Fit the ensemble; returns ``self``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) and y (n,)")
        n = X.shape[0]
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")
        if sample_weight is None:
            weight = np.ones(n)
        else:
            weight = np.asarray(sample_weight, dtype=np.float64)
            if weight.shape != y.shape:
                raise ValueError("sample_weight must match y")

        if self.method == "hist":
            if self.bin_edges is not None:
                self._edges = self.bin_edges
                codes = apply_bins(X, self._edges)
            else:
                codes, self._edges = bin_features(X, n_bins=self.n_bins)
            data: np.ndarray = codes
        else:
            self._edges = None
            data = X

        use_validation = self.early_stopping_rounds is not None and n >= 20
        if use_validation:
            perm = self._rng.permutation(n)
            n_val = max(1, int(round(self.validation_fraction * n)))
            val_idx = perm[:n_val]
            train_idx = perm[n_val:]
        else:
            train_idx = np.arange(n)
            val_idx = np.empty(0, dtype=np.int64)

        Dt, yt, wt = data[train_idx], y[train_idx], weight[train_idx]
        Dv, yv = data[val_idx], y[val_idx]

        self._base = float(np.dot(wt, yt) / wt.sum())
        self._trees = []
        pred_t = np.full(len(yt), self._base)
        pred_v = np.full(len(yv), self._base)

        best_val = np.inf
        best_len = 0
        rounds_since_best = 0

        for _ in range(self.n_estimators):
            residual = yt - pred_t
            if self.subsample < 1.0 and len(yt) > 4:
                n_sub = max(2, int(round(self.subsample * len(yt))))
                rows = self._rng.choice(len(yt), size=n_sub, replace=False)
            else:
                rows = np.arange(len(yt))
            tree = self._new_tree()
            tree.fit(Dt[rows], residual[rows], sample_weight=wt[rows])
            self._trees.append(tree)
            pred_t += self.learning_rate * tree.predict(Dt)

            if use_validation:
                pred_v += self.learning_rate * tree.predict(Dv)
                val_err = float(np.mean((yv - pred_v) ** 2))
                if val_err < best_val - 1e-12:
                    best_val = val_err
                    best_len = len(self._trees)
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        self._trees = self._trees[:best_len]
                        break
        self._fitted = True
        self._stack = None
        return self

    def fit_more(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_rounds: int,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        """Warm start: grow ``n_rounds`` extra boosting rounds on (X, y).

        Existing trees, the base prediction, and (for ``method="hist"``)
        the bin edges frozen at the original :meth:`fit` are all kept;
        only the new rounds are fit, against the residual of the current
        ensemble on the given data.  Validation early stopping does not
        apply to the incremental rounds.  Returns ``self``.
        """
        if not self._fitted:
            raise RuntimeError("fit_more requires a fitted model")
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) and y (n,)")
        n = X.shape[0]
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")
        if sample_weight is None:
            weight = np.ones(n)
        else:
            weight = np.asarray(sample_weight, dtype=np.float64)
            if weight.shape != y.shape:
                raise ValueError("sample_weight must match y")

        if self.method == "hist":
            assert self._edges is not None
            data: np.ndarray = apply_bins(X, self._edges)
        else:
            data = X

        reused = len(self._trees)
        pred_t = self._accumulate(data, n)
        for _ in range(n_rounds):
            residual = y - pred_t
            if self.subsample < 1.0 and n > 4:
                n_sub = max(2, int(round(self.subsample * n)))
                rows = self._rng.choice(n, size=n_sub, replace=False)
            else:
                rows = np.arange(n)
            tree = self._new_tree()
            tree.fit(data[rows], residual[rows], sample_weight=weight[rows])
            self._trees.append(tree)
            pred_t += self.learning_rate * tree.predict(data)
        self._stack = None
        if refit_reuse_hooks_active():
            notify_refit_reuse(reused)
        return self

    def _accumulate(self, data: np.ndarray, n: int) -> np.ndarray:
        """Sum tree predictions over native ``data`` (codes or floats).

        Uses the stacked vectorized forest predict when there is more
        than one tree, accumulating per-tree outputs serially in fit
        order so the result is bit-identical to the per-tree loop.
        """
        out = np.full(n, self._base)
        if len(self._trees) > 1:
            stack = self.__dict__.get("_stack")
            if stack is None or stack.n_trees != len(self._trees):
                stack = stack_trees(self._trees)
                self._stack = stack
            preds = predict_stacked(stack, data)
            for t in range(preds.shape[0]):
                out += self.learning_rate * preds[t]
        else:
            for tree in self._trees:
                out += self.learning_rate * tree.predict(data)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for rows of ``X``."""
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if self._edges is not None:
            data: np.ndarray = apply_bins(X, self._edges)
        else:
            data = X
        return self._accumulate(data, X.shape[0])

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict from pre-binned integer codes (``method="hist"`` only).

        Lets an ensemble whose members share one set of bin edges apply
        the binning once for the whole candidate scope instead of once
        per member.
        """
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        if self._edges is None:
            raise RuntimeError("predict_binned requires method='hist'")
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        return self._accumulate(codes, codes.shape[0])

    @property
    def n_trees(self) -> int:
        return len(self._trees)
