"""Gradient-boosted regression trees — the XGBoost stand-in.

Squared-error boosting with shrinkage and row subsampling over
quantile-binned histogram trees
(:class:`~repro.learning.tree.BinnedRegressionTree`), fast enough for
BAO's per-iteration ensemble refits.  This is the evaluation-function
family used by AutoTVM's cost model [15] and by all three experimental
arms of the paper (the framework is agnostic to the evaluation
function; see Sec. IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.learning.tree import (
    BinnedRegressionTree,
    apply_bins,
    bin_features,
    check_sample_weight,
    grow_binned,
    predict_stacked,
    stack_trees,
)
from repro.obs.hooks import hooks_active, notify
from repro.utils.rng import SeedLike, as_generator


class GradientBoostedTrees:
    """Additive tree ensemble fit by gradient boosting on squared loss."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.2,
        max_depth: int = 5,
        min_samples_leaf: int = 2,
        subsample: float = 0.9,
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
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.n_bins = n_bins
        #: optional precomputed quantile bin edges (from
        #: :func:`~repro.learning.tree.bin_features`); lets a bootstrap
        #: ensemble bin the shared design matrix once instead of
        #: re-deriving quantiles per member fit
        self.bin_edges = bin_edges
        self._rng = as_generator(seed)
        self._trees: List[BinnedRegressionTree] = []
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

    def _new_tree(self) -> BinnedRegressionTree:
        return BinnedRegressionTree(
            n_bins=self.n_bins,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
        )

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        """Fit the ensemble; returns ``self``."""
        boost_rounds([self.start_fit(X, y, sample_weight)], self.n_estimators)
        return self

    def start_fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "BoostState":
        """Validate and bin ``(X, y)``, reset the model, and return its state.

        :func:`boost_rounds` then grows the ``n_estimators`` rounds.
        Every round's subsample is drawn now, in round order, so several
        models' rounds can grow together.
        """
        X, y, weight = _check_data(X, y, sample_weight)
        if self.bin_edges is not None:
            self._edges = self.bin_edges
            data = apply_bins(X, self._edges)
        else:
            data, self._edges = bin_features(X, n_bins=self.n_bins)
        self._base = float(np.dot(weight, y) / weight.sum())
        self._trees = []
        self._fitted = True
        self._stack = None
        pred = np.full(len(y), self._base)
        rows = self._row_draws(len(y), self.n_estimators)
        return BoostState(self, data, y, weight, pred, rows)

    def fit_more(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_rounds: int,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        """Warm start: grow ``n_rounds`` extra boosting rounds on (X, y).

        Existing trees, the base prediction, and the bin edges frozen at
        the original :meth:`fit` are all kept; only the new rounds are
        fit, against the residual of the current ensemble on the given
        data.  Returns ``self``.
        """
        state = self.start_fit_more(X, y, n_rounds, sample_weight)
        boost_rounds([state], n_rounds)
        return self

    def start_fit_more(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_rounds: int,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "BoostState":
        """The :meth:`fit_more` counterpart of :meth:`start_fit`."""
        if not self._fitted:
            raise RuntimeError("fit_more requires a fitted model")
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        X, y, weight = _check_data(X, y, sample_weight)
        data = apply_bins(X, self._edges)
        reused = len(self._trees)
        pred = self._accumulate(data, len(y))
        rows = self._row_draws(len(y), n_rounds)
        return BoostState(self, data, y, weight, pred, rows, reused=reused)

    def _row_draws(self, n: int, n_rounds: int) -> List[np.ndarray]:
        """Each round's subsample of ``n`` rows (all rows for tiny data)."""
        if self.subsample < 1.0 and n > 4:
            n_sub = max(2, int(round(self.subsample * n)))
            return [
                self._rng.choice(n, size=n_sub, replace=False)
                for _ in range(n_rounds)
            ]
        return [np.arange(n)] * n_rounds

    def _accumulate(self, data: np.ndarray, n: int) -> np.ndarray:
        """Sum tree predictions over bin codes ``data``.

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
        return self._accumulate(apply_bins(X, self._edges), X.shape[0])

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict from pre-binned integer codes.

        Lets an ensemble whose members share one set of bin edges apply
        the binning once for the whole candidate scope instead of once
        per member.
        """
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        return self._accumulate(codes, codes.shape[0])

    @property
    def n_trees(self) -> int:
        return len(self._trees)


def _check_data(
    X: np.ndarray, y: np.ndarray, sample_weight: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, y, weight)`` as float64 arrays, or ``ValueError``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (n, d) and y (n,)")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y, check_sample_weight(sample_weight, len(y))


@dataclass
class BoostState:
    """One model's rows and running prediction, for :func:`boost_rounds`.

    Made by :meth:`GradientBoostedTrees.start_fit` or
    :meth:`~GradientBoostedTrees.start_fit_more`.
    """

    model: GradientBoostedTrees
    #: bin codes of the rows
    data: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    #: the model's current prediction of every row
    pred: np.ndarray
    #: each round's subsample rows
    rows: List[np.ndarray]
    #: trees kept from before a warm start (``None``: a fresh fit)
    reused: Optional[int] = None


def boost_rounds(states: Sequence[BoostState], n_rounds: int) -> None:
    """The one boosting loop: grow ``n_rounds`` rounds on every model.

    Round ``r`` of every model fits a tree to its residual on that
    round's subsample and adds the shrunken tree prediction of every
    row.  Round ``r`` of all models grows together in one
    :func:`~repro.learning.tree.grow_binned` pass that also routes the
    rows outside the subsample, so no per-round ``predict`` is needed.
    The models must share their tree settings and learning rate.
    """
    rate = states[0].model.learning_rate
    if any(s.model.learning_rate != rate for s in states):
        raise ValueError(
            "models boosted together must share one learning rate"
        )
    data = np.concatenate([s.data for s in states])
    y = np.concatenate([s.y for s in states])
    weight = np.concatenate([s.weight for s in states])
    pred = np.concatenate([s.pred for s in states])
    bounds = np.cumsum([0] + [len(s.y) for s in states])
    for r in range(n_rounds):
        rows = np.concatenate(
            [lo + s.rows[r] for lo, s in zip(bounds, states)]
        )
        trees = [s.model._new_tree() for s in states]
        pred += rate * grow_binned(trees, data, y - pred, weight, bounds, rows)
        for s, tree in zip(states, trees):
            s.model._trees.append(tree)
    for s in states:
        s.model._stack = None
        if s.reused is not None and hooks_active("refit_reuse"):
            notify("refit_reuse", s.reused)
