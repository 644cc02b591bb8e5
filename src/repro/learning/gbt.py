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

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.learning.tree import (
    BinnedRegressionTree,
    RegressionTree,
    apply_bins,
    bin_features,
    check_sample_weight,
    grow_binned,
    predict_stacked,
    stack_trees,
)
from repro.obs.hooks import hooks_active, notify
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
        Where no draw depends on the data (histogram trees, no early
        stopping), every round's subsample is drawn now, in round
        order, so several models' rounds can grow together.
        """
        X, y, weight = _check_data(X, y, sample_weight)
        n = len(y)
        if self.method == "hist":
            if self.bin_edges is not None:
                self._edges = self.bin_edges
                data: np.ndarray = apply_bins(X, self._edges)
            else:
                data, self._edges = bin_features(X, n_bins=self.n_bins)
        else:
            self._edges = None
            data = X

        val_idx = None
        if self.early_stopping_rounds is not None and n >= 20:
            perm = self._rng.permutation(n)
            n_val = max(1, int(round(self.validation_fraction * n)))
            val_idx = perm[:n_val]
            train_idx = perm[n_val:]
            Dv, yv = data[val_idx], y[val_idx]
            data, y, weight = data[train_idx], y[train_idx], weight[train_idx]

        self._base = float(np.dot(weight, y) / weight.sum())
        self._trees = []
        self._fitted = True
        self._stack = None
        pred = np.full(len(y), self._base)
        stop = None if val_idx is None else _EarlyStopping(self, Dv, yv)
        rows = self._row_draws(len(y), self.n_estimators, ahead=stop is None)
        return BoostState(self, data, y, weight, pred, rows, stop=stop)

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
        if self.method == "hist":
            assert self._edges is not None
            data: np.ndarray = apply_bins(X, self._edges)
        else:
            data = X
        reused = len(self._trees)
        pred = self._accumulate(data, len(y))
        rows = self._row_draws(len(y), n_rounds)
        return BoostState(self, data, y, weight, pred, rows, reused=reused)

    def _row_draws(
        self, n: int, n_rounds: int, ahead: bool = True
    ) -> Iterator[np.ndarray]:
        """Each round's subsample of ``n`` rows (all rows for tiny data).

        Drawn now when ``ahead`` and the trees are histogram trees
        (exact trees draw features between rounds), else as the round
        loop asks for them.
        """

        def draw() -> np.ndarray:
            if self.subsample < 1.0 and n > 4:
                n_sub = max(2, int(round(self.subsample * n)))
                return self._rng.choice(n, size=n_sub, replace=False)
            return np.arange(n)

        draws = (draw() for _ in range(n_rounds))
        return iter(list(draws)) if ahead and self.method == "hist" else draws

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


class _EarlyStopping:
    """Validation early stopping for one model's rounds."""

    def __init__(self, model: GradientBoostedTrees, data, y):
        self.model = model
        self.data = data
        self.y = y
        self.pred = np.full(len(y), model._base)
        self.best = np.inf
        self.best_len = 0
        self.since_best = 0

    def __call__(self, tree: _Tree) -> bool:
        """Score the newest round; True (after truncating) to stop."""
        model = self.model
        self.pred += model.learning_rate * tree.predict(self.data)
        err = float(np.mean((self.y - self.pred) ** 2))
        if err < self.best - 1e-12:
            self.best = err
            self.best_len = len(model._trees)
            self.since_best = 0
            return False
        self.since_best += 1
        if self.since_best < model.early_stopping_rounds:
            return False
        model._trees = model._trees[: self.best_len]
        return True


@dataclass
class BoostState:
    """One model's rows and running prediction, for :func:`boost_rounds`.

    Made by :meth:`GradientBoostedTrees.start_fit` or
    :meth:`~GradientBoostedTrees.start_fit_more`.
    """

    model: GradientBoostedTrees
    #: native rows: bin codes (``method="hist"``) or floats
    data: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    #: the model's current prediction of every row
    pred: np.ndarray
    #: each round's subsample rows
    rows: Iterator[np.ndarray]
    stop: Optional[_EarlyStopping] = None
    #: trees kept from before a warm start (``None``: a fresh fit)
    reused: Optional[int] = None


def boost_rounds(states: Sequence[BoostState], n_rounds: int) -> None:
    """The one boosting loop: grow ``n_rounds`` rounds on every model.

    Round ``r`` of every model fits a tree to its residual on that
    round's subsample and adds the shrunken tree prediction of every
    row.  Histogram models grow round ``r`` together in one
    :func:`~repro.learning.tree.grow_binned` pass that also routes the
    rows outside the subsample, so no per-round ``predict`` is needed.
    Several models must be histogram models with equal settings and
    no early stopping, whose rows were drawn ahead (see
    :meth:`GradientBoostedTrees.start_fit`); a lone model may draw as
    it goes, which exact trees and early stopping need.
    """
    first = states[0].model
    if len(states) > 1 and any(
        s.model.method != "hist"
        or s.stop is not None
        or s.model.learning_rate != first.learning_rate
        for s in states
    ):
        raise ValueError(
            "models boosted together must be histogram models with one "
            "learning rate and no early stopping"
        )
    data = np.concatenate([s.data for s in states])
    y = np.concatenate([s.y for s in states])
    weight = np.concatenate([s.weight for s in states])
    pred = np.concatenate([s.pred for s in states])
    bounds = np.cumsum([0] + [len(s.y) for s in states])
    stop = states[0].stop
    for _ in range(n_rounds):
        residual = y - pred
        rows = [lo + next(s.rows) for lo, s in zip(bounds, states)]
        trees = [s.model._new_tree() for s in states]
        if first.method == "hist":
            out = grow_binned(
                trees, data, residual, weight, bounds, np.concatenate(rows)
            )
        else:
            tree, sub = trees[0], rows[0]
            tree.fit(data[sub], residual[sub], sample_weight=weight[sub])
            out = tree.predict(data)
        pred += first.learning_rate * out
        for s, tree in zip(states, trees):
            s.model._trees.append(tree)
        if stop is not None and stop(trees[0]):
            break
    for s in states:
        s.model._stack = None
        if s.reused is not None and hooks_active("refit_reuse"):
            notify("refit_reuse", s.reused)
