"""Bootstrap-guided sampling — Algorithm 3 of the paper.

From the already-measured set ``(X, Y)``, draw ``Gamma`` bootstrap
resamples (with replacement, same cardinality), fit one evaluation
function per resample, and score candidates by the *summed* ensemble.
The next configuration is the candidate in the current searching space
``C`` that maximizes the summed prediction.

The ensemble (bagging) reduces evaluation-function variance exactly as
Sec. II-C motivates: each resample contains ~63.2% unique points, so
the functions disagree where data is thin and their sum is a smoothed,
more robust acquisition score.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.learning.gbt import GradientBoostedTrees, boost_rounds
from repro.learning.tree import apply_bins, bin_features, check_sample_weight
from repro.obs.hooks import hooks_active, notify
from repro.utils.rng import SeedLike, as_generator

#: factory for one evaluation function: () -> model with fit/predict
ModelFactory = Callable[[], GradientBoostedTrees]


class _DefaultModelFactory:
    """Default evaluation-function factory: small GBTs sharing one RNG.

    A class (not a closure) so ensembles — and the tuners holding them —
    stay picklable for checkpointing; pickle preserves the shared
    generator object between the factory and its ensemble.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def __call__(self) -> GradientBoostedTrees:
        return GradientBoostedTrees(
            n_estimators=24,
            learning_rate=0.28,
            max_depth=4,
            subsample=0.9,
            seed=self._rng,
        )


def _default_model_factory(rng: np.random.Generator) -> ModelFactory:
    return _DefaultModelFactory(rng)


class BootstrapEnsemble:
    """``Gamma`` evaluation functions fit on bootstrap resamples.

    The framework is "independent of the specific forms of evaluation
    functions" (Sec. IV); pass any ``model_factory`` returning an object
    with ``fit(X, y)`` and ``predict(X)`` to swap the learner.

    ``refit`` selects how :meth:`fit` treats a fitted ensemble:

    * ``"full"`` (the default, pinned by the golden traces) — every fit
      draws Gamma fresh resamples and fits each member from scratch;
      each histogram-tree member derives its bin edges from its own
      resample.
    * ``"incremental"`` — warm-started refits: after the first full
      fit, each subsequent :meth:`fit` draws a fresh bootstrap resample
      per member and grows only ``incremental_rounds`` new boosting
      rounds on it (:meth:`GradientBoostedTrees.fit_more`), keeping
      previously-grown trees and the bin edges frozen at the first fit.
      Once a member would exceed ``max_trees``, the whole ensemble is
      refit from scratch (a generational refresh that re-derives bin
      edges and bounds both predict cost and staleness).  The members
      share one set of bin edges (:attr:`share_bin_edges`), so a
      prediction pass bins the candidate matrix once for all of them.
      ``reuse_trees=False`` disables the warm path and the sharing,
      making the mode bit-identical to ``refit="full"``.
    """

    def __init__(
        self,
        gamma: int = 2,
        model_factory: Optional[ModelFactory] = None,
        seed: SeedLike = None,
        refit: str = "full",
        incremental_rounds: int = 8,
        max_trees: int = 96,
        reuse_trees: bool = True,
    ):
        if gamma < 1:
            raise ValueError("gamma must be >= 1")
        if refit not in ("full", "incremental"):
            raise ValueError("refit must be 'full' or 'incremental'")
        if incremental_rounds < 1:
            raise ValueError("incremental_rounds must be >= 1")
        if max_trees < 1:
            raise ValueError("max_trees must be >= 1")
        self.gamma = gamma
        self.refit = refit
        self.incremental_rounds = incremental_rounds
        self.max_trees = max_trees
        self.reuse_trees = reuse_trees
        self._rng = as_generator(seed)
        self._factory = (
            model_factory
            if model_factory is not None
            else _default_model_factory(self._rng)
        )
        self._models: List[GradientBoostedTrees] = []
        #: trees carried over (not refit) across all incremental refits
        self.reused_trees_total = 0

    @property
    def is_fitted(self) -> bool:
        return bool(self._models)

    @property
    def share_bin_edges(self) -> bool:
        """Whether a full fit hands every member one set of bin edges.

        True exactly for warm-started refits (``refit="incremental"``
        with ``reuse_trees``): the edges are quantiles of the *full*
        measured matrix, frozen until the next full fit, which keeps
        cross-batch tree reuse coherent and lets :meth:`predict_stats`
        bin the candidate matrix once for all members.
        """
        return self.refit == "incremental" and self.reuse_trees

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "BootstrapEnsemble":
        """Resample ``(X, y)`` Gamma times and fit one model each.

        ``sample_weight`` (optional, same length as ``y``) is carried
        through each bootstrap resample to the member fits — the
        transfer-learning path discounts history rows this way.  With
        ``sample_weight=None`` the fit is bit-identical to the
        historical unweighted behaviour.

        With the default factory, every member's resample and subsample
        rows are drawn up front, in the order member-by-member fits
        would draw them, and round ``r`` of all members grows in one
        histogram pass (:func:`~repro.learning.gbt.boost_rounds`).  A
        custom factory's members are fit one after another.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) and y (n,)")
        n = len(y)
        if n == 0:
            raise ValueError("cannot fit on an empty measured set")
        if sample_weight is not None:
            sample_weight = check_sample_weight(sample_weight, n)
        # observability hook: only pay for the clock when someone listens
        timed = hooks_active("refit")
        start = time.perf_counter() if timed else 0.0
        if self._can_fit_incrementally():
            self._fit_incremental(X, y, sample_weight, n)
            if timed:
                notify(
                    "refit", n, time.perf_counter() - start,
                    "ensemble_incremental",
                )
            return self
        self._models = []
        shared_edges: Optional[list] = None
        states = []
        for _ in range(self.gamma):
            rows = self._rng.integers(0, n, size=n)
            model = self._factory()
            if self.share_bin_edges and isinstance(
                model, GradientBoostedTrees
            ):
                if shared_edges is None:
                    shared_edges = bin_features(X, n_bins=model.n_bins)[1]
                model.bin_edges = shared_edges
            if self._lockstep:
                weight = None if sample_weight is None else sample_weight[rows]
                states.append(model.start_fit(X[rows], y[rows], weight))
            elif sample_weight is None:
                model.fit(X[rows], y[rows])
            else:
                model.fit(X[rows], y[rows], sample_weight=sample_weight[rows])
            self._models.append(model)
        if states:
            boost_rounds(states, self._models[0].n_estimators)
        if timed:
            notify("refit", n, time.perf_counter() - start, "ensemble")
        return self

    @property
    def _lockstep(self) -> bool:
        """Whether members grow their rounds together in :meth:`fit`.

        True for the default factory: its members' row draws do not
        depend on the data, so they can all be drawn up front.  A
        custom factory may return any learner, so its members are fit
        one after another.
        """
        return type(self._factory) is _DefaultModelFactory

    def _can_fit_incrementally(self) -> bool:
        """True when this :meth:`fit` call may take the warm-start path."""
        if self.refit != "incremental" or not self.reuse_trees:
            return False
        if not self._models:
            return False  # first fit is always full
        for model in self._models:
            if not hasattr(model, "fit_more"):
                return False  # custom factory without warm-start support
            if model.n_trees + self.incremental_rounds > self.max_trees:
                return False  # generational refresh: refit from scratch
        return True

    def _fit_incremental(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray],
        n: int,
    ) -> None:
        """Warm-started refit: new bootstrap rounds atop the kept trees."""
        states = []
        for model in self._models:
            rows = self._rng.integers(0, n, size=n)
            self.reused_trees_total += model.n_trees
            weight = None if sample_weight is None else sample_weight[rows]
            if self._lockstep:
                states.append(model.start_fit_more(
                    X[rows], y[rows], self.incremental_rounds, weight
                ))
            elif weight is None:
                model.fit_more(X[rows], y[rows], self.incremental_rounds)
            else:
                model.fit_more(
                    X[rows], y[rows], self.incremental_rounds,
                    sample_weight=weight,
                )
        if states:
            boost_rounds(states, self.incremental_rounds)

    def _common_edges(self) -> Optional[list]:
        """The bin-edge list shared by *all* members, else ``None``.

        Identity-compared: only edges shared by a full fit under
        :attr:`share_bin_edges` (one list object handed to every member)
        qualify, which is what makes binning the candidate matrix once
        per pass safe.
        """
        edges: Optional[list] = None
        for model in self._models:
            e = getattr(model, "_edges", None)
            if e is None or not hasattr(model, "predict_binned"):
                return None
            if edges is None:
                edges = e
            elif e is not edges:
                return None
        return edges

    def _member_predictions(self, X: np.ndarray) -> List[np.ndarray]:
        """Each member's prediction on ``X``, binning once when shared."""
        edges = self._common_edges()
        if edges is not None:
            codes = apply_bins(X, edges)
            return [model.predict_binned(codes) for model in self._models]
        return [model.predict(X) for model in self._models]

    def predict_stats(
        self, X: np.ndarray, return_std: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Summed prediction and (optionally) across-member std, one pass.

        Computes every member's prediction exactly once and reuses it
        for both statistics — the batched-acquisition entry point that
        replaces back-to-back :meth:`predict_sum` + :meth:`predict_std`
        calls.  Bit-identical to those methods (same accumulation
        order, same stacking).
        """
        if not self.is_fitted:
            raise RuntimeError("ensemble is not fitted")
        X = np.asarray(X, dtype=np.float64)
        preds = self._member_predictions(X)
        total = np.zeros(X.shape[0])
        for pred in preds:
            total += pred
        std = np.stack(preds).std(axis=0) if return_std else None
        return total, std

    def predict_sum(self, X: np.ndarray) -> np.ndarray:
        """Summed ensemble prediction (the acquisition score of Alg. 3)."""
        return self.predict_stats(X)[0]

    def predict_mean(self, X: np.ndarray) -> np.ndarray:
        """Mean ensemble prediction (sum / Gamma)."""
        return self.predict_sum(X) / self.gamma

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Across-ensemble std-dev — an uncertainty proxy (needs Gamma >= 2)."""
        std = self.predict_stats(X, return_std=True)[1]
        assert std is not None
        return std


def bootstrap_sample(
    measured_features: np.ndarray,
    measured_scores: np.ndarray,
    candidate_features: np.ndarray,
    candidate_indices: Sequence[int],
    gamma: int = 2,
    seed: SeedLike = None,
    model_factory: Optional[ModelFactory] = None,
) -> int:
    """One-shot ``BS(X, Y, C, Gamma)``: return the chosen config index.

    ``candidate_indices[i]`` labels row ``i`` of ``candidate_features``;
    the returned value is the label of the argmax candidate.
    """
    if len(candidate_indices) == 0:
        raise ValueError("candidate set C is empty")
    if len(candidate_indices) != len(candidate_features):
        raise ValueError("candidate labels and features disagree in length")
    ensemble = BootstrapEnsemble(
        gamma=gamma, model_factory=model_factory, seed=seed
    )
    ensemble.fit(measured_features, measured_scores)
    scores = ensemble.predict_sum(candidate_features)
    return int(candidate_indices[int(np.argmax(scores))])
