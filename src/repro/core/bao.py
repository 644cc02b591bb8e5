"""Bootstrap-guided adaptive optimization — Algorithm 4 of the paper.

Each iteration restricts the search to ``C_t``, the neighborhood of the
incumbent configuration with radius ``R`` (Euclidean distance between
config feature vectors by default, or between knob indices with
``metric="index"``; see :mod:`repro.space.neighborhood`), selects the
next configuration with Bootstrap-guided sampling (Alg. 3), measures
it, and adapts: when the relative
improvement between the two previous steps,

    r_t = (y*_{t-1} - y*_{t-2}) / y*_{t-1},          (Eq. 1)

drops below the threshold ``eta``, the radius for this step widens to
``tau * R`` — compensating for an unsatisfying local search by looking
farther out.

Two deliberate interpretation choices (documented because the paper's
pseudo-code is ambiguous):

* the neighborhood centers on the *incumbent best* configuration
  (matching the motivation "if a configuration has good deployment
  performance, it is very likely that we can find better configurations
  in its neighborhood"); set ``center="last"`` to center on the most
  recently selected configuration instead;
* Eq. 1 is evaluated as the plain ratio — the ceiling operator printed
  in the paper would collapse it to {0, 1} and make ``eta = 0.05``
  meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Union

import numpy as np

from repro.core.bootstrap import BootstrapEnsemble, ModelFactory
from repro.learning.transfer import TransferHistory
from repro.space.neighborhood import sample_neighborhood
from repro.space.space import ConfigSpace
from repro.utils.rng import RngPool

#: accepted "already measured" collections: a sorted int64 array (the
#: tuner-maintained fast path) or any set-like of config indices
VisitedSet = Union[AbstractSet[int], np.ndarray]


@dataclass(frozen=True)
class BaoSettings:
    """Hyper-parameters of Alg. 4 (defaults are the paper's, Sec. V-A)."""

    #: improvement threshold eta
    eta: float = 0.05
    #: number of bootstrap resamples Gamma
    gamma: int = 2
    #: radius widening factor tau (> 1)
    tau: float = 1.5
    #: base neighborhood radius R, a Euclidean distance in the chosen
    #: ``metric``: between config feature vectors (the default) or
    #: between knob indices
    radius: float = 3.0
    #: how many neighborhood configs to score per step
    neighborhood_size: int = 512
    #: neighborhood center: "incumbent" (best-so-far) or "last" (chosen x*_{t-1})
    center: str = "incumbent"
    #: neighborhood metric: "feature" (performance-local) or "index" (ablation)
    metric: str = "feature"
    #: refit the bootstrap ensemble every k steps (1 = every step, as in Alg. 4)
    refit_interval: int = 1
    #: if True, stagnation keeps compounding the radius (tau^k * R) until
    #: improvement resumes — an extension beyond the paper's one-step widening
    compound_radius: bool = False
    #: acquisition over the ensemble: "sum" (Alg. 3) or "ucb"
    #: (sum + kappa * across-ensemble std — an uncertainty-seeking extension)
    acquisition: str = "sum"
    #: exploration weight for the "ucb" acquisition
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.tau <= 1.0:
            raise ValueError("tau must exceed 1")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.neighborhood_size < 1:
            raise ValueError("neighborhood_size must be >= 1")
        if self.center not in ("incumbent", "last"):
            raise ValueError("center must be 'incumbent' or 'last'")
        if self.metric not in ("feature", "index"):
            raise ValueError("metric must be 'feature' or 'index'")
        if self.refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")
        if self.acquisition not in ("sum", "ucb"):
            raise ValueError("acquisition must be 'sum' or 'ucb'")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.acquisition == "ucb" and self.gamma < 2:
            raise ValueError("ucb acquisition needs gamma >= 2")


class BaoOptimizer:
    """Stateful per-step proposal engine implementing Alg. 4's loop body.

    The driving tuner owns measurement; this class owns neighborhood
    construction, the bootstrap ensemble, and radius adaptation.  Call
    :meth:`propose` with the current measured state to get the next
    configuration, then :meth:`observe` with its measured score.
    """

    def __init__(
        self,
        space: ConfigSpace,
        settings: BaoSettings = BaoSettings(),
        seed: int = 0,
        model_factory: Optional[ModelFactory] = None,
        transfer: Optional[TransferHistory] = None,
        refit: str = "full",
    ):
        self.space = space
        self.settings = settings
        #: discounted prior measurements mixed into every ensemble refit
        #: (``None`` — the default — keeps the historical cold-fit path)
        self.transfer = transfer
        self._pool = RngPool(seed).child("bao")
        self._ensemble = BootstrapEnsemble(
            gamma=settings.gamma,
            model_factory=model_factory,
            seed=self._pool.seed_for("ensemble"),
            refit=refit,
        )
        self._step = 0
        self._last_selected: Optional[int] = None
        self._best_history: List[float] = []
        self._stagnation = 0
        #: radius used at the most recent proposal (exposed for tests/ablation)
        self.last_radius: float = settings.radius

    # ------------------------------------------------------------------

    @property
    def stagnation(self) -> int:
        """Consecutive steps with relative improvement below ``eta``."""
        return self._stagnation

    def current_radius(self) -> float:
        """Radius for the upcoming step, per the adaptation rule."""
        s = self.settings
        if len(self._best_history) < 2:
            return s.radius
        y1 = self._best_history[-1]
        y2 = self._best_history[-2]
        if y1 <= 0:
            improvement = 0.0
        else:
            improvement = (y1 - y2) / y1
        if improvement >= s.eta:
            self._stagnation = 0
            return s.radius
        self._stagnation += 1
        if s.compound_radius:
            return s.radius * (s.tau ** self._stagnation)
        return s.radius * s.tau

    @staticmethod
    def _filter_visited(
        candidates: np.ndarray, visited: "VisitedSet"
    ) -> np.ndarray:
        """Drop visited candidates, preserving order.

        ``visited`` may be a sorted int64 array (the tuner-maintained
        fast path — one vectorized ``np.isin`` over the batch) or any
        Python set-like (legacy callers).  Both produce the same
        filtered sequence.
        """
        if isinstance(visited, np.ndarray):
            return candidates[~np.isin(candidates, visited)]
        return np.array(
            [c for c in candidates if int(c) not in visited], dtype=np.int64
        )

    def _candidate_scores(
        self,
        measured_features: np.ndarray,
        measured_scores: np.ndarray,
        best_index: int,
        visited: "Optional[VisitedSet]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Build the neighborhood C_t and score it with the acquisition."""
        if len(measured_scores) == 0:
            raise ValueError("BAO requires a measured initialization set")
        self._step += 1
        settings = self.settings

        if settings.center == "incumbent" or self._last_selected is None:
            center = int(best_index)
        else:
            center = int(self._last_selected)

        radius = self.current_radius()
        self.last_radius = radius
        rng_seed = self._pool.seed_for(f"neighborhood-{self._step}")
        candidates = sample_neighborhood(
            self.space,
            center,
            radius,
            max_points=settings.neighborhood_size,
            seed=rng_seed,
            metric=settings.metric,
        )
        if visited is not None and len(candidates):
            fresh = self._filter_visited(candidates, visited)
            if len(fresh):
                candidates = fresh
        if len(candidates) == 0:
            # degenerate space around the center: fall back to random
            candidates = self.space.sample(
                min(settings.neighborhood_size, len(self.space)),
                seed=rng_seed,
            )

        if (
            not self._ensemble.is_fitted
            or (self._step - 1) % settings.refit_interval == 0
        ):
            self._fit_ensemble(measured_features, measured_scores)

        # one batched pass over the whole candidate scope: member
        # predictions are computed once and shared between the summed
        # acquisition and (for "ucb") the uncertainty term
        feats = self.space.feature_matrix(candidates)
        scores, std = self._ensemble.predict_stats(
            feats, return_std=settings.acquisition == "ucb"
        )
        if settings.acquisition == "ucb":
            scores = scores + settings.kappa * settings.gamma * std
        return candidates, scores

    def _fit_ensemble(
        self, measured_features: np.ndarray, measured_scores: np.ndarray
    ) -> None:
        """Refit the bootstrap ensemble on the measured set.

        With a :class:`TransferHistory` attached, prior-task rows (same
        feature dimension, normalized targets, discounted weight) are
        mixed in, so the acquisition starts informed instead of cold.
        Without one, this is exactly the historical unweighted fit.
        """
        if self.transfer is not None and len(self.transfer):
            Xm, ym, wm = self.transfer.training_data(
                self.space.feature_dim,
                current_features=measured_features,
                current_targets=measured_scores,
            )
            if len(ym) > len(measured_scores):
                self._ensemble.fit(Xm, ym, sample_weight=wm)
                return
        self._ensemble.fit(measured_features, measured_scores)

    def propose(
        self,
        measured_features: np.ndarray,
        measured_scores: np.ndarray,
        best_index: int,
        visited: Optional[VisitedSet] = None,
    ) -> int:
        """Select x*_t: the acquisition argmax over the neighborhood.

        ``best_index`` is the incumbent; ``visited`` configs (a set, or
        a sorted index array for the vectorized filter) are excluded
        from the candidate set when possible (the neighborhood may be
        fully explored, in which case revisits are allowed rather than
        stalling).
        """
        candidates, scores = self._candidate_scores(
            measured_features, measured_scores, best_index, visited
        )
        chosen = int(candidates[int(np.argmax(scores))])
        self._last_selected = chosen
        return chosen

    def propose_batch(
        self,
        measured_features: np.ndarray,
        measured_scores: np.ndarray,
        best_index: int,
        k: int,
        visited: Optional[VisitedSet] = None,
    ) -> List[int]:
        """Batch extension: the top-``k`` acquisition candidates of C_t.

        Enables parallel measurement (k configurations deployed per
        ensemble refit) — the batch mechanism the paper highlights for
        BTED, applied to the iterative stage.  ``k=1`` reduces exactly
        to :meth:`propose`.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        candidates, scores = self._candidate_scores(
            measured_features, measured_scores, best_index, visited
        )
        order = np.argsort(-scores, kind="stable")[:k]
        chosen = [int(candidates[i]) for i in order]
        self._last_selected = chosen[0]
        return chosen

    def observe(self, best_gflops: float) -> None:
        """Record the best-so-far value after measuring the proposal."""
        self._best_history.append(float(best_gflops))
