"""The BTED+BAO arm: the paper's full advanced active-learning framework.

Initialization by BTED (Alg. 2); each iterative step selects exactly
one configuration by Bootstrap-guided sampling over the adaptive
neighborhood of the incumbent (Alg. 3 & 4) and deploys it.  Paper
settings (Sec. V-A): ``eta=0.05, Gamma=2, tau=1.5, R=3``.

Two opt-in extensions ride on top of the paper arm:

* ``finish="droplet"`` hands the search over to a coordinate-descent
  exploit phase (:mod:`repro.core.droplet`) once BAO stagnates (or at
  a fixed measurement count via ``finish_after``) — explore as a
  storm, exploit as a raindrop.
* ``adaptive_sampling=True`` k-center-prunes each proposed batch
  before measurement (meaningful with ``measure_batch_size > 1``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.adaptive import prune_plan, validate_adaptive
from repro.core.bao import BaoOptimizer, BaoSettings
from repro.core.bootstrap import ModelFactory
from repro.core.bted import initial_design
from repro.core.droplet import (
    CoordinateDescent,
    DropletSettings,
    droplet_propose,
)
from repro.core.events import FinishPhaseStarted, ScopeWidened
from repro.core.tuner import Tuner
from repro.hardware.executor import ExecutorSpec
from repro.hardware.measure import SimulatedTask


class BTEDBAOTuner(Tuner):
    """BTED initialization + BAO iterative optimization."""

    name = "bted+bao"

    def __init__(
        self,
        task: SimulatedTask,
        seed: int = 0,
        init_size: int = 64,
        mu: float = 0.1,
        batch_candidates: int = 500,
        num_batches: int = 10,
        bao_settings: BaoSettings = BaoSettings(),
        model_factory: Optional[ModelFactory] = None,
        measure_batch_size: int = 1,
        executor: ExecutorSpec = None,
        warm_start=None,
        finish: Optional[str] = None,
        finish_after: Optional[int] = None,
        finish_stagnation: int = 8,
        droplet_settings: DropletSettings = DropletSettings(),
        adaptive_sampling: bool = False,
        adaptive_keep: float = 0.5,
        refit: str = "full",
    ):
        # BAO deploys one configuration per iteration (Alg. 4 line 10-11);
        # measure_batch_size > 1 enables the parallel-measurement
        # extension (top-k of the acquisition per ensemble refit)
        if measure_batch_size < 1:
            raise ValueError("measure_batch_size must be >= 1")
        if finish not in (None, "droplet"):
            raise ValueError(
                f"unknown finishing policy {finish!r}; only 'droplet' "
                "is available"
            )
        if finish_after is not None and finish_after <= 0:
            raise ValueError("finish_after must be positive")
        if finish_stagnation <= 0:
            raise ValueError("finish_stagnation must be positive")
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu!r}")
        validate_adaptive(adaptive_keep)
        super().__init__(
            task, seed=seed, batch_size=measure_batch_size,
            executor=executor, warm_start=warm_start,
        )
        if init_size <= 0:
            raise ValueError("init_size must be positive")
        self.init_size = init_size
        self.mu = mu
        self.batch_candidates = batch_candidates
        self.num_batches = num_batches
        self.adaptive_sampling = adaptive_sampling
        self.adaptive_keep = adaptive_keep
        #: ensemble refit strategy: "full" (historical, golden-pinned)
        #: or "incremental" (warm-started, opt-in with its own goldens)
        self.refit = refit
        self.bao = BaoOptimizer(
            task.space,
            settings=bao_settings,
            seed=self.rng_pool.seed_for("bao"),
            model_factory=model_factory,
            transfer=(
                getattr(warm_start, "history", None)
                if warm_start is not None else None
            ),
            refit=refit,
        )
        # finishing phase: None until the handoff condition fires, then
        # every proposal comes from the coordinate-descent policy
        self.finish = finish
        self.finish_after = finish_after
        self.finish_stagnation = finish_stagnation
        self.finishing = False
        self.droplet = (
            CoordinateDescent(
                task.space, settings=droplet_settings,
                seed=self.rng_pool.seed_for("droplet"),
            )
            if finish is not None
            else None
        )

    def _generate_initial(self) -> List[int]:
        return initial_design(self)

    def _should_finish(self) -> bool:
        if self.finish is None or self.finishing:
            return False
        if self.finish_after is not None:
            return self.num_measured >= self.finish_after
        return self.bao.stagnation >= self.finish_stagnation

    def _generate_next(self) -> List[int]:
        # Alg. 4: observe the best value reached, then propose x*_t
        self.bao.observe(self.best_gflops)
        if self.best_index is None:
            return self._random_unvisited(self.batch_size)
        if self._should_finish():
            self.finishing = True
            self._queue_event(
                FinishPhaseStarted(
                    step=self.num_measured,
                    policy=self.finish,
                    stagnation=self.bao.stagnation,
                )
            )
        if self.finishing:
            batch = droplet_propose(self, self.droplet)
            if not batch:
                return self._random_unvisited(self.batch_size)
            return batch
        if self.batch_size == 1:
            chosen = [
                self.bao.propose(
                    self.measured_features,
                    self.measured_scores_array,
                    best_index=self.best_index,
                    visited=self.visited_sorted,
                )
            ]
        else:
            chosen = self.bao.propose_batch(
                self.measured_features,
                self.measured_scores_array,
                best_index=self.best_index,
                k=self.batch_size,
                visited=self.visited_sorted,
            )
        # surface the r_t adaptation decision as a structured event
        if self.bao.last_radius > self.bao.settings.radius:
            self._queue_event(
                ScopeWidened(
                    step=len(self.measured_indices),
                    radius=self.bao.last_radius,
                    base_radius=self.bao.settings.radius,
                    stagnation=self.bao.stagnation,
                )
            )
        if self.adaptive_sampling and len(chosen) > 1:
            chosen = prune_plan(self, chosen, self.adaptive_keep)
        fresh = [c for c in chosen if c not in self.visited]
        if not fresh:
            return self._random_unvisited(self.batch_size)
        return fresh


class BTEDBAODropletTuner(BTEDBAOTuner):
    """BTED+BAO exploring, coordinate descent finishing ("bted+bao+droplet").

    The registry spelling of ``finish="droplet"``: once BAO's
    stagnation counter shows the bootstrap search has flattened, the
    remaining budget is spent line-searching the incumbent's axes.
    """

    name = "bted+bao+droplet"

    def __init__(self, *args, finish: Optional[str] = "droplet", **kwargs):
        super().__init__(*args, finish=finish, **kwargs)


class BTEDBAOAdaptiveTuner(BTEDBAOTuner):
    """Batched BTED+BAO with adaptive sampling on ("bted+bao+as").

    Proposes top-k batches per refit (``measure_batch_size=8`` by
    default) and k-center-prunes each batch before deployment.
    """

    name = "bted+bao+as"

    def __init__(
        self,
        *args,
        measure_batch_size: int = 8,
        adaptive_sampling: bool = True,
        **kwargs,
    ):
        super().__init__(
            *args,
            measure_batch_size=measure_batch_size,
            adaptive_sampling=adaptive_sampling,
            **kwargs,
        )
