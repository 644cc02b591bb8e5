"""The BTED arm: AutoTVM's iterative stage with BTED initialization.

Identical to :class:`~repro.core.tuners.autotvm.AutoTVMTuner` except
the 64 random initial configurations are replaced by the diverse
initialization set of Algorithm 2 (batch transductive experimental
design), with the paper's settings ``(mu=0.1, M=500, m=64, B=10)``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.bted import initial_design
from repro.core.tuners.autotvm import AutoTVMTuner
from repro.hardware.executor import ExecutorSpec
from repro.hardware.measure import SimulatedTask
from repro.learning.transfer import TransferHistory


class BTEDTuner(AutoTVMTuner):
    """AutoTVM iterative search + BTED initialization (the "BTED" arm)."""

    name = "bted"

    def __init__(
        self,
        task: SimulatedTask,
        seed: int = 0,
        batch_size: int = 64,
        init_size: int = 64,
        mu: float = 0.1,
        batch_candidates: int = 500,
        num_batches: int = 10,
        epsilon_greedy: float = 0.05,
        sa_chains: int = 128,
        sa_steps: int = 120,
        transfer: Optional[TransferHistory] = None,
        executor: ExecutorSpec = None,
        warm_start=None,
        adaptive_sampling: bool = False,
        adaptive_keep: float = 0.5,
        refit: str = "full",
    ):
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu!r}")
        super().__init__(
            task,
            seed=seed,
            batch_size=batch_size,
            init_size=init_size,
            epsilon_greedy=epsilon_greedy,
            sa_chains=sa_chains,
            sa_steps=sa_steps,
            transfer=transfer,
            executor=executor,
            warm_start=warm_start,
            adaptive_sampling=adaptive_sampling,
            adaptive_keep=adaptive_keep,
            refit=refit,
        )
        self.mu = mu
        self.batch_candidates = batch_candidates
        self.num_batches = num_batches

    def _generate_initial(self) -> List[int]:
        return initial_design(self)


class BTEDAdaptiveTuner(BTEDTuner):
    """BTED with the adaptive-sampling proposal stage on (the "bted+as" arm).

    A distinct registry arm rather than a flag spelling, so the pruned
    variant gets its own RNG streams, golden traces, checkpoints and
    experiment-grid column.
    """

    name = "bted+as"

    def __init__(self, *args, adaptive_sampling: bool = True, **kwargs):
        super().__init__(
            *args, adaptive_sampling=adaptive_sampling, **kwargs
        )
