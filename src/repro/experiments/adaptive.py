"""Adaptive-sampling study: measurements saved by pruning proposals.

Chameleon's claim (PAPERS.md), checked on this repo's simulator: with
the k-center adaptive-sampling stage on (the ``bted+as`` arm), each
proposed batch shrinks to its diverse representatives, so the early
stopper's no-improvement window fills after fewer *measurements* while
the best-found configuration stays within noise of the unpruned arm.

The study runs a baseline arm and its adaptive counterpart over the
same fig4 task grid (same ``env_seed`` — identical optimization
problems), under early stopping so measurement counts are allowed to
differ, and reports the per-task measurement reduction and best-GFLOPS
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.engine import ExperimentCell, ExperimentEngine
from repro.experiments.settings import ExperimentSettings, PAPER_SETTINGS
from repro.hardware.device import GTX_1080_TI, GpuDevice
from repro.nn.zoo import build_model
from repro.pipeline.tasks import extract_tasks


@dataclass
class AdaptiveStudyResult:
    """Per-task outcomes: ``measurements[(layer, arm)]`` etc. (trial means)."""

    model_name: str
    baseline_arm: str
    adaptive_arm: str
    layers: List[int]
    measurements: Dict[Tuple[int, str], float]
    best_gflops: Dict[Tuple[int, str], float]

    def measurement_reduction_pct(self) -> float:
        """Mean % fewer measurements the adaptive arm needed."""
        ratios = []
        for layer in self.layers:
            base = self.measurements[(layer, self.baseline_arm)]
            adap = self.measurements[(layer, self.adaptive_arm)]
            if base > 0:
                ratios.append(100.0 * (base - adap) / base)
        return float(np.mean(ratios)) if ratios else 0.0

    def gflops_ratio(self) -> float:
        """Mean adaptive-to-baseline ratio of best-found GFLOPS."""
        ratios = []
        for layer in self.layers:
            base = self.best_gflops[(layer, self.baseline_arm)]
            adap = self.best_gflops[(layer, self.adaptive_arm)]
            if base > 0:
                ratios.append(adap / base)
        return float(np.mean(ratios)) if ratios else 0.0

    def report(self) -> str:
        from repro.experiments.runner import format_table

        headers = [
            "layer",
            f"#meas {self.baseline_arm}",
            f"#meas {self.adaptive_arm}",
            f"best {self.baseline_arm}",
            f"best {self.adaptive_arm}",
        ]
        rows = []
        for layer in self.layers:
            rows.append([
                f"T{layer + 1}",
                f"{self.measurements[(layer, self.baseline_arm)]:.0f}",
                f"{self.measurements[(layer, self.adaptive_arm)]:.0f}",
                f"{self.best_gflops[(layer, self.baseline_arm)]:.1f}",
                f"{self.best_gflops[(layer, self.adaptive_arm)]:.1f}",
            ])
        title = (
            f"Adaptive sampling — {self.model_name}: "
            f"{self.measurement_reduction_pct():.1f}% fewer measurements "
            f"at {100.0 * self.gflops_ratio():.1f}% of baseline GFLOPS\n"
        )
        return title + format_table(headers, rows)


def run_adaptive_study(
    model_name: str = "mobilenet-v1",
    num_layers: int = 2,
    baseline_arm: str = "bted",
    adaptive_arm: str = "bted+as",
    settings: ExperimentSettings = PAPER_SETTINGS,
    n_trial: Optional[int] = None,
    early_stopping: Optional[int] = None,
    num_trials: int = 3,
    device: GpuDevice = GTX_1080_TI,
    jobs: int = 1,
    checkpoint_dir: Optional[str] = None,
    summary_dir: Optional[str] = None,
) -> AdaptiveStudyResult:
    """Run the measurements-saved study on one model's first layers.

    ``n_trial``/``early_stopping`` default to the settings' budgets
    (early stopping stays *on* — it is what converts smaller batches
    into fewer total measurements).  The cell fan-out knobs (``jobs``,
    ``checkpoint_dir``, ``summary_dir``) behave exactly as in
    :func:`~repro.experiments.fig4.run_fig4`.
    """
    if n_trial is None:
        n_trial = settings.n_trial
    if early_stopping is None:
        early_stopping = settings.early_stopping
    graph = build_model(model_name)
    tasks = extract_tasks(graph)[:num_layers]
    if len(tasks) < num_layers:
        raise ValueError(f"{model_name} has only {len(tasks)} tasks")

    arms: Sequence[str] = (baseline_arm, adaptive_arm)
    cells = [
        ExperimentCell(
            arm=arm,
            task=spec.to_simulated(device=device, seed=settings.env_seed),
            trial=trial,
            n_trial=n_trial,
            early_stopping=early_stopping,
            key=(spec.task_id, arm),
        )
        for spec in tasks
        for arm in arms
        for trial in range(num_trials)
    ]
    with ExperimentEngine(
        settings, jobs=jobs,
        checkpoint_dir=checkpoint_dir, summary_dir=summary_dir,
    ) as engine:
        results = engine.run_cells(cells)

    meas: Dict[Tuple[int, str], List[float]] = {}
    best: Dict[Tuple[int, str], List[float]] = {}
    for cell, result in zip(cells, results):
        meas.setdefault(cell.key, []).append(float(result.num_measurements))
        best.setdefault(cell.key, []).append(float(result.best_gflops))
    return AdaptiveStudyResult(
        model_name=model_name,
        baseline_arm=baseline_arm,
        adaptive_arm=adaptive_arm,
        layers=[spec.task_id for spec in tasks],
        measurements={k: float(np.mean(v)) for k, v in meas.items()},
        best_gflops={k: float(np.mean(v)) for k, v in best.items()},
    )
