"""Fig. 4: GFLOPS convergence on the first two MobileNet-v1 layers.

The paper plots best-so-far GFLOPS against the number of sampled
configurations (up to 1024) for (a) AutoTVM vs BTED on the first layer
and (b) BTED+BAO on the second layer.  This harness runs all requested
arms on the first ``num_layers`` tasks with a fixed measurement budget
(no early stopping, so curves share an x-axis) and averages the curves
over trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.engine import ExperimentCell, ExperimentEngine
from repro.experiments.runner import average_curves
from repro.experiments.settings import ARMS, ExperimentSettings, PAPER_SETTINGS
from repro.hardware.device import GTX_1080_TI, GpuDevice
from repro.nn.zoo import build_model
from repro.pipeline.tasks import extract_tasks


@dataclass
class Fig4Result:
    """Averaged convergence curves: ``curves[(layer, arm)] -> np.ndarray``."""

    model_name: str
    num_measurements: int
    curves: Dict[Tuple[int, str], np.ndarray]

    def arms(self) -> List[str]:
        return sorted({arm for _, arm in self.curves})

    def layers(self) -> List[int]:
        return sorted({layer for layer, _ in self.curves})

    def final_gflops(self, layer: int, arm: str) -> float:
        """Converged (final) best GFLOPS of one curve."""
        return float(self.curves[(layer, arm)][-1])

    def report(self, checkpoints: Sequence[int] = (64, 256, 512, 1024)) -> str:
        """Text rendering of the curves at selected x positions."""
        from repro.experiments.runner import format_table

        checkpoints = [c for c in checkpoints if c <= self.num_measurements]
        headers = ["layer", "arm"] + [f"@{c}" for c in checkpoints]
        rows = []
        for (layer, arm), curve in sorted(self.curves.items()):
            rows.append(
                [f"T{layer + 1}", arm]
                + [f"{curve[c - 1]:.1f}" for c in checkpoints]
            )
        title = f"Fig. 4 — GFLOPS convergence, {self.model_name}\n"
        return title + format_table(headers, rows)


def run_fig4(
    model_name: str = "mobilenet-v1",
    num_layers: int = 2,
    arms: Sequence[str] = ARMS,
    settings: ExperimentSettings = PAPER_SETTINGS,
    num_measurements: int = 1024,
    num_trials: int = 3,
    device: GpuDevice = GTX_1080_TI,
    jobs: int = 1,
    checkpoint_dir: Optional[str] = None,
    summary_dir: Optional[str] = None,
) -> Fig4Result:
    """Regenerate the Fig. 4 convergence study.

    ``jobs`` fans the (layer, arm, trial) cells over a process pool;
    results are identical to the serial run for any value.
    ``checkpoint_dir`` persists finished cells so an interrupted study
    can be rerun without recomputing them.  ``summary_dir`` collects
    per-cell RunSummary files plus an aggregated ``summary.json``
    (typically the figure's output directory).
    """
    graph = build_model(model_name)
    tasks = extract_tasks(graph)[:num_layers]
    if len(tasks) < num_layers:
        raise ValueError(f"{model_name} has only {len(tasks)} tasks")

    cells = [
        ExperimentCell(
            arm=arm,
            task=spec.to_simulated(device=device, seed=settings.env_seed),
            trial=trial,
            n_trial=num_measurements,
            early_stopping=None,
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

    trial_curves: Dict[Tuple[int, str], List[np.ndarray]] = {}
    for cell, result in zip(cells, results):
        trial_curves.setdefault(cell.key, []).append(result.best_curve())
    curves = {
        key: average_curves(curve_list, length=num_measurements)
        for key, curve_list in trial_curves.items()
    }
    return Fig4Result(
        model_name=model_name,
        num_measurements=num_measurements,
        curves=curves,
    )
