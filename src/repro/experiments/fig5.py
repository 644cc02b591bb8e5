"""Fig. 5: per-task sampling workload and GFLOPS on MobileNet-v1.

For each of the 19 MobileNet-v1 tasks (T1..T19) and each arm, the paper
reports (a) the number of configurations sampled until early stopping
and (b) the best GFLOPS achieved, normalized to AutoTVM's — plus the
AVG column.  The expected shape: BTED samples *more* configurations
than AutoTVM, BTED+BAO samples roughly the same, and both beat AutoTVM
on GFLOPS (by up to ~36.7% / ~47.9% in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.engine import ExperimentCell, ExperimentEngine
from repro.experiments.runner import format_table
from repro.experiments.settings import ARMS, ExperimentSettings, PAPER_SETTINGS
from repro.hardware.device import GTX_1080_TI, GpuDevice
from repro.nn.zoo import build_model
from repro.pipeline.tasks import extract_tasks


@dataclass
class Fig5Result:
    """Per-task averages: ``num_configs`` and ``gflops`` keyed by (task, arm)."""

    model_name: str
    task_ids: List[int]
    num_configs: Dict[Tuple[int, str], float]
    gflops: Dict[Tuple[int, str], float]
    baseline_arm: str = "autotvm"

    def gflops_ratio(self, task_id: int, arm: str) -> float:
        """GFLOPS as a percentage of the baseline arm (Fig. 5(b) y-axis)."""
        base = self.gflops[(task_id, self.baseline_arm)]
        if base <= 0:
            return float("nan")
        return 100.0 * self.gflops[(task_id, arm)] / base

    def average_ratio(self, arm: str) -> float:
        """The AVG bar of Fig. 5(b) for one arm."""
        ratios = [self.gflops_ratio(t, arm) for t in self.task_ids]
        return float(np.mean(ratios))

    def average_configs(self, arm: str) -> float:
        """The AVG bar of Fig. 5(a) for one arm."""
        return float(
            np.mean([self.num_configs[(t, arm)] for t in self.task_ids])
        )

    def arms(self) -> List[str]:
        return sorted({arm for _, arm in self.gflops})

    def report(self) -> str:
        arms = self.arms()
        headers = ["task"] + [f"#conf({a})" for a in arms] + [
            f"GFLOPS%({a})" for a in arms
        ]
        rows = []
        for task_id in self.task_ids:
            row: List[object] = [f"T{task_id + 1}"]
            row += [f"{self.num_configs[(task_id, a)]:.0f}" for a in arms]
            row += [f"{self.gflops_ratio(task_id, a):.1f}" for a in arms]
            rows.append(row)
        avg: List[object] = ["AVG"]
        avg += [f"{self.average_configs(a):.0f}" for a in arms]
        avg += [f"{self.average_ratio(a):.1f}" for a in arms]
        rows.append(avg)
        title = (
            f"Fig. 5 — #configs and GFLOPS ratio vs {self.baseline_arm}, "
            f"{self.model_name}\n"
        )
        return title + format_table(headers, rows)


def run_fig5(
    model_name: str = "mobilenet-v1",
    arms: Sequence[str] = ARMS,
    settings: ExperimentSettings = PAPER_SETTINGS,
    num_trials: Optional[int] = None,
    device: GpuDevice = GTX_1080_TI,
    max_tasks: Optional[int] = None,
    jobs: int = 1,
    checkpoint_dir: Optional[str] = None,
    summary_dir: Optional[str] = None,
) -> Fig5Result:
    """Regenerate the Fig. 5 study (early stopping active, as in the paper).

    ``jobs`` fans the (task, arm, trial) cells over a process pool;
    results are identical to the serial run for any value.
    ``checkpoint_dir`` persists finished cells so an interrupted study
    can be rerun without recomputing them.  ``summary_dir`` collects
    per-cell RunSummary files plus an aggregated ``summary.json``.
    """
    graph = build_model(model_name)
    tasks = extract_tasks(graph)
    if max_tasks is not None:
        tasks = tasks[:max_tasks]
    trials = num_trials if num_trials is not None else settings.num_trials

    cells = [
        ExperimentCell(
            arm=arm,
            task=spec.to_simulated(device=device, seed=settings.env_seed),
            trial=trial,
            key=(spec.task_id, arm),
        )
        for spec in tasks
        for arm in arms
        for trial in range(trials)
    ]
    with ExperimentEngine(
        settings, jobs=jobs,
        checkpoint_dir=checkpoint_dir, summary_dir=summary_dir,
    ) as engine:
        results = engine.run_cells(cells)

    counts: Dict[Tuple[int, str], List[float]] = {}
    bests: Dict[Tuple[int, str], List[float]] = {}
    for cell, result in zip(cells, results):
        counts.setdefault(cell.key, []).append(result.num_measurements)
        bests.setdefault(cell.key, []).append(result.best_gflops)
    num_configs = {key: float(np.mean(v)) for key, v in counts.items()}
    gflops = {key: float(np.mean(v)) for key, v in bests.items()}
    return Fig5Result(
        model_name=model_name,
        task_ids=[spec.task_id for spec in tasks],
        num_configs=num_configs,
        gflops=gflops,
        baseline_arm=arms[0],
    )
