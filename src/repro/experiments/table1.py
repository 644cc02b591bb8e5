"""Table I: end-to-end inference latency and variance for five models.

For every model and arm the paper deploys the tuned configuration,
times 600 end-to-end runs, and reports the mean latency (ms) and the
variance across runs, averaged over 10 independent trials — plus the
improvement percentages of BTED and BTED+BAO relative to AutoTVM.
Expected shape: both latency and variance drop from AutoTVM to BTED to
BTED+BAO (paper: −13.83% latency / −67.74% variance on average for the
full framework).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.engine import (
    ExperimentEngine,
    cell_slug,
    cell_summary_name,
)
from repro.experiments.runner import format_table
from repro.experiments.settings import ARMS, ExperimentSettings, PAPER_SETTINGS
from repro.hardware.device import GTX_1080_TI, GpuDevice
from repro.nn.zoo import PAPER_MODELS, build_model
from repro.obs import RunObservation, aggregate_summary_dir, write_summary_json
from repro.pipeline.compiler import DeploymentCompiler
from repro.utils.log import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("experiments.table1")


@dataclass
class ModelArmStats:
    """Latency statistics of one (model, arm) cell, averaged over trials."""

    latency_ms: float
    variance: float
    per_trial_latency: List[float]
    per_trial_variance: List[float]


@dataclass
class Table1Result:
    """All cells of Table I plus derived improvement percentages."""

    cells: Dict[Tuple[str, str], ModelArmStats]
    models: List[str]
    arms: List[str]
    baseline_arm: str = "autotvm"

    def latency_delta_pct(self, model: str, arm: str) -> float:
        """Latency change vs the baseline arm, in percent (negative=better)."""
        base = self.cells[(model, self.baseline_arm)].latency_ms
        ours = self.cells[(model, arm)].latency_ms
        return 100.0 * (ours - base) / base

    def variance_delta_pct(self, model: str, arm: str) -> float:
        """Variance change vs the baseline arm, in percent."""
        base = self.cells[(model, self.baseline_arm)].variance
        ours = self.cells[(model, arm)].variance
        return 100.0 * (ours - base) / base

    def average_row(self, arm: str) -> Tuple[float, float]:
        """(mean latency, mean variance) across models for one arm."""
        lat = float(np.mean([self.cells[(m, arm)].latency_ms for m in self.models]))
        var = float(np.mean([self.cells[(m, arm)].variance for m in self.models]))
        return lat, var

    def report(self) -> str:
        headers: List[str] = ["Model"]
        for arm in self.arms:
            headers += [f"{arm} lat(ms)", f"{arm} var"]
            if arm != self.baseline_arm:
                headers += [f"{arm} dLat%", f"{arm} dVar%"]
        rows: List[List[object]] = []
        for model in self.models:
            row: List[object] = [model]
            for arm in self.arms:
                stats = self.cells[(model, arm)]
                row += [f"{stats.latency_ms:.4f}", f"{stats.variance:.6f}"]
                if arm != self.baseline_arm:
                    row += [
                        f"{self.latency_delta_pct(model, arm):+.2f}",
                        f"{self.variance_delta_pct(model, arm):+.2f}",
                    ]
            rows.append(row)
        avg_row: List[object] = ["Average"]
        base_lat, base_var = self.average_row(self.baseline_arm)
        for arm in self.arms:
            lat, var = self.average_row(arm)
            avg_row += [f"{lat:.4f}", f"{var:.6f}"]
            if arm != self.baseline_arm:
                avg_row += [
                    f"{100.0 * (lat - base_lat) / base_lat:+.2f}",
                    f"{100.0 * (var - base_var) / base_var:+.2f}",
                ]
        rows.append(avg_row)
        return "Table I — end-to-end latency and variance\n" + format_table(
            headers, rows
        )


def _table1_cell(
    payload: Tuple[
        str, str, int, ExperimentSettings, GpuDevice, Optional[str]
    ],
) -> Tuple[float, float]:
    """Worker entry point: tune + deploy one (model, arm, trial) cell.

    Returns ``(mean latency ms, variance)``.  All randomness derives
    from the cell coordinates, so execution order is irrelevant.  With
    a summary path, per-task RunSummaries of the deployment's tuning
    runs are written as one ``{"model", "arm", "trial", "tasks"}`` cell
    file.
    """
    model_name, arm, trial, settings, device, summary_path = payload
    graph = build_model(model_name)
    compiler = DeploymentCompiler(
        graph, device=device, env_seed=settings.env_seed
    )
    observation = (
        RunObservation(enable_metrics=False, enable_trace=False)
        if summary_path is not None
        else None
    )
    compiled = compiler.tune(
        arm,
        n_trial=settings.n_trial,
        early_stopping=settings.early_stopping,
        trial_seed=derive_seed(settings.env_seed, "t1", arm, trial),
        tuner_kwargs=settings.tuner_kwargs(arm),
        observation=observation,
    )
    if observation is not None and summary_path is not None:
        write_summary_json(
            summary_path,
            {
                "model": model_name,
                "arm": arm,
                "trial": trial,
                "tasks": [s.to_dict() for s in observation.summaries()],
            },
        )
    sample = compiled.measure_latency(
        num_runs=settings.num_runs,
        seed=derive_seed(settings.env_seed, "runs", trial),
    )
    logger.info(
        "%s/%s trial %d: %.4f ms (var %.6f)",
        model_name,
        arm,
        trial,
        sample.mean_ms,
        sample.variance,
    )
    return sample.mean_ms, sample.variance


def run_table1(
    models: Sequence[str] = tuple(PAPER_MODELS),
    arms: Sequence[str] = ARMS,
    settings: ExperimentSettings = PAPER_SETTINGS,
    device: GpuDevice = GTX_1080_TI,
    num_trials: Optional[int] = None,
    jobs: int = 1,
    summary_dir: Optional[str] = None,
) -> Table1Result:
    """Regenerate Table I (the full five-model end-to-end comparison).

    ``jobs`` fans the (model, arm, trial) cells over a process pool;
    results are identical to the serial run for any value.
    ``summary_dir`` collects one RunSummary cell file per (model, arm,
    trial) plus the aggregated ``summary.json``.
    """
    trials = num_trials if num_trials is not None else settings.num_trials
    grid = [
        (model_name, arm, trial)
        for model_name in models
        for arm in arms
        for trial in range(trials)
    ]
    summary_root = Path(summary_dir) if summary_dir is not None else None
    if summary_root is not None:
        summary_root.mkdir(parents=True, exist_ok=True)

    def cell_summary_path(model_name: str, arm: str, trial: int):
        if summary_root is None:
            return None
        slug = cell_slug(model_name, arm, f"t{trial}")
        return str(summary_root / cell_summary_name(slug))

    payloads = [
        (
            model_name, arm, trial, settings, device,
            cell_summary_path(model_name, arm, trial),
        )
        for model_name, arm, trial in grid
    ]
    with ExperimentEngine(settings, jobs=jobs) as engine:
        samples = engine.map(_table1_cell, payloads)
    if summary_root is not None:
        aggregate_summary_dir(str(summary_root))

    lat: Dict[Tuple[str, str], List[float]] = {}
    var: Dict[Tuple[str, str], List[float]] = {}
    for (model_name, arm, _trial), (mean_ms, variance) in zip(grid, samples):
        lat.setdefault((model_name, arm), []).append(mean_ms)
        var.setdefault((model_name, arm), []).append(variance)
    cells = {
        key: ModelArmStats(
            latency_ms=float(np.mean(lat[key])),
            variance=float(np.mean(var[key])),
            per_trial_latency=lat[key],
            per_trial_variance=var[key],
        )
        for key in lat
    }
    return Table1Result(
        cells=cells,
        models=list(models),
        arms=list(arms),
        baseline_arm=arms[0],
    )
