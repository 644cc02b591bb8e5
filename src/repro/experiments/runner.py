"""Shared experiment-running helpers."""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core import make_tuner
from repro.core.tuner import TuningResult
from repro.experiments.settings import ExperimentSettings
from repro.hardware.measure import SimulatedTask
from repro.utils.rng import derive_seed


class DefaultEarlyStopping:
    """Sentinel type: 'use the settings' early-stopping window'.

    Distinct from both an integer window and ``None`` (stopping
    disabled), so callers can explicitly pass ``None`` for fixed-budget
    runs while omission defers to :class:`ExperimentSettings`.
    """

    _instance: Optional["DefaultEarlyStopping"] = None

    def __new__(cls) -> "DefaultEarlyStopping":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DEFAULT_EARLY_STOPPING"


#: pass this (the default) to inherit ``settings.early_stopping``
DEFAULT_EARLY_STOPPING = DefaultEarlyStopping()

EarlyStoppingArg = Union[Optional[int], DefaultEarlyStopping]


def run_arm_on_task(
    arm: str,
    task: SimulatedTask,
    settings: ExperimentSettings,
    trial: int = 0,
    n_trial: Optional[int] = None,
    early_stopping: EarlyStoppingArg = DEFAULT_EARLY_STOPPING,
    on_event: Sequence = (),
) -> TuningResult:
    """Run one arm on one task for one trial.

    The tuner seed derives from ``(arm, task, trial)`` so trials are
    independent while the task environment stays fixed — and so the
    result is a pure function of the cell coordinates, independent of
    which worker (or in which order) the cell executes.  Pass
    ``early_stopping=None`` to disable stopping (fixed-budget runs, as
    in the Fig. 4 convergence study).  ``on_event`` sinks (e.g. a
    :class:`repro.obs.TuningObserver`) are forwarded to the tune.
    """
    seed = derive_seed(settings.env_seed, "trial", arm, task.name, trial)
    tuner = make_tuner(arm, task, seed=seed, **settings.tuner_kwargs(arm))
    stop = (
        settings.early_stopping
        if isinstance(early_stopping, DefaultEarlyStopping)
        else early_stopping
    )
    try:
        return tuner.tune(
            n_trial=n_trial if n_trial is not None else settings.n_trial,
            early_stopping=stop,
            on_event=on_event,
        )
    finally:
        tuner.shutdown()


def average_curves(
    curves: Sequence[np.ndarray], length: Optional[int] = None
) -> np.ndarray:
    """Average best-so-far curves of possibly different lengths.

    Shorter curves (early-stopped runs) are extended by holding their
    final value, matching how convergence plots treat stopped trials.
    """
    if not curves:
        raise ValueError("no curves to average")
    if length is None:
        length = max(len(c) for c in curves)
    padded = np.empty((len(curves), length))
    for i, curve in enumerate(curves):
        curve = np.asarray(curve, dtype=np.float64)
        if len(curve) == 0:
            raise ValueError("cannot average an empty curve")
        if len(curve) >= length:
            padded[i] = curve[:length]
        else:
            padded[i, : len(curve)] = curve
            padded[i, len(curve):] = curve[-1]
    return padded.mean(axis=0)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text table formatting used by all experiment reports."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    for r, row in enumerate(cells):
        line = "  ".join(c.rjust(w) for c, w in zip(row, widths))
        lines.append(line)
        if r == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)
