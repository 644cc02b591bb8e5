"""Experiment engine: run the evaluation grid's cells inline or on a pool.

The paper's evaluation is a grid of independent *cells* — one (arm,
task, trial) tuning run, or one (model, arm, trial) end-to-end
deployment.  Nothing couples cells except aggregation at the end, and
every cell's randomness derives from its own coordinates via
:func:`repro.utils.rng.derive_seed`, so a cell is a pure function of
its coordinates.  :class:`ExperimentEngine` maps one module-level cell
function over the grid: inline in submission order at ``jobs=1``, on a
process pool otherwise.  Both run the same function on the same inputs,
so ``jobs`` changes wall-clock time and never results.  The
``fig4``/``fig5``/``table1`` harnesses all build on it.

The process pool is the grid's one fan-out.  Cells are CPU-bound
Python and measure on their own simulated task, so only separate
processes put them on separate cores (``docs/EXECUTION.md`` has the
timings).
"""

from __future__ import annotations

import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.tuner import TuningResult
from repro.experiments.runner import (
    DEFAULT_EARLY_STOPPING,
    EarlyStoppingArg,
    run_arm_on_task,
)
from repro.experiments.settings import ExperimentSettings
from repro.hardware.measure import SimulatedTask
from repro.obs import (
    TuningObserver,
    aggregate_summary_dir,
    write_summary_json,
)
from repro.utils.io import atomic_pickle_dump
from repro.utils.log import get_logger

logger = get_logger("experiments.engine")

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ExperimentCell:
    """One independent unit of the evaluation grid.

    ``key`` is an opaque caller-side identifier (e.g. ``(task_id,
    arm)``) carried through the engine so aggregation code can match
    results to coordinates without relying on list positions.
    """

    arm: str
    task: SimulatedTask
    trial: int = 0
    n_trial: Optional[int] = None
    early_stopping: EarlyStoppingArg = DEFAULT_EARLY_STOPPING
    key: Tuple = field(default=())


def cell_slug(*coords: object) -> str:
    """Stable, filesystem-safe identifier for one grid cell.

    The engine's cells are ``(arm, task, "t<trial>")`` and Table I's
    ``(model, arm, "t<trial>")``; both grids name a cell's files after
    this slug (see :func:`cell_summary_name`).
    """
    return re.sub(r"[^A-Za-z0-9._+-]+", "_", "-".join(map(str, coords)))


def cell_summary_name(slug: str) -> str:
    """The RunSummary file of the cell with ``slug``."""
    return f"cell-{slug}.summary.json"


def _under(root: Optional[Path], name: str) -> Optional[str]:
    """``root/name`` as a string, or ``None`` without a root."""
    return None if root is None else str(root / name)


def _run_cell(
    payload: Tuple[
        ExperimentCell, ExperimentSettings, Optional[str], Optional[str]
    ],
) -> TuningResult:
    """Run one cell, persisting its summary (then its ``.done`` marker).

    The one cell function of both execution paths (module-level so the
    pool can pickle it).  The summary is written *before* the done
    marker so a crash between the two leaves a re-runnable cell, never
    a done cell with a missing summary.
    """
    cell, settings, done_path, summary_path = payload
    observer = (
        TuningObserver(enable_metrics=False, enable_trace=False)
        if summary_path is not None
        else None
    )
    result = run_arm_on_task(
        cell.arm,
        cell.task,
        settings,
        trial=cell.trial,
        n_trial=cell.n_trial,
        early_stopping=cell.early_stopping,
        on_event=(observer,) if observer is not None else (),
    )
    if observer is not None and summary_path is not None:
        summary = observer.summary()
        summary.task = summary.task or cell.task.name
        write_summary_json(summary_path, summary.to_dict())
    if done_path is not None:
        atomic_pickle_dump(done_path, result)
    return result


class ExperimentEngine:
    """Executes experiment cells, inline or across a process pool.

    Determinism is the contract: for any ``jobs``, results come back in
    submission order and each cell's records are identical to the
    inline run's, because per-cell seeds derive from cell coordinates
    alone.

    ``checkpoint_dir`` makes the grid restartable at cell granularity:
    every finished cell is persisted (atomically) as a ``.done`` file
    keyed by its coordinates, and a re-run with the same directory
    loads those results instead of recomputing them.  Because each cell
    is a pure function of its coordinates, a resumed grid is
    bit-identical to an uninterrupted one.

    ``summary_dir`` attaches a :class:`~repro.obs.TuningObserver` to
    every executed cell and collects per-cell
    ``cell-<slug>.summary.json`` files plus an aggregated
    ``summary.json`` in that directory (the fig4/fig5/table1 harnesses
    point it at their output dirs).  Summaries survive grid restarts:
    a cell loaded from its ``.done`` file keeps the summary written
    when it originally ran.
    """

    def __init__(
        self,
        settings: ExperimentSettings,
        jobs: int = 1,
        checkpoint_dir: Optional[str] = None,
        summary_dir: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.settings = settings
        self.jobs = jobs
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.summary_dir = (
            Path(summary_dir) if summary_dir is not None else None
        )
        if self.summary_dir is not None:
            self.summary_dir.mkdir(parents=True, exist_ok=True)
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------

    def map(self, fn: Callable[[T], R], payloads: Sequence[T]) -> List[R]:
        """Ordered map of ``fn`` over payloads, inline or on the pool.

        ``fn`` must be a module-level (picklable) callable when
        ``jobs > 1``.
        """
        payloads = list(payloads)
        if self.jobs == 1 or len(payloads) <= 1:
            return [fn(p) for p in payloads]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return list(self._pool.map(fn, payloads, chunksize=1))

    def aggregate_summaries(self) -> Optional[dict]:
        """Fold per-cell summary files into ``summary_dir/summary.json``."""
        if self.summary_dir is None:
            return None
        return aggregate_summary_dir(str(self.summary_dir))

    def run_cells(
        self, cells: Sequence[ExperimentCell]
    ) -> List[TuningResult]:
        """Execute every cell; results in submission order.

        With ``checkpoint_dir`` set, cells whose ``.done`` file already
        exists are loaded instead of recomputed.  With ``summary_dir``
        set, every executed cell leaves a RunSummary file and the
        directory-level aggregate is refreshed before returning.
        """
        results: List[Optional[TuningResult]] = [None] * len(cells)
        pending: List[int] = []
        payloads = []
        for i, cell in enumerate(cells):
            slug = cell_slug(cell.arm, cell.task.name, f"t{cell.trial}")
            done_path = _under(self.checkpoint_dir, f"cell-{slug}.done")
            if done_path is not None and Path(done_path).exists():
                with open(done_path, "rb") as fh:
                    results[i] = pickle.load(fh)
                continue
            summary_path = _under(self.summary_dir, cell_summary_name(slug))
            pending.append(i)
            payloads.append((cell, self.settings, done_path, summary_path))
        logger.info(
            "engine: %d cells (%d loaded) on %d worker(s)",
            len(cells), len(cells) - len(pending), self.jobs,
        )
        for i, result in zip(pending, self.map(_run_cell, payloads)):
            results[i] = result
        self.aggregate_summaries()
        return list(results)  # type: ignore[arg-type]

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
