"""Per-run summaries and cross-cell aggregation.

A :class:`RunSummary` is the "one paragraph about this run" artifact:
the best-so-far curve (the paper's Fig. 4 y-axis), the compilation-time
breakdown (proposal vs. measurement vs. model refit — the split that
Chameleon-style work optimizes), and the fault/retry/widen counters
that describe how rough the hardware ride was.

Bit-identity contract: every field except those named in
:data:`DURATION_FIELDS` is a pure function of the run's seeded
decisions.  :meth:`RunSummary.deterministic_dict` drops the wall-clock
fields; a crash-and-resume run must produce the same deterministic
dict as an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional

from repro.utils.io import atomic_write_text

#: RunSummary fields carrying wall-clock time — excluded from the
#: resumed-vs-uninterrupted bit-identity comparison
DURATION_FIELDS = frozenset(
    {"proposal_s", "measure_s", "refit_s", "pipeline_overlap_s", "wall_s"}
)


@dataclass
class RunSummary:
    """Deterministic digest of one tuning run (one task, one arm)."""

    task: str = ""
    arm: str = ""
    seed: Optional[int] = None
    num_measurements: int = 0
    num_errors: int = 0
    best_index: int = -1
    best_gflops: float = 0.0
    #: best-so-far GFLOPS after each batch, rounded to 6 decimals
    best_curve: List[float] = field(default_factory=list)
    batches: int = 0
    refits: int = 0
    improvements: int = 0
    widenings: int = 0
    retries: int = 0
    failures: int = 0
    #: coordinate-descent axis sweeps proposed (Droplet-style arms)
    exploit_steps: int = 0
    #: proposals dropped by the adaptive-sampling stage before measuring
    pruned_candidates: int = 0
    #: finishing policy the run handed over to ("" = single-phase run)
    finish_phase: str = ""
    #: speculative proposals resolved with speculation on
    speculations: int = 0
    #: speculations discarded for a proposal from the real state
    #: (mispredictions)
    speculation_replays: int = 0
    #: trees carried over by warm-started (incremental) refits
    refit_reused_trees: int = 0
    early_stopped: bool = False
    space_exhausted: bool = False
    resumed: bool = False
    #: --- wall-clock breakdown (non-deterministic) ---
    proposal_s: float = 0.0
    measure_s: float = 0.0
    refit_s: float = 0.0
    #: proposal seconds hidden behind concurrent measurement
    pipeline_overlap_s: float = 0.0
    wall_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSummary":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def deterministic_dict(self) -> Dict[str, Any]:
        """All fields except wall-clock durations (and resume marker).

        ``resumed`` is excluded too: it records *that* a run resumed,
        which by construction differs between the baseline and the
        resumed run being compared.  ``speculations`` and
        ``speculation_replays`` are likewise mode markers — a serial
        baseline has none by construction — while
        ``refit_reused_trees`` *is* deterministic (the same seeded
        refits reuse the same trees in either mode) and stays in.
        """
        excluded = DURATION_FIELDS | {
            "resumed", "speculations", "speculation_replays"
        }
        return {
            k: v
            for k, v in self.to_dict().items()
            if k not in excluded
        }


#: RunSummary fields :func:`aggregate_summaries` does not add up: the
#: run's identity, its incumbent (``best_gflops`` keeps the maximum)
#: and its curve
_NOT_SUMMED = frozenset(
    {"task", "arm", "seed", "best_index", "best_gflops", "best_curve"}
)


def aggregate_summaries(summaries: Iterable[RunSummary]) -> Dict[str, Any]:
    """Roll a set of per-run summaries up into one experiment digest.

    Every :class:`RunSummary` field outside :data:`_NOT_SUMMED` yields
    one key: numbers add up, flags count the runs that set them, and a
    text field counts the runs that set it under its plural name
    (``finish_phase`` -> ``finish_phases``).
    """
    rows = list(summaries)
    agg: Dict[str, Any] = {"runs": len(rows)}
    for f in fields(RunSummary):
        if f.name in _NOT_SUMMED:
            continue
        values = [getattr(s, f.name) for s in rows]
        if isinstance(f.default, str):
            agg[f.name + "s"] = sum(1 for v in values if v)
        else:
            agg[f.name] = sum(values)
    agg["best_gflops"] = max((s.best_gflops for s in rows), default=0.0)
    by_arm: Dict[str, Dict[str, Any]] = {}
    for s in rows:
        arm = by_arm.setdefault(
            s.arm or "?",
            {"runs": 0, "best_gflops": 0.0, "wall_s": 0.0},
        )
        arm["runs"] += 1
        arm["best_gflops"] = max(arm["best_gflops"], s.best_gflops)
        arm["wall_s"] += s.wall_s
    agg["by_arm"] = {k: by_arm[k] for k in sorted(by_arm)}
    return agg


def write_summary_json(path: str, summary: Dict[str, Any]) -> None:
    """Atomically write a summary dict as pretty, sorted JSON."""
    atomic_write_text(
        path, json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


def _flatten_cell_payload(payload: Any) -> List[RunSummary]:
    """One cell file may hold a single run, a list, or a task-keyed dict."""
    if isinstance(payload, list):
        out: List[RunSummary] = []
        for item in payload:
            out.extend(_flatten_cell_payload(item))
        return out
    if isinstance(payload, dict):
        if "tasks" in payload and isinstance(payload["tasks"], list):
            # table1-style cell: metadata wrapper around per-task runs
            return [
                RunSummary.from_dict(t)
                for t in payload["tasks"]
                if isinstance(t, dict)
            ]
        return [RunSummary.from_dict(payload)]
    return []


def aggregate_summary_dir(summary_dir: str) -> Dict[str, Any]:
    """Fold every ``cell-*.summary.json`` in a directory into one digest.

    Returns the aggregate and also writes it to ``summary.json`` in the
    same directory.  Cells are read in sorted filename order so the
    output is stable across re-runs and resumes.
    """
    runs: List[RunSummary] = []
    cell_files = sorted(
        f
        for f in os.listdir(summary_dir)
        if f.startswith("cell-") and f.endswith(".summary.json")
    )
    for name in cell_files:
        with open(os.path.join(summary_dir, name), encoding="utf-8") as fh:
            runs.extend(_flatten_cell_payload(json.load(fh)))
    aggregate = aggregate_summaries(runs)
    aggregate["cells"] = len(cell_files)
    write_summary_json(os.path.join(summary_dir, "summary.json"), aggregate)
    return aggregate
