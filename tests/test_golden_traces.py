"""Golden-trace regression tests for the main tuner arms.

Each arm is run on a fixed, tiny task with a pinned seed and its full
measurement trace (config indices, rounded GFLOPS, error flags) plus
its structured event stream is compared against a committed fixture
under ``tests/golden/``.  Any change to proposal order, RNG
consumption, noise application, event emission, or record bookkeeping
shows up here as a diff — deliberate behaviour changes regenerate the
fixtures with::

    pytest tests/test_golden_traces.py --update-golden

GFLOPS are rounded to 6 decimals so the traces are robust to
floating-point reassociation across library versions while still
pinning any real numerical change.
"""

import json
from pathlib import Path

import pytest

from repro.core import INCREMENTAL_REFIT_ARMS, make_tuner
from repro.hardware.executor import SerialExecutor
from repro.hardware.measure import SimulatedTask
from repro.nn.workloads import DenseWorkload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: fixed scenario per arm: one tiny dense task, pinned seeds, no
#: early stopping, cheap policy parameters
ARMS = {
    "autotvm": dict(
        batch_size=8, init_size=8, sa_chains=8, sa_steps=10
    ),
    "bted": dict(batch_size=8, init_size=8, batch_candidates=32),
    "bted+as": dict(
        batch_size=8, init_size=8, batch_candidates=32, adaptive_keep=0.5
    ),
    "bted+bao": dict(init_size=8, batch_candidates=32, num_batches=2),
    "bted+bao+as": dict(
        init_size=8, batch_candidates=32, num_batches=2,
        measure_batch_size=4, adaptive_keep=0.5,
    ),
    "bted+bao+droplet": dict(
        init_size=8, batch_candidates=32, num_batches=2, finish_after=12
    ),
    "droplet": dict(batch_size=8, init_size=8),
}
N_TRIAL = 24
TUNER_SEED = 11
ENV_SEED = 7

#: arms that also get a speculating + warm-started-refit golden: the
#: speculative loop (switched on by handing the tuner an executor) and
#: incremental ensemble fits follow a different (but equally pinned)
#: trajectory, including the speculation schedule
PIPELINED_ARMS = sorted(set(ARMS) & INCREMENTAL_REFIT_ARMS)


def _task() -> SimulatedTask:
    return SimulatedTask(
        DenseWorkload(batch=1, in_features=64, out_features=48),
        seed=ENV_SEED,
    )


def _run_trace(arm: str, speculate: bool = False) -> dict:
    events = []
    kwargs = dict(ARMS[arm])
    if speculate:
        kwargs.update(refit="incremental", executor=SerialExecutor)
    tuner = make_tuner(arm, _task(), seed=TUNER_SEED, **kwargs)
    result = tuner.tune(
        n_trial=N_TRIAL,
        early_stopping=None,
        on_event=[lambda t, e: events.append(e)],
    )
    return {
        "arm": arm,
        "task": result.task_name,
        "tuner_seed": TUNER_SEED,
        "env_seed": ENV_SEED,
        "n_trial": N_TRIAL,
        "records": [
            {
                "step": r.step,
                "config_index": r.config_index,
                "gflops": round(r.gflops, 6),
                "error": bool(r.error),
            }
            for r in result.records
        ],
        "events": [
            {"kind": e.kind, "step": e.step} for e in events
        ],
        "best_index": result.best_index,
        "best_gflops": round(result.best_gflops, 6),
    }


def _golden_path(arm: str, speculate: bool = False) -> Path:
    suffix = "-incremental" if speculate else ""
    return GOLDEN_DIR / f"trace-{arm.replace('+', '_')}{suffix}.json"


def _check_golden(trace: dict, path: Path, update_golden) -> None:
    if update_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(trace, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"updated golden fixture {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        "pytest tests/test_golden_traces.py --update-golden"
    )
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert trace == golden


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_golden_trace(arm, update_golden):
    _check_golden(_run_trace(arm), _golden_path(arm), update_golden)


@pytest.mark.parametrize("arm", PIPELINED_ARMS)
def test_golden_trace_pipelined_incremental(arm, update_golden):
    """The speedup mode's own goldens: an executor, refit='incremental'.

    Pins the warm-started-refit trajectory *and* the speculation
    schedule (``speculation_resolved`` events appear in the stream).
    """
    trace = _run_trace(arm, speculate=True)
    _check_golden(trace, _golden_path(arm, speculate=True), update_golden)


def test_golden_fixtures_complete():
    """Every arm has a committed fixture (catches forgotten updates)."""
    missing = [arm for arm in ARMS if not _golden_path(arm).exists()]
    missing += [
        f"{arm}-incremental"
        for arm in PIPELINED_ARMS
        if not _golden_path(arm, speculate=True).exists()
    ]
    assert not missing, f"missing golden fixtures for {missing}"
