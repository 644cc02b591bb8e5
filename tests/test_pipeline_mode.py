"""Pipelined tuning conformance: speculation must be invisible.

``pipeline=True`` proposes batch ``k+1`` on a worker thread while
batch ``k`` is being measured, validating the speculative clone's
predicted results against the real ones and replaying serially on any
mismatch.  The contract (``docs/PERFORMANCE.md``): records, incumbent,
and event stream — modulo the ``speculation_resolved`` marker — are
bit-identical to the serial loop for every registry arm, across a
SIGKILL-style crash at *any* checkpointed batch, and composed with
``refit="incremental"``.
"""

import pickle

import pytest

from repro.core import INCREMENTAL_REFIT_ARMS, TUNER_REGISTRY, make_tuner
from repro.core.checkpoint import CheckpointPolicy, TuningCheckpoint
from repro.core.events import (
    BatchMeasured,
    CheckpointSaved,
    EventLog,
    SpeculationResolved,
)
from repro.hardware.measure import SimulatedTask
from repro.nn.workloads import DenseWorkload

# module-level task: tuners only read from it, so sharing is safe and
# keeps the parametrized matrix cheap
TASK = SimulatedTask(
    DenseWorkload(batch=1, in_features=64, out_features=48), seed=7
)

#: every registry arm, with small-batch parameters so the pipelined
#: loop actually speculates (a single full-budget batch never would)
ARM_KWARGS = {
    "random": dict(batch_size=8),
    "grid": dict(batch_size=8),
    "ga": dict(population_size=8),
    "autotvm": dict(batch_size=8, init_size=8, sa_chains=8, sa_steps=10),
    "bted": dict(batch_size=8, init_size=6, batch_candidates=24),
    "bted+as": dict(batch_size=8, init_size=6, batch_candidates=24),
    "bted+bao": dict(
        init_size=6, batch_candidates=24, num_batches=2,
        measure_batch_size=4,
    ),
    "bted+bao+as": dict(
        init_size=6, batch_candidates=24, num_batches=2,
        measure_batch_size=4,
    ),
    "bted+bao+droplet": dict(
        init_size=6, batch_candidates=24, num_batches=2,
        measure_batch_size=4, finish_after=10,
    ),
    "droplet": dict(batch_size=8, init_size=6),
}
N_TRIAL = 16


def test_every_registry_arm_is_covered():
    assert sorted(ARM_KWARGS) == sorted(TUNER_REGISTRY)


def _trace(result):
    return [
        (r.step, r.config_index, r.gflops, r.error) for r in result.records
    ]


def _kinds(log):
    """Event kinds with the pipelined-only marker filtered out."""
    return [
        e.kind for e in log.events if e.kind != "speculation_resolved"
    ]


def _kind_steps(log):
    """``(kind, step)`` per event, the pipelined-only marker filtered out."""
    return [
        (e.kind, e.step) for e in log.events
        if e.kind != "speculation_resolved"
    ]


def _run(arm, *, pipeline, refit=None, n_trial=N_TRIAL):
    kwargs = dict(ARM_KWARGS[arm])
    if refit is not None:
        kwargs["refit"] = refit
    log = EventLog()
    tuner = make_tuner(arm, TASK, seed=5, **kwargs)
    result = tuner.tune(
        n_trial=n_trial, early_stopping=None, on_event=[log],
        pipeline=pipeline,
    )
    return result, log


class TestPipelinedEqualsSerial:
    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    def test_records_events_and_incumbent_match(self, arm):
        serial, slog = _run(arm, pipeline=False)
        piped, plog = _run(arm, pipeline=True)
        assert _trace(piped) == _trace(serial)
        assert piped.best_index == serial.best_index
        assert piped.best_gflops == serial.best_gflops
        assert _kinds(plog) == _kinds(slog)
        assert _kind_steps(plog) == _kind_steps(slog)

    def test_speculations_happen_and_are_adopted(self):
        _, plog = _run("bted+bao", pipeline=True)
        resolved = plog.of_type(SpeculationResolved)
        assert resolved, "small batches should leave room to speculate"
        # ordinal-deterministic measurement makes every prediction exact
        assert all(e.adopted for e in resolved)

    @pytest.mark.parametrize("arm", sorted(INCREMENTAL_REFIT_ARMS))
    def test_incremental_refit_is_pipeline_invariant(self, arm):
        serial, _ = _run(arm, pipeline=False, refit="incremental")
        piped, _ = _run(arm, pipeline=True, refit="incremental")
        assert _trace(piped) == _trace(serial)
        assert piped.best_index == serial.best_index


def _checkpoint_payloads(arm, path, *, pipeline):
    """``(step, payload)`` of every checkpoint one run writes."""
    payloads = []

    def grab(tuner_, event):
        if isinstance(event, CheckpointSaved):
            ckpt = TuningCheckpoint.load(event.path)
            payloads.append((event.step, pickle.loads(ckpt.payload)))

    tuner = make_tuner(arm, TASK, seed=5, **ARM_KWARGS[arm])
    tuner.tune(
        n_trial=N_TRIAL, early_stopping=None,
        checkpoint=CheckpointPolicy(path=path, every=1),
        on_event=[grab], pipeline=pipeline,
    )
    return payloads


class TestCheckpointPayload:
    """Only speculative checkpoints carry the ``pending`` proposal."""

    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    def test_pending_key_marks_speculative_checkpoints(self, arm, tmp_path):
        serial = _checkpoint_payloads(
            arm, tmp_path / "serial.ckpt", pipeline=False
        )
        assert len(serial) >= 2
        assert not any("pending" in payload for _, payload in serial)
        piped = _checkpoint_payloads(
            arm, tmp_path / "piped.ckpt", pipeline=True
        )
        assert [step for step, _ in piped] == [step for step, _ in serial]
        assert all(
            "pending" in payload for step, payload in piped if step > 0
        )


class _Crash(Exception):
    pass


def _crash_after(tuner, n_checkpoints, path, *, refit=None, n_trial=N_TRIAL):
    """Pipelined ``tune`` aborted after ``n_checkpoints`` batch saves."""
    seen = [0]

    def bomb(tuner_, event):
        if isinstance(event, CheckpointSaved) and event.step > 0:
            seen[0] += 1
            if seen[0] >= n_checkpoints:
                raise _Crash()

    with pytest.raises(_Crash):
        tuner.tune(
            n_trial=n_trial,
            early_stopping=None,
            checkpoint=CheckpointPolicy(path=path, every=1),
            on_event=[bomb],
            pipeline=True,
        )


class TestPipelinedCrashResume:
    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    def test_crash_at_every_batch_resumes_bit_identically(
        self, arm, tmp_path
    ):
        """SIGKILL-equivalent at each checkpoint; resume == serial run.

        The resume auto-detects the checkpoint's pending speculative
        proposal and re-enters the pipelined loop; the baseline is the
        *serial* run, so this also pins cross-mode bit-identity.
        """
        kwargs = ARM_KWARGS[arm]
        baseline, blog = _run(arm, pipeline=False)
        batches = len(blog.of_type(BatchMeasured))
        assert batches >= 2, "scenario too small to crash mid-run"
        # the final batch is never followed by a checkpoint (the run is
        # complete), so there are batches - 1 distinct crash points
        for crash_at in range(1, batches):
            path = tmp_path / f"{arm.replace('+', '_')}-{crash_at}.ckpt"
            crashed = make_tuner(arm, TASK, seed=5, **kwargs)
            _crash_after(crashed, crash_at, path)
            fresh = make_tuner(arm, TASK, seed=5, **kwargs)
            resumed = fresh.resume(path)
            assert _trace(resumed) == _trace(baseline), (
                f"{arm}: resume after checkpoint {crash_at}/{batches} "
                "diverged from the serial baseline"
            )
            assert resumed.best_index == baseline.best_index
            assert resumed.best_gflops == baseline.best_gflops

    def test_crash_resume_with_incremental_refit(self, tmp_path):
        arm = "bted+bao"
        baseline, _ = _run(arm, pipeline=False, refit="incremental")
        path = tmp_path / "inc.ckpt"
        crashed = make_tuner(
            arm, TASK, seed=5, refit="incremental", **ARM_KWARGS[arm]
        )
        _crash_after(crashed, 2, path, refit="incremental")
        fresh = make_tuner(
            arm, TASK, seed=5, refit="incremental", **ARM_KWARGS[arm]
        )
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)
        assert resumed.best_index == baseline.best_index
