"""Checkpoint/resume: crash at any batch, resume bit-identically."""

import dataclasses
import pickle

import pytest

from repro.core import make_tuner
from repro.core.bootstrap import BootstrapEnsemble
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointPolicy,
    TuningCheckpoint,
)
from repro.core.events import CheckpointSaved, TuningResumed
from repro.hardware.faults import FaultModel, RetryPolicy
from repro.hardware.executor import build_executor
from repro.hardware.measure import SimulatedTask
from repro.nn.workloads import DenseWorkload
from repro.space.space import FeatureCache
from tests import ensemble_oracle

ARM_KWARGS = {
    "random": dict(batch_size=8),
    "bted": dict(batch_size=8, init_size=6, batch_candidates=24),
    "bted+as": dict(batch_size=8, init_size=6, batch_candidates=24),
    "bted+bao": dict(init_size=6, batch_candidates=24, num_batches=2),
    "bted+bao+as": dict(
        init_size=6, batch_candidates=24, num_batches=2,
        measure_batch_size=4,
    ),
    "bted+bao+droplet": dict(
        init_size=6, batch_candidates=24, num_batches=2, finish_after=10
    ),
    "droplet": dict(batch_size=8, init_size=6),
}


def _trace(result):
    return [
        (r.step, r.config_index, r.gflops, r.error) for r in result.records
    ]


def _crash_after(tuner, n_batches, path, n_trial, early_stopping=None):
    """Run ``tune`` but abort after ``n_batches`` measured batches."""

    class _Crash(Exception):
        pass

    seen = [0]

    def bomb(tuner_, event):
        if isinstance(event, CheckpointSaved) and event.step > 0:
            seen[0] += 1
            if seen[0] >= n_batches:
                raise _Crash()

    with pytest.raises(_Crash):
        tuner.tune(
            n_trial=n_trial,
            early_stopping=early_stopping,
            checkpoint=CheckpointPolicy(path=path, every=1),
            on_event=[bomb],
        )


def _add_tuner_state(path, **extra):
    """Rewrite the checkpoint at ``path`` with extra tuner attributes."""
    ckpt = TuningCheckpoint.load(path)
    payload = pickle.loads(ckpt.payload)
    payload["tuner_state"].update(extra)
    dataclasses.replace(ckpt, payload=pickle.dumps(payload)).save(path)


#: every attribute a BAO ensemble pickled while ``fit_jobs`` and
#: ``share_bin_edges`` were still constructor arguments
_OLD_ENSEMBLE_ATTRS = {
    "gamma", "share_bin_edges", "fit_jobs", "refit", "incremental_rounds",
    "max_trees", "reuse_trees", "_rng", "_factory", "_models",
    "reused_trees_total",
}


def _as_old_ensemble(path, share_bin_edges):
    """Rewrite a BAO checkpoint's ensemble to the old attribute set."""
    ckpt = TuningCheckpoint.load(path)
    payload = pickle.loads(ckpt.payload)
    state = vars(payload["tuner_state"]["bao"]._ensemble)
    for key in set(state) - _OLD_ENSEMBLE_ATTRS:
        del state[key]
    state.update(fit_jobs=None, share_bin_edges=share_bin_edges)
    assert set(state) == _OLD_ENSEMBLE_ATTRS
    dataclasses.replace(ckpt, payload=pickle.dumps(payload)).save(path)


class TestTuningCheckpointFile:
    def test_save_load_roundtrip(self, tmp_path, dense_task):
        tuner = make_tuner("random", dense_task, seed=3, batch_size=8)
        tuner.tune(n_trial=8, early_stopping=None)
        ckpt = tuner.snapshot(n_trial=16, early_stopping=None)
        path = tmp_path / "t.ckpt"
        ckpt.save(path)
        loaded = TuningCheckpoint.load(path)
        assert loaded == ckpt

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError):
            TuningCheckpoint.load(path)

    def test_load_rejects_foreign_pickles(self, tmp_path):
        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(CheckpointError):
            TuningCheckpoint.load(path)

    def test_load_rejects_future_versions(self, tmp_path, dense_task):
        tuner = make_tuner("random", dense_task, seed=3)
        ckpt = tuner.snapshot()
        future = TuningCheckpoint(
            **{
                **ckpt.__dict__,
                "version": CHECKPOINT_VERSION + 1,
            }
        )
        path = tmp_path / "future.ckpt"
        future.save(path)
        with pytest.raises(CheckpointError, match="version"):
            TuningCheckpoint.load(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            TuningCheckpoint.load(tmp_path / "absent.ckpt")

    def test_policy_validates_every(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointPolicy(path=tmp_path / "x", every=0)


class TestResumeValidation:
    def test_resume_rejects_wrong_arm(self, tmp_path, dense_task):
        tuner = make_tuner("random", dense_task, seed=3, batch_size=8)
        path = tmp_path / "t.ckpt"
        tuner.tune(n_trial=8, early_stopping=None, checkpoint=path)
        other = make_tuner("grid", dense_task, seed=3)
        with pytest.raises(CheckpointError, match="tuner"):
            other.resume(path)

    def test_resume_rejects_wrong_seed(self, tmp_path, dense_task):
        tuner = make_tuner("random", dense_task, seed=3, batch_size=8)
        path = tmp_path / "t.ckpt"
        tuner.tune(n_trial=8, early_stopping=None, checkpoint=path)
        other = make_tuner("random", dense_task, seed=4, batch_size=8)
        with pytest.raises(CheckpointError, match="seed"):
            other.resume(path)

    def test_resume_rejects_wrong_task(self, tmp_path, dense_task):
        tuner = make_tuner("random", dense_task, seed=3, batch_size=8)
        path = tmp_path / "t.ckpt"
        tuner.tune(n_trial=8, early_stopping=None, checkpoint=path)
        other_task = SimulatedTask(
            DenseWorkload(batch=1, in_features=32, out_features=32), seed=9
        )
        other = make_tuner("random", other_task, seed=3, batch_size=8)
        with pytest.raises(CheckpointError, match="task"):
            other.resume(path)


class TestCrashResume:
    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    def test_crash_and_resume_matches_uninterrupted(
        self, tmp_path, dense_task, arm
    ):
        kwargs = ARM_KWARGS[arm]
        n_trial = 20
        baseline = make_tuner(arm, dense_task, seed=5, **kwargs).tune(
            n_trial=n_trial, early_stopping=None
        )

        path = tmp_path / f"{arm}.ckpt"
        crashed = make_tuner(arm, dense_task, seed=5, **kwargs)
        _crash_after(crashed, n_batches=1, path=path, n_trial=n_trial)

        fresh = make_tuner(arm, dense_task, seed=5, **kwargs)
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)
        assert resumed.best_index == baseline.best_index
        assert resumed.best_gflops == baseline.best_gflops

    def test_crash_before_first_batch_is_resumable(
        self, tmp_path, dense_task
    ):
        # the step-0 snapshot alone must reproduce the entire run
        baseline = make_tuner("random", dense_task, seed=1, batch_size=8).tune(
            n_trial=16, early_stopping=None
        )
        path = tmp_path / "step0.ckpt"
        tuner = make_tuner("random", dense_task, seed=1, batch_size=8)
        ckpt = tuner.snapshot(n_trial=16, early_stopping=None,
                              initialized=False)
        ckpt.save(path)
        fresh = make_tuner("random", dense_task, seed=1, batch_size=8)
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)

    @pytest.mark.parametrize("arm", ["bted", "bted+bao"])
    @pytest.mark.parametrize("initialized", [False, True])
    def test_checkpoint_carrying_ted_method_resumes(
        self, tmp_path, dense_task, arm, initialized
    ):
        # BTED checkpoints once pickled a ``ted_method`` attribute; the
        # resumed tuner takes it back but nothing reads it any more
        kwargs = ARM_KWARGS[arm]
        n_trial = 20
        baseline = make_tuner(arm, dense_task, seed=5, **kwargs).tune(
            n_trial=n_trial, early_stopping=None
        )
        path = tmp_path / "old.ckpt"
        tuner = make_tuner(arm, dense_task, seed=5, **kwargs)
        if initialized:
            _crash_after(tuner, n_batches=1, path=path, n_trial=n_trial)
        else:
            tuner.snapshot(
                n_trial=n_trial, early_stopping=None, initialized=False
            ).save(path)
        _add_tuner_state(path, ted_method="exact")
        assert TuningCheckpoint.load(path).initialized is initialized

        fresh = make_tuner(arm, dense_task, seed=5, **kwargs)
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)
        assert resumed.best_index == baseline.best_index
        assert resumed.best_gflops == baseline.best_gflops

    @pytest.mark.parametrize("refit", ["full", "incremental"])
    @pytest.mark.parametrize("batches", [0, 1, 4])
    def test_checkpoint_carrying_ensemble_knobs_resumes(
        self, tmp_path, dense_task, refit, batches
    ):
        # BAO checkpoints once pickled ``fit_jobs`` and a stored
        # ``share_bin_edges`` flag on the ensemble (true only for
        # incremental refits); both are ignored on resume.  ``batches``
        # measured batches precede the checkpoint: none, the initial
        # batch, or enough for refits on a fitted ensemble
        kwargs = dict(ARM_KWARGS["bted+bao"], refit=refit)
        n_trial = 20
        baseline = make_tuner("bted+bao", dense_task, seed=5, **kwargs).tune(
            n_trial=n_trial, early_stopping=None
        )
        path = tmp_path / "old.ckpt"
        tuner = make_tuner("bted+bao", dense_task, seed=5, **kwargs)
        if batches:
            _crash_after(tuner, n_batches=batches, path=path, n_trial=n_trial)
        else:
            tuner.snapshot(
                n_trial=n_trial, early_stopping=None, initialized=False
            ).save(path)
        _as_old_ensemble(path, share_bin_edges=refit == "incremental")
        assert TuningCheckpoint.load(path).initialized is (batches > 0)

        fresh = make_tuner("bted+bao", dense_task, seed=5, **kwargs)
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)
        assert resumed.best_index == baseline.best_index
        assert resumed.best_gflops == baseline.best_gflops

    @pytest.mark.parametrize("refit", ["full", "incremental"])
    @pytest.mark.parametrize("batches", [0, 1, 5])
    def test_checkpoint_fit_member_by_member_resumes(
        self, tmp_path, dense_task, monkeypatch, refit, batches
    ):
        # a checkpoint whose BAO ensemble was fit one member at a time
        # (the loop lockstep boosting replaced) resumes bit-identically
        # under lockstep fits.  ``batches``: none, the initial batch, or
        # the initial batch and four BAO batches precede the checkpoint
        kwargs = dict(ARM_KWARGS["bted+bao"], refit=refit)
        n_trial = 20
        baseline = make_tuner("bted+bao", dense_task, seed=5, **kwargs).tune(
            n_trial=n_trial, early_stopping=None
        )
        path = tmp_path / "member-by-member.ckpt"
        monkeypatch.setattr(BootstrapEnsemble, "fit", ensemble_oracle.fit)
        tuner = make_tuner("bted+bao", dense_task, seed=5, **kwargs)
        if batches:
            _crash_after(tuner, n_batches=batches, path=path, n_trial=n_trial)
        else:
            tuner.snapshot(
                n_trial=n_trial, early_stopping=None, initialized=False
            ).save(path)
        monkeypatch.undo()
        ckpt = TuningCheckpoint.load(path)
        assert ckpt.initialized is (batches > 0)
        ensemble = pickle.loads(ckpt.payload)["tuner_state"]["bao"]._ensemble
        assert ensemble.is_fitted is (batches > 1)

        fresh = make_tuner("bted+bao", dense_task, seed=5, **kwargs)
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)
        assert resumed.best_index == baseline.best_index
        assert resumed.best_gflops == baseline.best_gflops

    def test_same_seed_runs_write_identical_checkpoints(
        self, tmp_path, dense_task
    ):
        paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for path in paths:
            make_tuner("bted", dense_task, seed=5, **ARM_KWARGS["bted"]).tune(
                n_trial=20, early_stopping=None, checkpoint=path
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("batches", [0, 1, 3])
    def test_checkpoint_with_whole_feature_buffer_resumes(
        self, tmp_path, dense_task, monkeypatch, batches
    ):
        # checkpoints once pickled the feature cache's whole buffer,
        # uninitialised tail included; they resume bit-identically
        kwargs = ARM_KWARGS["bted+bao"]
        n_trial = 20
        baseline = make_tuner("bted+bao", dense_task, seed=5, **kwargs).tune(
            n_trial=n_trial, early_stopping=None
        )
        path = tmp_path / "whole-buffer.ckpt"
        monkeypatch.delattr(FeatureCache, "__getstate__")
        tuner = make_tuner("bted+bao", dense_task, seed=5, **kwargs)
        if batches:
            _crash_after(tuner, n_batches=batches, path=path, n_trial=n_trial)
        else:
            tuner.snapshot(
                n_trial=n_trial, early_stopping=None, initialized=False
            ).save(path)
        monkeypatch.undo()
        cache = pickle.loads(
            TuningCheckpoint.load(path).payload
        )["tuner_state"]["_features"]
        assert len(cache._buf) == 64 > len(cache)

        fresh = make_tuner("bted+bao", dense_task, seed=5, **kwargs)
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)
        assert resumed.best_index == baseline.best_index
        assert resumed.best_gflops == baseline.best_gflops

    def test_resume_continues_early_stopper_state(self, tmp_path, dense_task):
        window = 12
        baseline = make_tuner("random", dense_task, seed=5, batch_size=4).tune(
            n_trial=64, early_stopping=window
        )
        path = tmp_path / "stop.ckpt"
        crashed = make_tuner("random", dense_task, seed=5, batch_size=4)
        _crash_after(
            crashed, n_batches=2, path=path, n_trial=64,
            early_stopping=window,
        )
        fresh = make_tuner("random", dense_task, seed=5, batch_size=4)
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)
        assert resumed.num_measurements == baseline.num_measurements

    def test_resume_emits_event_and_keeps_counters(
        self, tmp_path, dense_task
    ):
        path = tmp_path / "ev.ckpt"
        crashed = make_tuner("random", dense_task, seed=5, batch_size=8)
        _crash_after(crashed, n_batches=1, path=path, n_trial=24)
        events = []
        fresh = make_tuner("random", dense_task, seed=5, batch_size=8)
        fresh.resume(path, on_event=[lambda t, e: events.append(e)])
        resumed_events = [e for e in events if isinstance(e, TuningResumed)]
        assert len(resumed_events) == 1
        assert resumed_events[0].restored_records == 8
        # counters restored from the checkpoint keep climbing
        assert fresh.event_counts["batch_proposed"] >= 2

    def test_resume_with_faults_replays_remaining_schedule(
        self, tmp_path, dense_task
    ):
        faults = FaultModel(rate=0.3, seed=7)
        retry = RetryPolicy(max_retries=1)

        def executor_spec(measurer):
            return build_executor(
                measurer, None, faults=faults, retry=retry
            )

        baseline = make_tuner(
            "random", dense_task, seed=5, batch_size=8,
            executor=executor_spec,
        ).tune(n_trial=32, early_stopping=None)
        assert any(r.error for r in baseline.records), "want injected errors"

        path = tmp_path / "faults.ckpt"
        crashed = make_tuner(
            "random", dense_task, seed=5, batch_size=8,
            executor=executor_spec,
        )
        _crash_after(crashed, n_batches=2, path=path, n_trial=32)
        fresh = make_tuner(
            "random", dense_task, seed=5, batch_size=8,
            executor=executor_spec,
        )
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)

    def test_resume_of_finished_run_measures_nothing_more(
        self, tmp_path, dense_task
    ):
        path = tmp_path / "done.ckpt"
        tuner = make_tuner("random", dense_task, seed=5, batch_size=8)
        done = tuner.tune(n_trial=16, early_stopping=None, checkpoint=path)
        # the final checkpoint precedes the last batch; resuming replays
        # only that remainder and lands on the same final state
        fresh = make_tuner("random", dense_task, seed=5, batch_size=8)
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(done)

    def test_checkpoint_every_n_batches(self, tmp_path, dense_task):
        saves = []
        tuner = make_tuner("random", dense_task, seed=5, batch_size=4)
        tuner.tune(
            n_trial=32,
            early_stopping=None,
            checkpoint=CheckpointPolicy(path=tmp_path / "n.ckpt", every=2),
            on_event=[
                lambda t, e: saves.append(e)
                if isinstance(e, CheckpointSaved) else None
            ],
        )
        # step-0 snapshot + one every second measured batch (8 batches)
        steps = [e.step for e in saves]
        assert steps[0] == 0
        assert steps[1:] == [8, 16, 24]

    def test_retry_exhaustion_never_raises(self, dense_task):
        # graceful degradation: even rate ~0.6 with zero retries must
        # complete the loop and record failures as error records
        def executor_spec(measurer):
            return build_executor(
                measurer, None,
                faults=FaultModel(rate=0.6, seed=3),
                retry=RetryPolicy(max_retries=0),
            )

        tuner = make_tuner(
            "random", dense_task, seed=5, batch_size=8,
            executor=executor_spec,
        )
        result = tuner.tune(n_trial=32, early_stopping=None)
        assert result.num_measurements == 32
        failed = [r for r in result.records if r.error]
        assert failed
        assert tuner.event_counts.get("measurement_failed") == len(failed)
