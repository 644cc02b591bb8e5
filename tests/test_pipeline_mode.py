"""Speculative tuning conformance: speculation must be invisible.

A tuner handed an ``executor=`` proposes batch ``k+1`` on a worker
thread, on the live tuner, while batch ``k`` is being measured; it
validates the predicted results against the real ones and restores the
pre-dispatch snapshot on any mismatch.  The contract
(``docs/PERFORMANCE.md``): records, incumbent, and event stream —
modulo the ``speculation_resolved`` marker — are bit-identical to the
serial loop for every registry arm, across a SIGKILL-style crash at
*any* checkpointed batch, and composed with ``refit="incremental"``.
Here the executor is a plain :class:`SerialExecutor` factory: handing
one over is what switches speculation on.
"""

import io
import logging
import pickle
import sys
import threading
import time

import pytest

from repro.core import INCREMENTAL_REFIT_ARMS, TUNER_REGISTRY, make_tuner
from repro.core.bao import BaoOptimizer
from repro.core.checkpoint import CheckpointPolicy, TuningCheckpoint
from repro.core.events import (
    BatchMeasured,
    CheckpointSaved,
    EventLog,
    SpeculationResolved,
)
from repro.core.tuner import Tuner
from repro.hardware.executor import SerialExecutor, build_executor
from repro.hardware.faults import FaultModel, RetryPolicy
from repro.hardware.measure import SimulatedTask
from repro.learning.gbt import GradientBoostedTrees
from repro.nn.workloads import DenseWorkload

# module-level task: tuners only read from it, so sharing is safe and
# keeps the parametrized matrix cheap
TASK = SimulatedTask(
    DenseWorkload(batch=1, in_features=64, out_features=48), seed=7
)

#: every registry arm, with small-batch parameters so the speculating
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
    """Event kinds with the speculation-only marker filtered out."""
    return [
        e.kind for e in log.events if e.kind != "speculation_resolved"
    ]


def _kind_steps(log):
    """``(kind, step)`` per event, the speculation-only marker filtered out."""
    return [
        (e.kind, e.step) for e in log.events
        if e.kind != "speculation_resolved"
    ]


def _make(arm, *, speculate, **extra):
    """A tuner that speculates iff it is handed an executor."""
    executor = SerialExecutor if speculate else None
    return make_tuner(
        arm, TASK, seed=5, executor=executor, **ARM_KWARGS[arm], **extra
    )


def _run(arm, *, speculate, refit=None, n_trial=N_TRIAL):
    extra = {} if refit is None else {"refit": refit}
    log = EventLog()
    tuner = _make(arm, speculate=speculate, **extra)
    result = tuner.tune(n_trial=n_trial, early_stopping=None, on_event=[log])
    return result, log


class TestPipelinedEqualsSerial:
    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    def test_records_events_and_incumbent_match(self, arm):
        serial, slog = _run(arm, speculate=False)
        piped, plog = _run(arm, speculate=True)
        assert _trace(piped) == _trace(serial)
        assert piped.best_index == serial.best_index
        assert piped.best_gflops == serial.best_gflops
        assert _kinds(plog) == _kinds(slog)
        assert _kind_steps(plog) == _kind_steps(slog)

    def test_speculations_happen_and_are_adopted(self):
        _, plog = _run("bted+bao", speculate=True)
        resolved = plog.of_type(SpeculationResolved)
        assert resolved, "small batches should leave room to speculate"
        # ordinal-deterministic measurement makes every prediction exact
        assert all(e.adopted for e in resolved)

    @pytest.mark.parametrize("arm", sorted(INCREMENTAL_REFIT_ARMS))
    def test_incremental_refit_is_pipeline_invariant(self, arm):
        serial, _ = _run(arm, speculate=False, refit="incremental")
        piped, _ = _run(arm, speculate=True, refit="incremental")
        assert _trace(piped) == _trace(serial)
        assert piped.best_index == serial.best_index


def _checkpoint_payloads(arm, path, *, speculate):
    """``(step, payload)`` of every checkpoint one run writes."""
    payloads = []

    def grab(tuner_, event):
        if isinstance(event, CheckpointSaved):
            ckpt = TuningCheckpoint.load(event.path)
            payloads.append((event.step, pickle.loads(ckpt.payload)))

    _make(arm, speculate=speculate).tune(
        n_trial=N_TRIAL, early_stopping=None,
        checkpoint=CheckpointPolicy(path=path, every=1),
        on_event=[grab],
    )
    return payloads


class TestCheckpointPayload:
    """Only speculative checkpoints carry the ``pending`` proposal."""

    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    def test_pending_key_marks_speculative_checkpoints(self, arm, tmp_path):
        serial = _checkpoint_payloads(
            arm, tmp_path / "serial.ckpt", speculate=False
        )
        assert len(serial) >= 2
        assert not any("pending" in payload for _, payload in serial)
        piped = _checkpoint_payloads(
            arm, tmp_path / "piped.ckpt", speculate=True
        )
        assert [step for step, _ in piped] == [step for step, _ in serial]
        assert all(
            "pending" in payload for step, payload in piped if step > 0
        )


class _Crash(Exception):
    pass


def _crash_after(tuner, n_checkpoints, path, *, n_trial=N_TRIAL):
    """Speculating ``tune`` aborted after ``n_checkpoints`` batch saves."""
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
        )


class TestPipelinedCrashResume:
    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    def test_crash_at_every_batch_resumes_bit_identically(
        self, arm, tmp_path
    ):
        """SIGKILL-equivalent at each checkpoint; resume == serial run.

        The resume consumes the checkpoint's pending speculative
        proposal and continues on a tuner without an executor, so
        serially; the baseline is the *serial* run, so this also pins
        cross-mode bit-identity.
        """
        baseline, blog = _run(arm, speculate=False)
        batches = len(blog.of_type(BatchMeasured))
        assert batches >= 2, "scenario too small to crash mid-run"
        # the final batch is never followed by a checkpoint (the run is
        # complete), so there are batches - 1 distinct crash points
        for crash_at in range(1, batches):
            path = tmp_path / f"{arm.replace('+', '_')}-{crash_at}.ckpt"
            _crash_after(_make(arm, speculate=True), crash_at, path)
            fresh = _make(arm, speculate=False)
            resumed = fresh.resume(path)
            assert _trace(resumed) == _trace(baseline), (
                f"{arm}: resume after checkpoint {crash_at}/{batches} "
                "diverged from the serial baseline"
            )
            assert resumed.best_index == baseline.best_index
            assert resumed.best_gflops == baseline.best_gflops

    def test_crash_resume_with_incremental_refit(self, tmp_path):
        arm = "bted+bao"
        baseline, _ = _run(arm, speculate=False, refit="incremental")
        path = tmp_path / "inc.ckpt"
        crashed = _make(arm, speculate=True, refit="incremental")
        _crash_after(crashed, 2, path)
        fresh = _make(arm, speculate=False, refit="incremental")
        resumed = fresh.resume(path)
        assert _trace(resumed) == _trace(baseline)
        assert resumed.best_index == baseline.best_index


# ----------------------------------------------------------------------
# the in-place contract


def _never_speculate(monkeypatch):
    """Make every tuner measure serially (the unpicklable-state path)."""
    monkeypatch.setattr(Tuner, "_rollback_snapshot", lambda self: None)


def _state(tuner):
    """The resumable tuner state.

    Pickled without a memo, so the bytes depend on values only, not on
    which equal objects happen to be one object (a restored snapshot
    shares more than a state grown in place).  The feature cache
    counts by its rows: the unused tail of its buffer is uninitialized
    memory.
    """
    state = tuner._resumable_state()
    features = state.pop("_features")
    state["_features"] = (features.indices, features.matrix.tobytes())
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(state)
    return buffer.getvalue()


def _speculate_threads():
    return [t.name for t in threading.enumerate() if "-speculate" in t.name]


def _on_measured(seen):
    """A sink adding the speculation threads alive at each measured batch
    to ``seen``."""

    def sink(_tuner, event):
        if event.kind == "batch_measured":
            seen.extend(_speculate_threads())

    return sink


def _faulty(measurer):
    """Faults that outlast every retry, so predictions miss."""
    return build_executor(
        measurer, None,
        faults=FaultModel(rate=0.5, seed=3),
        retry=RetryPolicy(max_retries=0),
    )


class _Board(SerialExecutor):
    """A board with a 2 ms round-trip per configuration."""

    def measure_batch(self, config_indices):
        time.sleep(0.002 * len(config_indices))
        return super().measure_batch(config_indices)


class _Unplugged(SerialExecutor):
    """A board that is pulled out during its third batch."""

    def __init__(self, measurer):
        super().__init__(measurer)
        self.batches = 0

    def measure_batch(self, config_indices):
        self.batches += 1
        if self.batches == 3:
            time.sleep(0.05)  # the speculation is under way by now
            raise ConnectionError("board unplugged")
        return super().measure_batch(config_indices)


class TestInPlaceSpeculation:
    def test_adopted_speculations_keep_object_identity(self):
        tuner = _make("bted+bao", speculate=True)
        bao, features = tuner.bao, tuner._features
        log = EventLog()
        tuner.tune(n_trial=N_TRIAL, early_stopping=None, on_event=[log])
        resolved = log.of_type(SpeculationResolved)
        assert resolved and all(e.adopted for e in resolved)
        assert tuner.bao is bao
        assert tuner._features is features

    def test_id_keyed_propose_counter_counts_every_proposal(
        self, monkeypatch
    ):
        """A counter keyed on ``id()`` sees the speculated proposals.

        It only knows optimizers built through ``__init__``, so an
        unpickled clone would raise ``KeyError`` inside the speculation.
        """
        counts = {}
        built = BaoOptimizer.__init__

        def init(optimizer, *args, **kwargs):
            counts[id(optimizer)] = 0
            built(optimizer, *args, **kwargs)

        def counting(name):
            original = getattr(BaoOptimizer, name)

            def wrapper(optimizer, *args, **kwargs):
                counts[id(optimizer)] += 1
                return original(optimizer, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(BaoOptimizer, "__init__", init)
        for name in ("propose", "propose_batch"):
            monkeypatch.setattr(BaoOptimizer, name, counting(name))
        _run("bted+bao", speculate=False)
        serial = list(counts.values())
        counts.clear()
        _, log = _run("bted+bao", speculate=True)
        resolved = log.of_type(SpeculationResolved)
        assert resolved and all(e.adopted for e in resolved)
        assert list(counts.values()) == serial
        assert serial[0] > 0

    @pytest.mark.parametrize("arm", ["bted", "bted+bao", "autotvm"])
    def test_mismatching_fault_executor_rolls_back_to_serial_state(
        self, arm, monkeypatch
    ):
        log = EventLog()
        tuner = make_tuner(
            arm, TASK, seed=5, executor=_faulty, **ARM_KWARGS[arm]
        )
        result = tuner.tune(
            n_trial=N_TRIAL, early_stopping=None, on_event=[log]
        )
        assert any(not e.adopted for e in log.of_type(SpeculationResolved))
        _never_speculate(monkeypatch)
        serial_log = EventLog()
        serial = make_tuner(
            arm, TASK, seed=5, executor=_faulty, **ARM_KWARGS[arm]
        )
        expected = serial.tune(
            n_trial=N_TRIAL, early_stopping=None, on_event=[serial_log]
        )
        assert not serial_log.of_type(SpeculationResolved)
        assert _trace(result) == _trace(expected)
        assert _kind_steps(log) == _kind_steps(serial_log)
        assert _state(tuner) == _state(serial)

    @pytest.mark.parametrize("arm", ["bted", "bted+bao"])
    def test_executor_raising_mid_batch_rolls_back_to_serial_state(
        self, arm, monkeypatch
    ):
        # a budget the third batch does not fill, so it has a speculation
        n_trial = 2 * N_TRIAL
        tuner = make_tuner(
            arm, TASK, seed=5, executor=_Unplugged, **ARM_KWARGS[arm]
        )
        log = EventLog()
        with pytest.raises(ConnectionError):
            tuner.tune(n_trial=n_trial, early_stopping=None, on_event=[log])
        assert len(log.of_type(SpeculationResolved)) == 2
        assert not _speculate_threads()
        _never_speculate(monkeypatch)
        serial = make_tuner(
            arm, TASK, seed=5, executor=_Unplugged, **ARM_KWARGS[arm]
        )
        with pytest.raises(ConnectionError):
            serial.tune(n_trial=n_trial, early_stopping=None)
        assert _state(tuner) == _state(serial)

    @pytest.mark.parametrize("arm", ["bted", "bted+bao+droplet"])
    def test_short_switch_interval_keeps_serial_records(self, arm):
        """Thread switches every microsecond leave the records serial."""
        serial, slog = _run(arm, speculate=False)
        log = EventLog()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = make_tuner(
                arm, TASK, seed=5, executor=_Board, **ARM_KWARGS[arm]
            ).tune(n_trial=N_TRIAL, early_stopping=None, on_event=[log])
        finally:
            sys.setswitchinterval(interval)
        assert log.of_type(SpeculationResolved)
        assert _trace(result) == _trace(serial)
        assert _kind_steps(log) == _kind_steps(slog)

    @pytest.mark.parametrize(
        "speculate,n_trial",
        [(False, N_TRIAL), (True, ARM_KWARGS["bted+bao"]["init_size"])],
        ids=["no-executor", "first-batch-fills-budget"],
    )
    def test_no_thread_and_no_event_without_a_dispatch(
        self, speculate, n_trial
    ):
        seen = []
        log = EventLog()
        _make("bted+bao", speculate=speculate).tune(
            n_trial=n_trial, early_stopping=None,
            on_event=[log, _on_measured(seen)],
        )
        assert not seen
        assert not log.of_type(SpeculationResolved)

    def test_thread_runs_while_speculating(self):
        # the positive control of the test above
        seen = []
        _make("bted+bao", speculate=True).tune(
            n_trial=N_TRIAL, early_stopping=None,
            on_event=[_on_measured(seen)],
        )
        assert seen and all(name.startswith("bted+bao-") for name in seen)
        assert not _speculate_threads()

    def test_speculating_resume_of_a_pending_checkpoint(self, tmp_path):
        baseline, _ = _run("bted+bao", speculate=False)
        path = tmp_path / "pending.ckpt"
        _crash_after(_make("bted+bao", speculate=True), 2, path)
        payload = pickle.loads(TuningCheckpoint.load(path).payload)
        assert "pending" in payload
        log = EventLog()
        resumed = _make("bted+bao", speculate=True).resume(
            path, on_event=[log]
        )
        assert _trace(resumed) == _trace(baseline)
        assert log.of_type(SpeculationResolved)

    def test_unpicklable_state_measures_without_speculation(self, caplog):
        def factory():
            return GradientBoostedTrees(n_estimators=8, max_depth=3, seed=0)

        def run(speculate):
            log = EventLog()
            tuner = _make(
                "bted+bao", speculate=speculate, model_factory=factory
            )
            result = tuner.tune(
                n_trial=N_TRIAL, early_stopping=None, on_event=[log]
            )
            return result, log

        serial, _ = run(False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            result, log = run(True)
        assert _trace(result) == _trace(serial)
        assert not log.of_type(SpeculationResolved)
        assert "does not pickle" in caplog.text
