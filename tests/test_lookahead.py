"""One-task lookahead in a compile: preparing ahead must be invisible.

A compile that runs its tasks one after another builds task *k+1*'s
tuner and proposes its first batch on task *k*'s worker thread while
task *k*'s first batch is measured
(:meth:`repro.core.Tuner.propose_initial`); task *k+1*'s run consumes
that batch first.  The contract (``docs/PERFORMANCE.md``): records,
summaries, events (modulo wall-clock fields, and speculation's own
marker when an executor makes the tuners speculate), observer metrics
and checkpoint-resume are what the same tasks give compiled one at a
time, where no task has a next one to prepare; an executor factory
runs once per task, in task order, with never two executors open; and
a task served from the tuning log or continued from a ``.done`` or
``.ckpt`` file is never prepared ahead.

A BTED arm's prepared tasks take their designs from a helper process
(:class:`repro.core.bted.DesignHelper`) when the compile may use more
than one CPU, once the helper has started; the helper must change
nothing observable, must fail over to computing in process, and must
never outlive its compile.
"""

import dataclasses
import gc
import logging
import multiprocessing
import os
import pickle
import select
import shutil
import signal
import subprocess
import sys
import threading
import types
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import TUNER_REGISTRY, bted
from repro.core.bao import BaoOptimizer
from repro.core.bted import DesignHelper, bted_select
from repro.core.checkpoint import TuningCheckpoint
from repro.core.tuner import Tuner
from repro.hardware.executor import SerialExecutor
from repro.nn import zoo
from repro.nn.graph import GraphBuilder
from repro.obs import Histogram, RunObservation, TuningObserver
from repro.pipeline.compiler import DeploymentCompiler

#: every registry arm, with budgets small enough to tune three tasks fast
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
#: event fields that hold wall-clock time
_WALL_CLOCK = ("proposal_s", "measure_s", "overlap_s")


def three_task_model():
    b = GraphBuilder("lookahead-model")
    b.input((1, 3, 16, 16))
    b.conv2d("c1", 8, padding=(1, 1))
    b.relu("r1")
    b.conv2d("c2", 12, padding=(1, 1))
    b.relu("r2")
    b.pool2d("p1")
    b.conv2d("c3", 16, padding=(1, 1))
    b.relu("r3")
    b.flatten("f")
    b.dense("fc", 10)
    return b.graph


class _Crash(Exception):
    pass


class _LoggingObserver(TuningObserver):
    """A task observer that also keeps every event it is sent."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.events = []

    def __call__(self, tuner, event):
        self.events.append(event)
        super().__call__(tuner, event)


class _LoggingObservation(RunObservation):
    def observer(self, key):
        if key not in self._observers:
            self._observers[key] = _LoggingObserver()
        return self._observers[key]


class _Board(SerialExecutor):
    """A serial executor that reports its opening and closing."""

    def __init__(self, measurer, factory):
        super().__init__(measurer)
        self.factory = factory

    def close(self):
        self.factory.open -= 1


class _CountingBoards:
    """The ``executor=`` factory: logs each task it opens a board for."""

    def __init__(self):
        self.tasks = []
        self.open = 0
        self.max_open = 0

    def __call__(self, measurer):
        self.tasks.append(measurer.task.name)
        self.open += 1
        self.max_open = max(self.max_open, self.open)
        return _Board(measurer, self)


def _events(observation):
    """Per task: every event, minus speculation's marker and wall clock."""
    out = {}
    for key in observation.keys():
        out[key] = [
            (event.kind, {
                name: value
                for name, value in dataclasses.asdict(event).items()
                if name not in _WALL_CLOCK
            })
            for event in observation.observer(key).events
            if event.kind != "speculation_resolved"
        ]
    return out


def _records(compiled):
    return {
        task_id: [
            (r.step, r.config_index, r.gflops, r.error)
            for r in result.records
        ]
        for task_id, result in compiled.tuning_results.items()
    }


def _summaries(observation):
    return {
        key: observation.observer(key).summary().deterministic_dict()
        for key in observation.keys()
    }


def _metrics(observation):
    """Counter and gauge values and histogram counts, per task."""
    return {
        key: {
            m.name: m.count if isinstance(m, Histogram) else m.value
            for m in observation.observer(key).metrics
            if m.name not in ("checkpoints_total", "resumes_total")
        }
        for key in observation.keys()
    }


def _wait_until_ready(helper):
    """Block until ``helper`` has said it is ready, so that it answers
    every design asked of it from then on."""
    assert select.select([helper._proc.stdout], [], [], 60)[0]


@pytest.fixture
def helpers(monkeypatch):
    """Every design helper a compile starts (``procs``), each ready before
    the compile goes on, and the space and asking thread of every design
    one answered (``answered``) or raised on (``raised``), and of every
    design this process computed (``computed``)."""
    log = types.SimpleNamespace(procs=[], answered=[], raised=[], computed=[])
    start, design = DesignHelper.__init__, DesignHelper.design
    in_process = bted.bted_select

    def starting(helper):
        start(helper)
        log.procs.append(helper._proc)
        if helper._proc is not None:
            _wait_until_ready(helper)

    def answering(helper, space, settings, seed):
        asked = (space.name, threading.current_thread().name)
        try:
            answer = design(helper, space, settings, seed)
        except Exception:
            log.raised.append(asked)
            raise
        if answer is not None:
            log.answered.append(asked)
        return answer

    def computing(space, *args, **kwargs):
        log.computed.append((space.name, threading.current_thread().name))
        return in_process(space, *args, **kwargs)

    monkeypatch.setattr(DesignHelper, "__init__", starting)
    monkeypatch.setattr(DesignHelper, "design", answering)
    monkeypatch.setattr(bted, "bted_select", computing)
    return log


@pytest.fixture
def two_cpus(monkeypatch):
    """Start helpers whatever the host: a one-CPU host starts none."""
    monkeypatch.setattr(DesignHelper, "pays", staticmethod(lambda: True))


def _exited(procs):
    """Every helper process has been reaped and its pipes closed."""
    return all(
        proc.returncode is not None
        and proc.stdin.closed and proc.stdout.closed
        for proc in procs
    )


@pytest.fixture
def prepared_tasks(monkeypatch):
    """The task of every tuner whose first batch was proposed ahead."""
    names = []
    original = Tuner.propose_initial

    def recording(tuner):
        names.append(tuner.task.name)
        return original(tuner)

    monkeypatch.setattr(Tuner, "propose_initial", recording)
    return names


def _resnet18_compile(executor, observation, tasks=slice(0, 3)):
    compiler = DeploymentCompiler(zoo.build_model("resnet-18"))
    compiler.tasks = compiler.tasks[tasks]
    compiled = compiler.tune(
        "bted+bao", n_trial=72, executor=executor, observation=observation,
    )
    return compiler, compiled


class TestResNet18Lookahead:
    """The benchmark's arm and budget on three ResNet-18 tasks."""

    def test_matches_the_tasks_tuned_one_at_a_time(self, helpers, two_cpus):
        alone_obs, alone = _LoggingObservation(), {}
        for i in range(3):
            _, compiled = _resnet18_compile(
                None, alone_obs, tasks=slice(i, i + 1)
            )
            alone.update(_records(compiled))
        # a one-task compile prepares nothing: each design ran here
        assert helpers.procs == []
        assert [thread for _, thread in helpers.computed] == ["MainThread"] * 3
        boards = _CountingBoards()
        for executor in (None, boards):
            del helpers.procs[:], helpers.answered[:], helpers.computed[:]
            ahead_obs = _LoggingObservation()
            compiler, ahead = _resnet18_compile(executor, ahead_obs)
            assert _records(ahead) == alone
            assert _summaries(ahead_obs) == _summaries(alone_obs)
            assert _events(ahead_obs) == _events(alone_obs)
            # task 0 computed its design on the main thread; tasks 1 and
            # 2's were asked of the helper by the worker thread of the
            # task before, and the helper exited with the compile
            spaces = [
                compiler.simulated_task(spec).space.name
                for spec in compiler.tasks
            ]
            assert helpers.computed == [(spaces[0], "MainThread")]
            assert [space for space, _ in helpers.answered] == spaces[1:]
            assert all(
                thread.startswith("bted+bao-speculate")
                for _, thread in helpers.answered
            )
            assert len(helpers.procs) == 1 and _exited(helpers.procs)
        assert boards.tasks == [
            compiler.simulated_task(spec).name for spec in compiler.tasks
        ]
        assert boards.max_open == 1 and boards.open == 0

    @pytest.mark.parametrize("executor", [None, SerialExecutor])
    def test_one_bao_optimizer_per_task_in_task_order(
        self, executor, monkeypatch
    ):
        spaces = []
        original = BaoOptimizer.__init__

        def recording(optimizer, space, *args, **kwargs):
            spaces.append(space.name)
            original(optimizer, space, *args, **kwargs)

        monkeypatch.setattr(BaoOptimizer, "__init__", recording)
        compiler, _ = _resnet18_compile(executor, None)
        assert spaces == [
            compiler.simulated_task(spec).space.name
            for spec in compiler.tasks
        ]


def _small_compile(
    arm, executor, tasks=slice(None), observation=None, **tune_kwargs
):
    compiler = DeploymentCompiler(three_task_model(), env_seed=3)
    compiler.tasks = compiler.tasks[tasks]
    observation = RunObservation() if observation is None else observation
    compiled = compiler.tune(
        arm, n_trial=N_TRIAL, early_stopping=None, trial_seed=2,
        tuner_kwargs=ARM_KWARGS[arm], executor=executor,
        observation=observation, **tune_kwargs,
    )
    return compiled, observation


def _tuned_one_at_a_time(arm):
    """Records and observation of the three tasks, each compiled alone."""
    records, observation = {}, _LoggingObservation()
    for i in range(3):
        compiled, _ = _small_compile(
            arm, None, tasks=slice(i, i + 1), observation=observation
        )
        records.update(_records(compiled))
    return records, observation


def test_every_registry_arm_is_covered():
    assert sorted(ARM_KWARGS) == sorted(TUNER_REGISTRY)


@pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
def test_every_arm_matches_its_tasks_tuned_one_at_a_time(
    arm, prepared_tasks
):
    alone, alone_obs = _tuned_one_at_a_time(arm)
    assert prepared_tasks == []
    for executor in (None, SerialExecutor):
        del prepared_tasks[:]
        ahead, ahead_obs = _small_compile(arm, executor)
        assert len(prepared_tasks) == 2
        assert _records(ahead) == alone
        assert _summaries(ahead_obs) == _summaries(alone_obs)


@pytest.mark.parametrize("executor", [None, SerialExecutor])
class TestCrashResume:
    ARM = "bted+bao"

    def test_crash_at_every_batch_boundary_resumes_exactly(
        self, executor, tmp_path, monkeypatch
    ):
        saves = []
        original = Tuner._save_checkpoint

        def counting(tuner, *args, **kwargs):
            saves.append(tuner.task.name)
            original(tuner, *args, **kwargs)

        monkeypatch.setattr(Tuner, "_save_checkpoint", counting)
        reference, ref_obs = _small_compile(
            self.ARM, executor, checkpoint_dir=tmp_path / "ref"
        )
        # three tasks, each with a step-0 snapshot and batch snapshots
        assert len(set(saves)) == 3 and len(saves) > 6
        for crash_at in range(len(saves)):
            ckpt_dir = tmp_path / f"crash-{crash_at}"
            count = [0]

            def crashing(tuner, *args, **kwargs):
                original(tuner, *args, **kwargs)
                count[0] += 1
                if count[0] > crash_at:
                    raise _Crash

            monkeypatch.setattr(Tuner, "_save_checkpoint", crashing)
            with pytest.raises(_Crash):
                _small_compile(self.ARM, executor, checkpoint_dir=ckpt_dir)
            monkeypatch.setattr(Tuner, "_save_checkpoint", original)
            resumed, obs = _small_compile(
                self.ARM, executor, checkpoint_dir=ckpt_dir, resume=True
            )
            assert _records(resumed) == _records(reference), crash_at
            assert _summaries(obs) == _summaries(ref_obs), crash_at
            assert _metrics(obs) == _metrics(ref_obs), crash_at

    def test_prepared_step0_snapshot_carries_the_first_batch(
        self, executor, tmp_path, monkeypatch
    ):
        step0 = []
        original = Tuner._save_checkpoint

        def grab(tuner, policy, records, *args, **kwargs):
            original(tuner, policy, records, *args, **kwargs)
            if not records:
                ckpt = TuningCheckpoint.load(policy.path)
                step0.append(
                    (ckpt.initialized,
                     pickle.loads(ckpt.payload).get("pending"))
                )

        monkeypatch.setattr(Tuner, "_save_checkpoint", grab)
        _small_compile(self.ARM, executor, checkpoint_dir=tmp_path)
        assert len(step0) == 3
        assert step0[0] == (False, None)  # task 0 proposes its own batch
        for initialized, pending in step0[1:]:
            assert initialized
            assert len(pending["batch"]) == ARM_KWARGS[self.ARM]["init_size"]
            assert pending["exhausted"] is False


class TestNeverPreparedAhead:
    ARM = "bted+bao"

    def _reference(self, tmp_path):
        reference, _ = _small_compile(
            self.ARM, SerialExecutor, checkpoint_dir=tmp_path
        )
        compiler = DeploymentCompiler(three_task_model(), env_seed=3)
        names = [compiler.simulated_task(s).name for s in compiler.tasks]
        return reference, names

    def test_a_task_with_a_done_file(self, tmp_path, prepared_tasks):
        reference, names = self._reference(tmp_path)
        del prepared_tasks[:]
        # task 0 is tuned again; task 1 is restored from its .done file
        for path in tmp_path.glob("task-000.*"):
            path.unlink()
        resumed, _ = _small_compile(
            self.ARM, SerialExecutor, checkpoint_dir=tmp_path, resume=True
        )
        assert prepared_tasks == []
        assert _records(resumed) == _records(reference)

    def test_a_task_resumed_from_a_checkpoint(
        self, tmp_path, prepared_tasks
    ):
        reference, names = self._reference(tmp_path)
        del prepared_tasks[:]
        # task 0 is tuned again; task 1 resumes from its checkpoint, and
        # its own first dispatch prepares task 2
        for path in tmp_path.glob("task-000.*"):
            path.unlink()
        (tmp_path / "task-001.done").unlink()
        (tmp_path / "task-002.done").unlink()
        (tmp_path / "task-002.ckpt").unlink()
        resumed, _ = _small_compile(
            self.ARM, SerialExecutor, checkpoint_dir=tmp_path, resume=True
        )
        assert prepared_tasks == [names[2]]
        assert _records(resumed) == _records(reference)

    def test_a_task_served_from_the_tuning_log(
        self, tmp_path, prepared_tasks
    ):
        reference, names = self._reference(tmp_path / "ref")
        # a log that holds task 1 alone
        donor = DeploymentCompiler(three_task_model(), env_seed=3)
        donor.tasks = donor.tasks[1:2]
        donor.tune(
            self.ARM, n_trial=N_TRIAL, early_stopping=None, trial_seed=2,
            tuner_kwargs=ARM_KWARGS[self.ARM], tlog=tmp_path / "tlog",
        )
        del prepared_tasks[:]
        compiled, _ = _small_compile(
            self.ARM, SerialExecutor, tlog=tmp_path / "tlog"
        )
        assert compiled.tlog_status == {0: "cold", 1: "hit", 2: "cold"}
        assert prepared_tasks == []
        assert _records(compiled)[0] == _records(reference)[0]
        assert _records(compiled)[2] == _records(reference)[2]


@pytest.mark.parametrize("arm", ["autotvm", "bted+bao"])
def test_warm_started_tasks_match(arm, tmp_path, prepared_tasks):
    # a log holding task 1 warm-starts every task; the prepared tasks
    # queue their WarmStarted events ahead, and tune delivers them
    donor = DeploymentCompiler(three_task_model(), env_seed=3)
    donor.tasks = donor.tasks[1:2]
    donor.tune(
        arm, n_trial=N_TRIAL, early_stopping=None, trial_seed=2,
        tuner_kwargs=ARM_KWARGS[arm], tlog=tmp_path / "tlog",
    )

    def compile_(executor, tasks, copy, observation):
        # each compile contributes back, so each gets its own copy
        tlog = tmp_path / f"tlog-{copy}"
        shutil.copytree(tmp_path / "tlog", tlog)
        compiler = DeploymentCompiler(three_task_model(), env_seed=3)
        compiler.tasks = compiler.tasks[tasks]
        return compiler.tune(
            arm, n_trial=N_TRIAL, early_stopping=None, trial_seed=2,
            tuner_kwargs=ARM_KWARGS[arm], executor=executor,
            observation=observation, tlog=tlog,
            warm_start=True, serve_hits=False,
        )

    alone_obs, alone = _LoggingObservation(), {}
    for i in range(3):
        alone.update(_records(
            compile_(None, slice(i, i + 1), f"alone-{i}", alone_obs)
        ))
    assert prepared_tasks == []
    assert all(
        events[0][0] == "warm_started"
        for events in _events(alone_obs).values()
    )
    for executor in (None, SerialExecutor):
        del prepared_tasks[:]
        ahead_obs = _LoggingObservation()
        ahead = compile_(
            executor, slice(None), f"ahead-{executor is not None}",
            ahead_obs,
        )
        assert set(ahead.tlog_status.values()) == {"warm"}
        assert len(prepared_tasks) == 2
        assert _records(ahead) == alone
        assert _summaries(ahead_obs) == _summaries(alone_obs)
        assert _events(ahead_obs) == _events(alone_obs)


@pytest.mark.parametrize("fleet", [None, "gtx1080ti,titanv"])
@pytest.mark.parametrize("executor", [None, SerialExecutor])
def test_a_finished_compile_holds_no_cycle(executor, fleet):
    # the compile's closures must not reference each other in a loop:
    # a cycle keeps the compiler and every task environment alive until
    # the cyclic collector runs, which a long-lived service feels
    gc.collect()
    gc.disable()
    try:
        compiler = DeploymentCompiler(three_task_model(), env_seed=3)
        alive = weakref.ref(compiler)
        compiler.tune(
            "random", n_trial=N_TRIAL, early_stopping=None,
            tuner_kwargs=ARM_KWARGS["random"], executor=executor,
            fleet=fleet,
        )
        del compiler
        assert alive() is None
    finally:
        gc.enable()


def _doomed_compile():
    """The three-task compile, task 1's space broken so that its BTED
    design raises (the parent builds its tuner first, untouched)."""
    compiler = DeploymentCompiler(three_task_model(), env_seed=3)
    space = compiler.simulated_task(compiler.tasks[1]).space
    widest = max(range(len(space.knobs)), key=lambda k: len(space.knobs[k]))
    space._feature_tables[widest] = space._feature_tables[widest][:1]
    return compiler, space.name


def _raised_by(compiler, executor):
    finished = []
    with pytest.raises(Exception) as info:
        compiler.tune(
            "bted+bao", n_trial=N_TRIAL, early_stopping=None,
            tuner_kwargs=ARM_KWARGS["bted+bao"], executor=executor,
            progress=lambda spec, result: finished.append(spec.task_id),
        )
    assert finished == [0]
    return type(info.value), str(info.value)


def test_a_failed_preparation_is_that_tasks_failure(
    monkeypatch, helpers, two_cpus
):
    # the in-process design's error, on a compile that starts no helper
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(DesignHelper, "pays", staticmethod(lambda: False))
        in_process = _raised_by(_doomed_compile()[0], None)
    assert helpers.procs == []
    assert in_process[0] is IndexError
    for executor in (None, SerialExecutor):
        del helpers.procs[:], helpers.raised[:]
        compiler, doomed = _doomed_compile()
        # the helper raised it on task 0's worker thread, and the
        # parent raised the same error
        assert _raised_by(compiler, executor) == in_process
        assert [space for space, _ in helpers.raised] == [doomed]
        assert helpers.raised[0][1].startswith("bted+bao-speculate")
        assert len(helpers.procs) == 1 and _exited(helpers.procs)
    assert not [
        t for t in threading.enumerate() if "-speculate" in t.name
    ]


class TestDesignHelper:
    """When a compile starts a helper, and what it may never change."""

    ARM = "bted+bao"

    def test_designs_equal_in_process_ones(self, helpers):
        compiler = DeploymentCompiler(three_task_model(), env_seed=3)
        settings = dict(m=6, mu=0.1, batch_candidates=24, num_batches=2)
        helper = DesignHelper()
        try:
            for spec in compiler.tasks:
                space = compiler.simulated_task(spec).space
                assert helper.design(space, settings, 5) == bted_select(
                    space, seed=5, **settings
                )
            # the helper raises what the design raises
            with pytest.raises(ValueError, match="batch_candidates"):
                helper.design(space, dict(m=6, batch_candidates=2), 5)
        finally:
            helper.close()
        assert _exited(helpers.procs)
        assert helper.design(space, settings, 5) is None  # closed

    def test_a_design_asked_while_it_starts_is_computed_here(self, caplog):
        # no waiting for a helper that is still starting, and no warning
        compiler = DeploymentCompiler(three_task_model(), env_seed=3)
        space = compiler.simulated_task(compiler.tasks[0]).space
        settings = dict(m=6, batch_candidates=24)
        helper = DesignHelper()
        try:
            helper._proc.send_signal(signal.SIGSTOP)  # before it can start
            with caplog.at_level(logging.WARNING, logger="repro.core.bted"):
                assert helper.design(space, settings, 5) is None
            assert not caplog.records and helper._proc.poll() is None
            helper._proc.send_signal(signal.SIGCONT)
            _wait_until_ready(helper)
            assert helper.design(space, settings, 5) == bted_select(
                space, seed=5, **settings
            )
        finally:
            helper.close()

    @pytest.mark.parametrize("when", ["starting", "ready"])
    def test_it_exits_when_its_compile_is_gone(self, when):
        # all a SIGKILLed compile leaves the helper is two closed pipes
        proc = DesignHelper()._proc
        if when == "ready":
            assert select.select([proc.stdout], [], [], 60)[0]
        proc.stdin.close()
        proc.stdout.close()
        assert proc.wait(timeout=30) == 0

    @pytest.mark.parametrize("case", [
        "one task", "fleet", "non-BTED arm", "served from the log",
        "resumed", "one CPU", "pool worker",
    ])
    def test_a_compile_that_starts_none(
        self, case, helpers, tmp_path, monkeypatch
    ):
        arm, kwargs = ("random" if case == "non-BTED arm" else self.ARM), {}
        if case == "one task":
            kwargs["tasks"] = slice(0, 1)
        elif case == "fleet":
            kwargs["fleet"] = "gtx1080ti,gtx1080ti"
        elif case == "served from the log":
            donor = DeploymentCompiler(three_task_model(), env_seed=3)
            donor.tasks = donor.tasks[1:]
            donor.tune(
                arm, n_trial=N_TRIAL, early_stopping=None, trial_seed=2,
                tuner_kwargs=ARM_KWARGS[arm], tlog=tmp_path / "tlog",
            )
            kwargs["tlog"] = tmp_path / "tlog"
        elif case == "resumed":
            _small_compile(arm, None, checkpoint_dir=tmp_path)
            for path in tmp_path.glob("task-000.*"):
                path.unlink()  # task 0 is tuned again, 1 and 2 restored
            kwargs.update(checkpoint_dir=tmp_path, resume=True)
        del helpers.procs[:]  # set-up compiles may start one
        if case == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "pool worker":  # e.g. an ExperimentEngine cell
            monkeypatch.setattr(
                multiprocessing, "parent_process", lambda: os.getppid()
            )
        else:
            monkeypatch.setattr(
                DesignHelper, "pays", staticmethod(lambda: True)
            )
        compiled, _ = _small_compile(arm, None, **kwargs)
        assert compiled.tuning_results
        assert helpers.procs == []

    @pytest.mark.parametrize("failure", ["cannot start", "killed"])
    def test_a_failed_helper_changes_nothing_but_a_warning(
        self, failure, helpers, two_cpus, monkeypatch, caplog
    ):
        alone, alone_obs = _tuned_one_at_a_time(self.ARM)
        if failure == "cannot start":
            def no_process(*args, **kwargs):
                raise OSError("no process for you")

            monkeypatch.setattr(subprocess, "Popen", no_process)
        else:
            answering = DesignHelper.design

            def killed_after_one(helper, *args):
                answer = answering(helper, *args)
                if answer is not None:
                    helper._proc.kill()
                    helper._proc.wait()
                return answer

            monkeypatch.setattr(DesignHelper, "design", killed_after_one)
        ahead_obs = _LoggingObservation()
        with caplog.at_level(logging.WARNING, logger="repro.core.bted"):
            ahead, _ = _small_compile(self.ARM, None, observation=ahead_obs)
        assert _records(ahead) == alone
        assert _summaries(ahead_obs) == _summaries(alone_obs)
        assert _events(ahead_obs) == _events(alone_obs)
        warned = [
            r for r in caplog.records
            if r.name == "repro.core.bted" and r.levelno == logging.WARNING
        ]
        assert len(warned) == 1
        if failure == "killed":
            assert len(helpers.answered) == 1  # task 2's came in process
            assert _exited(helpers.procs)

    def test_a_compile_leaves_no_resource_behind(
        self, helpers, two_cpus, monkeypatch
    ):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            _small_compile(self.ARM, SerialExecutor)
            with pytest.raises(IndexError):
                _doomed_compile()[0].tune(
                    self.ARM, n_trial=N_TRIAL, early_stopping=None,
                    tuner_kwargs=ARM_KWARGS[self.ARM],
                )
            gc.collect()
        assert len(helpers.procs) == 2 and _exited(helpers.procs)
        assert [u.exc_value for u in unraisable] == []


@pytest.mark.slow
def test_helper_designs_equal_in_process_ones_on_the_paper_models():
    # the helper runs one BLAS thread, this process as many as it likes;
    # each design is asked of the helper while this process computes it
    helper = DesignHelper()
    _wait_until_ready(helper)
    try:
        with ThreadPoolExecutor(max_workers=1) as asking:
            for model in zoo.PAPER_MODELS:
                compiler = DeploymentCompiler(zoo.build_model(model))
                for spec in compiler.tasks:
                    space = compiler.simulated_task(spec).space
                    for seed in (0, 1):
                        answer = asking.submit(helper.design, space, {}, seed)
                        expected = bted_select(space, seed=seed)
                        assert answer.result() == expected, (
                            model, spec.task_id, seed
                        )
    finally:
        helper.close()
