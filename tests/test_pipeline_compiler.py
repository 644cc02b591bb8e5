"""Tests for repro.pipeline.compiler: deployment and latency evaluation."""

import dataclasses
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.fleet import Fleet, FleetError
from repro.hardware.device import GTX_1080_TI
from repro.hardware.executor import SerialExecutor
from repro.hardware.faults import RetryPolicy
from repro.hardware.measure import Measurer
from repro.nn import zoo
from repro.nn.graph import GraphBuilder
from repro.obs import RunObservation
from repro.pipeline.compiler import CompiledModel, DeploymentCompiler, KernelTiming
from repro.pipeline.records import RecordStore
from repro.pipeline.tasks import TaskSpec


def tiny_model():
    b = GraphBuilder("tiny-model")
    b.input((1, 3, 16, 16))
    b.conv2d("c1", 8, padding=(1, 1))
    b.relu("r1")
    b.pool2d("p1")
    b.conv2d("c2", 16, padding=(1, 1))
    b.relu("r2")
    b.flatten("f")
    b.dense("fc", 10)
    return b.graph


def three_task_model():
    b = GraphBuilder("three-task-model")
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


@pytest.fixture
def compiler():
    return DeploymentCompiler(tiny_model(), env_seed=5)


class TestDeploymentCompiler:
    def test_task_extraction(self, compiler):
        assert len(compiler.tasks) == 2

    def test_tune_returns_compiled_model(self, compiler):
        compiled = compiler.tune("random", n_trial=32, early_stopping=None)
        assert isinstance(compiled, CompiledModel)
        assert compiled.base_latency_ms > 0
        assert len(compiled.tuning_results) == 2

    def test_kernels_cover_tuned_and_untuned(self, compiler):
        compiled = compiler.tune("random", n_trial=32, early_stopping=None)
        tuned = [k for k in compiled.kernels if k.tuned]
        untuned = [k for k in compiled.kernels if not k.tuned]
        assert len(tuned) == 2
        assert len(untuned) >= 3  # input, pool, flatten/dense, ...

    def test_record_store_integration(self, compiler):
        store = RecordStore()
        compiler.tune("random", n_trial=32, early_stopping=None,
                      record_store=store)
        assert len(store) == 32 * 1 or len(store) == 64  # 2 tasks x 32

    def test_compile_from_records_matches_tuned(self, compiler):
        store = RecordStore()
        compiled = compiler.tune(
            "random", n_trial=32, early_stopping=None, record_store=store
        )
        replayed = compiler.compile_from_records(store)
        assert replayed.base_latency_ms == pytest.approx(
            compiled.base_latency_ms
        )

    def test_compile_from_empty_records_uses_defaults(self, compiler):
        compiled = compiler.compile_from_records(RecordStore())
        assert compiled.base_latency_ms > 0

    def test_environment_fixed_across_arms(self):
        """Different arms must face identical task environments."""
        a = DeploymentCompiler(tiny_model(), env_seed=5)
        b = DeploymentCompiler(tiny_model(), env_seed=5)
        spec = a.tasks[0]
        idx = int(a.simulated_task(spec).space.sample(1, seed=0)[0])
        assert a.simulated_task(spec).true_gflops(idx) == pytest.approx(
            b.simulated_task(spec).true_gflops(idx)
        )

    def test_progress_callback(self, compiler):
        calls = []
        compiler.tune(
            "random",
            n_trial=16,
            early_stopping=None,
            progress=lambda spec, result: calls.append(spec.task_id),
        )
        assert calls == [0, 1]


BTED_KWARGS = {"batch_size": 8, "init_size": 8, "batch_candidates": 16}


def _lines(store):
    return [record.to_json() for record in store]


class _Stop(Exception):
    pass


class TestCompileContracts:
    """What a compile promises about checkpoints, failures and hand-off.

    A compile without ``fleet=`` runs as a one-slot fleet drained on
    the caller's thread; these pin what it keeps from a plain loop
    over tasks, and the in-order hand-off every compile shares.
    """

    @pytest.fixture
    def three(self):
        compiler = DeploymentCompiler(three_task_model(), env_seed=5)
        assert len(compiler.tasks) == 3
        return compiler

    def _tune(self, compiler, **kwargs):
        return compiler.tune(
            "bted", n_trial=16, early_stopping=None, trial_seed=2,
            tuner_kwargs=dict(BTED_KWARGS), **kwargs,
        )

    def test_checkpoints_sit_directly_in_the_directory(self, three, tmp_path):
        self._tune(three, checkpoint_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            f"task-{i:03d}.{ext}" for i in range(3) for ext in ("ckpt", "done")
        ]

    def test_progress_failure_resumes_to_the_uninterrupted_store(
        self, three, tmp_path
    ):
        uninterrupted = RecordStore()
        self._tune(three, record_store=uninterrupted)

        def stop_at_task_1(spec, result):
            if spec.task_id == 1:
                raise _Stop()

        with pytest.raises(_Stop):
            self._tune(
                three, record_store=RecordStore(), progress=stop_at_task_1,
                checkpoint_dir=tmp_path,
            )
        resumed = RecordStore()
        self._tune(
            three, record_store=resumed, checkpoint_dir=tmp_path, resume=True
        )
        assert _lines(resumed) == _lines(uninterrupted)

    def test_task_failure_raises_its_own_exception(self, three):
        with pytest.raises(ValueError, match="mu") as excinfo:
            three.tune(
                "bted", n_trial=16, early_stopping=None,
                tuner_kwargs=dict(BTED_KWARGS, mu=0.0),
            )
        assert not isinstance(excinfo.value, FleetError)

    def test_a_compile_of_several_tasks_refuses_an_executor_instance(self):
        # one instance would measure task 1 through task 0's measurer
        # and space (and task 0 would close it for the tasks after it)
        compiler = DeploymentCompiler(zoo.build_model("resnet-18"))
        compiler.tasks = compiler.tasks[:2]
        board = SerialExecutor(
            Measurer(compiler.simulated_task(compiler.tasks[0]))
        )
        finished = []
        with pytest.raises(ValueError, match="executor"):
            compiler.tune(
                "bted", n_trial=16, early_stopping=None,
                tuner_kwargs=dict(BTED_KWARGS), executor=board,
                progress=lambda spec, result: finished.append(spec),
            )
        assert finished == [] and board.num_measurements == 0
        # a factory builds one executor per task; one task may take one
        compiled = compiler.tune(
            "bted", n_trial=16, early_stopping=None,
            tuner_kwargs=dict(BTED_KWARGS), executor=SerialExecutor,
        )
        assert len(compiled.tuning_results) == 2
        compiler.tasks = compiler.tasks[:1]
        compiler.tune(
            "bted", n_trial=16, early_stopping=None,
            tuner_kwargs=dict(BTED_KWARGS), executor=board,
        )
        assert board.num_measurements == 16

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fleet_jobs_needs_a_fleet(self, three, tmp_path, jobs):
        # without a fleet the one slot drains on the caller's thread,
        # so there are no worker threads to set; nothing is tuned
        finished = []
        with pytest.raises(ValueError, match="fleet_jobs"):
            self._tune(
                three, fleet_jobs=jobs, checkpoint_dir=tmp_path,
                progress=lambda spec, result: finished.append(spec),
            )
        assert finished == [] and list(tmp_path.iterdir()) == []

    def test_progress_fires_before_the_next_task_measures(self, three):
        observation = RunObservation(enable_metrics=False, enable_trace=False)
        measured_next = []

        def progress(spec, result):
            if spec.task_id + 1 < 3:
                nxt = observation.observer(f"task-{spec.task_id + 1:03d}")
                measured_next.append(nxt.summary().num_measurements)

        self._tune(three, observation=observation, progress=progress)
        assert measured_next == [0, 0]

    def _speculations(self, compiler, **kwargs):
        """A compile's record lines and its tasks' speculation count."""
        store = RecordStore()
        observation = RunObservation(enable_metrics=False, enable_trace=False)
        compiler.tune(
            "bted", n_trial=32, early_stopping=None, trial_seed=2,
            tuner_kwargs=dict(BTED_KWARGS), record_store=store,
            observation=observation, **kwargs,
        )
        count = sum(s.speculations for s in observation.summaries())
        return _lines(store), count

    def test_retry_without_faults_never_speculates(self, three):
        # a retry policy acts only on a fault model's failures, so
        # alone it leaves measurement in process, where nothing
        # speculates
        plain = self._speculations(three)
        assert plain[1] == 0
        assert self._speculations(three, retry=RetryPolicy()) == plain

    def test_device_fault_rate_without_fleet_faults_speculates(self, three):
        _, count = self._speculations(
            three, fleet="gtx1080ti:0.25", retry=RetryPolicy()
        )
        assert count > 0

    def test_compiled_fleet_is_none(self, three):
        assert self._tune(three).fleet is None

    def test_fleet_hands_tasks_on_in_order_as_they_finish(self, three):
        serial = RecordStore()
        self._tune(three, record_store=serial)
        # one worker homed on device 0 runs task 0, then task 2, then
        # steals task 1 from device 1
        observation = RunObservation(enable_metrics=False, enable_trace=False)
        order, measured_later = [], []

        def progress(spec, result):
            order.append(spec.task_id)
            if spec.task_id == 0:
                measured_later.extend(
                    observation.observer(f"task-{i:03d}")
                    .summary().num_measurements
                    for i in (1, 2)
                )

        store = RecordStore()
        compiled = self._tune(
            three, record_store=store, observation=observation,
            progress=progress, fleet="gtx1080ti,gtx1080ti", fleet_jobs=1,
        )
        assert [s.key for s in compiled.fleet.steals] == ["task-001"]
        assert measured_later == [0, 0]
        assert order == [0, 1, 2]
        assert _lines(store) == _lines(serial)

    def test_hand_off_order_survives_thread_pressure(self, three):
        """Three workers on a two-core host, switching threads often.

        A slow ``progress`` keeps one worker inside the hand-off while
        the others finish, so an unguarded hand-off repeats a task.
        """
        serial = RecordStore()
        three.tune(
            "random", n_trial=8, early_stopping=None, record_store=serial
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                order, store = [], RecordStore()

                def slow_progress(spec, result):
                    order.append(spec.task_id)
                    time.sleep(0.02)

                three.tune(
                    "random", n_trial=8, early_stopping=None,
                    record_store=store, progress=slow_progress,
                    fleet="gtx1080ti,gtx1080ti,gtx1080ti",
                )
                assert order == [0, 1, 2]
                assert _lines(store) == _lines(serial)
        finally:
            sys.setswitchinterval(interval)


def count_builds(monkeypatch):
    """Count environment builds: ``to_simulated`` and ``build_space`` calls.

    Environments are keyed ``(task_id, template, device name)``, spaces
    ``(workload, template)``.
    """
    import repro.hardware.measure as measure
    import repro.space.templates as templates

    envs, spaces = Counter(), Counter()
    to_simulated = TaskSpec.to_simulated
    build_space = templates.build_space

    def counted_to_simulated(spec, device=GTX_1080_TI, seed=0):
        envs[(spec.task_id, spec.template, device.name)] += 1
        return to_simulated(spec, device=device, seed=seed)

    def counted_build_space(workload, template="direct"):
        spaces[(workload, template)] += 1
        return build_space(workload, template)

    monkeypatch.setattr(TaskSpec, "to_simulated", counted_to_simulated)
    monkeypatch.setattr(measure, "build_space", counted_build_space)
    monkeypatch.setattr(templates, "build_space", counted_build_space)
    return envs, spaces


class TestEnvironmentCache:
    """A compiler builds each (task, template, device) environment once."""

    FLEET = "gtx1080ti,titanv,jetsontx2"

    def test_mixed_fleet_compile_builds_each_environment_once(
        self, tmp_path, monkeypatch
    ):
        envs, spaces = count_builds(monkeypatch)
        compiler = DeploymentCompiler(
            three_task_model(), env_seed=5, include_winograd=True
        )
        assert {spec.template for spec in compiler.tasks} == {
            "direct", "winograd"
        }
        pool = Fleet.from_spec(self.FLEET)
        # serve, tune and contribute on each task's home device, deploy
        # on the compiler's own device
        expected = {
            (spec.task_id, spec.template, device.name)
            for i, spec in enumerate(compiler.tasks)
            for device in (pool.home_of(i).device, compiler.device)
        }
        jobs = (os.cpu_count() or 1) + 2
        options = dict(
            n_trial=8, early_stopping=None, tlog=tmp_path / "tlog",
            fleet=self.FLEET, fleet_jobs=jobs,
        )
        first = compiler.tune("random", **options)
        assert set(first.tlog_status.values()) == {"cold"}
        assert envs == Counter(dict.fromkeys(expected, 1))
        assert sum(spaces.values()) == len(expected)
        # a second compile is served from the log and builds nothing
        second = compiler.tune("random", trial_seed=1, **options)
        assert set(second.tlog_status.values()) == {"hit"}
        assert envs == Counter(dict.fromkeys(expected, 1))
        assert sum(spaces.values()) == len(expected)
        assert second.base_latency_ms == first.base_latency_ms

    def test_concurrent_callers_share_one_build(self, monkeypatch):
        envs, _ = count_builds(monkeypatch)
        compiler = DeploymentCompiler(three_task_model(), env_seed=5)
        spec = compiler.tasks[0]
        callers = (os.cpu_count() or 1) + 4
        barrier = threading.Barrier(callers)
        got = []

        def call():
            barrier.wait(timeout=10.0)
            got.append(compiler.simulated_task(spec))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == callers
        assert all(task is got[0] for task in got)
        assert sum(envs.values()) == 1

    def test_key_is_the_device_not_its_name(self):
        compiler = DeploymentCompiler(three_task_model(), env_seed=5)
        spec = compiler.tasks[0]
        slower = dataclasses.replace(
            GTX_1080_TI,
            peak_gflops=GTX_1080_TI.peak_gflops / 4,
            mem_bandwidth_gbs=GTX_1080_TI.mem_bandwidth_gbs / 4,
        )
        assert slower.name == GTX_1080_TI.name
        fast = compiler.simulated_task(spec, device=GTX_1080_TI)
        slow = compiler.simulated_task(spec, device=slower)
        assert slow is not fast
        assert slow.device is slower
        assert compiler.simulated_task(spec) is fast
        idx = int(fast.space.sample(1, seed=0)[0])
        assert slow.true_gflops(idx) != fast.true_gflops(idx)


class TestLatencyMeasurement:
    def make_compiled(self, sigma=0.02):
        kernels = [
            KernelTiming("a", 1e-4, sigma, True),
            KernelTiming("b", 2e-4, sigma, True),
        ]
        from repro.hardware.device import GTX_1080_TI

        return CompiledModel("m", GTX_1080_TI, kernels)

    def test_mean_near_base(self):
        compiled = self.make_compiled()
        sample = compiled.measure_latency(num_runs=2000, seed=0)
        assert sample.mean_ms == pytest.approx(compiled.base_latency_ms,
                                               rel=0.02)

    def test_deterministic_given_seed(self):
        compiled = self.make_compiled()
        a = compiled.measure_latency(num_runs=100, seed=1)
        b = compiled.measure_latency(num_runs=100, seed=1)
        assert np.allclose(a.latencies_ms, b.latencies_ms)

    def test_noisier_kernels_give_higher_variance(self):
        quiet = self.make_compiled(sigma=0.01)
        noisy = self.make_compiled(sigma=0.08)
        vq = quiet.measure_latency(num_runs=1500, seed=2).variance
        vn = noisy.measure_latency(num_runs=1500, seed=2).variance
        assert vn > 3 * vq

    def test_positive_latencies(self):
        sample = self.make_compiled(sigma=0.3).measure_latency(
            num_runs=500, seed=3
        )
        assert (sample.latencies_ms > 0).all()

    def test_std_matches_variance(self):
        sample = self.make_compiled().measure_latency(num_runs=300, seed=4)
        assert sample.std_ms == pytest.approx(np.sqrt(sample.variance))

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            self.make_compiled().measure_latency(num_runs=1)
