"""The build stage: unlaunchable configurations never reach the board.

:class:`~repro.hardware.executor.BuildStage` checks every configuration
of a batch on the host (:meth:`Measurer.build`) and hands the executor
it wraps only the runs of launchable ones, each synced to its original
ordinal.  The contract is that nothing observable changes except the
board time: records, fault outcomes, speculation adoption and
checkpoints equal those of a tune whose board deploys every
configuration.  The dense task of the golden traces holds no
unlaunchable configuration, so these tests tune ResNet-18's first task,
about half of whose ``bted+bao`` proposals exceed the device's limits.
"""

import functools

import numpy as np
import pytest

from repro.core import make_tuner
from repro.core.checkpoint import CheckpointPolicy
from repro.core.events import (
    BatchMeasured,
    CheckpointSaved,
    EventLog,
    MeasurementFailed,
    MeasurementRetried,
    SpeculationResolved,
)
from repro.hardware.executor import (
    BuildStage,
    FaultInjectingExecutor,
    SerialExecutor,
    build_executor,
)
from repro.hardware.faults import FaultModel, RetryPolicy
from repro.hardware.measure import MeasureErrorKind, Measurer
from repro.nn import zoo
from repro.pipeline.compiler import DeploymentCompiler

ARM = "bted+bao"
SEED = 3
N_TRIAL = 72
FAULTS = FaultModel(rate=0.2, seed=5)
RETRY = RetryPolicy(max_retries=1)


class _CountingBoard(SerialExecutor):
    """A board that logs the ordinal and index of every deployment."""

    def __init__(self, measurer, deployed):
        super().__init__(measurer)
        self.deployed = deployed
        self.calls = 0

    def measure_batch(self, config_indices):
        self.calls += 1
        start = self.num_measurements
        self.deployed.extend(
            (start + offset, int(index))
            for offset, index in enumerate(config_indices)
        )
        return super().measure_batch(config_indices)


def _board(deployed):
    """An ``executor=`` factory building a counting board."""
    return functools.partial(_CountingBoard, deployed=deployed)


def _trace(result):
    return [
        (r.step, r.config_index, r.gflops, r.error) for r in result.records
    ]


def _fault_events(log):
    return [
        e for e in log.events
        if isinstance(e, (MeasurementRetried, MeasurementFailed))
    ]


@pytest.fixture(scope="module")
def conv_task():
    """ResNet-18's first task (a 7x7 conv) on the compiler's device."""
    compiler = DeploymentCompiler(zoo.build_model("resnet-18"))
    return compiler.simulated_task(compiler.tasks[0])


@pytest.fixture(scope="module")
def plain(conv_task):
    """The reference tune: no executor, every configuration measured."""
    return make_tuner(ARM, conv_task, seed=SEED).tune(
        n_trial=N_TRIAL, early_stopping=None
    )


@pytest.fixture(scope="module")
def staged(conv_task):
    """The same tune through a counting board behind the build stage."""
    deployed = []
    log = EventLog()
    tuner = make_tuner(ARM, conv_task, seed=SEED, executor=_board(deployed))
    result = tuner.tune(n_trial=N_TRIAL, early_stopping=None, on_event=[log])
    return result, log, deployed, tuner.executor


def _unlaunchable(task, limit):
    """Up to ``limit`` config indices of ``task`` that cannot launch."""
    measurer = Measurer(task)
    found = []
    for index in range(len(task.space)):
        if measurer.build(index) is not None:
            found.append(index)
            if len(found) == limit:
                return found
    return found


class TestMeasurerBuild:
    def test_build_is_the_resource_error_of_measure_at(self, conv_task):
        measurer = Measurer(conv_task, seed=1)
        launchable = rejected = 0
        for index in range(0, len(conv_task.space), 997):
            built = measurer.build(index)
            measured = measurer.measure_at(17, index)
            if built is None:
                launchable += 1
                assert measured.error_kind is not (
                    MeasureErrorKind.RESOURCE_ERROR
                )
            else:
                rejected += 1
                assert built == measured
                assert built.error_kind is MeasureErrorKind.RESOURCE_ERROR
        assert launchable and rejected
        assert measurer.num_measurements == 0


class TestBuildStage:
    def test_batch_without_a_launchable_config_skips_the_board(
        self, conv_task
    ):
        deployed = []
        board = _CountingBoard(Measurer(conv_task, seed=1), deployed)
        stage = BuildStage(board)
        batch = _unlaunchable(conv_task, 3)
        results = stage.measure_batch(batch)
        assert board.calls == 0 and not deployed
        assert stage.num_measurements == len(batch)
        assert [r.error_kind for r in results] == (
            [MeasureErrorKind.RESOURCE_ERROR] * len(batch)
        )

    def test_results_and_ordinals_match_the_whole_batch(self, conv_task):
        rng = np.random.default_rng(0)
        deployed = []
        board = _CountingBoard(Measurer(conv_task, seed=1), deployed)
        stage = BuildStage(board)
        reference = SerialExecutor(Measurer(conv_task, seed=1))
        ordinal = 0
        expected = []
        for size in (1, 5, 16, 33):
            batch = rng.integers(len(conv_task.space), size=size).tolist()
            assert stage.measure_batch(batch) == reference.measure_batch(batch)
            expected.extend(
                (ordinal + offset, index)
                for offset, index in enumerate(batch)
                if board.measurer.build(index) is None
            )
            ordinal += size
            assert stage.num_measurements == ordinal
        assert deployed == expected
        assert len(deployed) < ordinal


class TestStagedTune:
    def test_board_gets_exactly_the_launchable_configs(
        self, conv_task, plain, staged
    ):
        result, _, deployed, executor = staged
        assert isinstance(executor, BuildStage)
        assert _trace(result) == _trace(plain)
        assert result.best_index == plain.best_index
        check = Measurer(conv_task)
        expected = [
            (r.step - 1, r.config_index)
            for r in plain.records
            if check.build(r.config_index) is None
        ]
        assert deployed == expected
        # the scenario exercises the stage: it skips configurations and
        # splits batches into several board calls
        assert 0 < len(deployed) < len(plain.records)
        assert executor.inner.calls > len(staged[1].of_type(BatchMeasured))

    def test_every_speculation_is_adopted(self, staged):
        resolved = staged[1].of_type(SpeculationResolved)
        assert resolved
        assert all(e.adopted for e in resolved)

    def test_faults_match_the_unstaged_composition(self, conv_task):
        def run(factory):
            log = EventLog()
            tuner = make_tuner(ARM, conv_task, seed=SEED, executor=factory)
            result = tuner.tune(
                n_trial=N_TRIAL, early_stopping=None, on_event=[log]
            )
            return result, log, tuner.executor

        staged_deploys, bare_deploys = [], []

        def staged_factory(measurer):
            return build_executor(
                measurer, _board(staged_deploys), faults=FAULTS, retry=RETRY
            )

        def bare_factory(measurer):
            return FaultInjectingExecutor(
                _CountingBoard(measurer, bare_deploys), FAULTS, retry=RETRY
            )

        result, log, executor = run(staged_factory)
        expected, expected_log, bare = run(bare_factory)
        assert isinstance(executor.inner, BuildStage)
        assert not isinstance(bare.inner, BuildStage)
        assert _trace(result) == _trace(expected)
        assert _fault_events(log) == _fault_events(expected_log)
        assert _fault_events(log)
        assert (executor.retries, executor.failures) == (
            bare.retries, bare.failures
        )
        assert len(staged_deploys) < len(bare_deploys)

    def test_resumes_from_every_batch_boundary(
        self, conv_task, plain, tmp_path
    ):
        path = tmp_path / "staged.ckpt"
        snapshots = []

        def keep(tuner_, event):
            if isinstance(event, CheckpointSaved) and event.step > 0:
                snapshots.append((event.step, path.read_bytes()))

        make_tuner(ARM, conv_task, seed=SEED, executor=_board([])).tune(
            n_trial=N_TRIAL, early_stopping=None,
            checkpoint=CheckpointPolicy(path=path, every=1),
            on_event=[keep],
        )
        assert len(snapshots) >= 2
        check = Measurer(conv_task)
        for step, snapshot in snapshots:
            ckpt = tmp_path / f"step-{step}.ckpt"
            ckpt.write_bytes(snapshot)
            deployed = []
            tuner = make_tuner(
                ARM, conv_task, seed=SEED, executor=_board(deployed)
            )
            resumed = tuner.resume(ckpt)
            assert _trace(resumed) == _trace(plain), step
            assert resumed.best_index == plain.best_index
            # the resumed board continues at the checkpoint's ordinal
            assert deployed == [
                (r.step - 1, r.config_index)
                for r in plain.records[step:]
                if check.build(r.config_index) is None
            ]
