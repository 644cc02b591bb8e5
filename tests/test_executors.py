"""Measurement executors: the serial backend and spec resolution.

The executor contract (``docs/EXECUTION.md``) promises that every
executor composition produces the measurement stream the serial path
would have produced, because noise is a pure function of the
measurement ordinal.  These tests pin that promise for the factory
spec.
"""

import pickle

import pytest

from repro.core import make_tuner
from repro.hardware.executor import (
    BuildStage,
    FaultInjectingExecutor,
    MeasureExecutor,
    SerialExecutor,
    build_executor,
)
from repro.hardware.faults import FaultModel
from repro.hardware.measure import Measurer


def _signature(results):
    """Comparable projection of a list of MeasureResults."""
    return [
        (r.config_index, r.gflops, r.mean_time_s, r.error_kind, r.error_msg)
        for r in results
    ]


def _serial_factory(measurer):
    """Executor factory used by determinism tests (module-level: picklable)."""
    return SerialExecutor(measurer)


class TestSerialExecutor:
    def test_matches_direct_measurer(self, dense_task):
        direct = Measurer(dense_task, seed=3)
        wrapped = SerialExecutor(Measurer(dense_task, seed=3))
        batch = [0, 5, 9, 5]
        assert _signature(wrapped.measure_batch(batch)) == _signature(
            direct.measure_batch(batch)
        )
        assert wrapped.num_measurements == len(batch)

    def test_context_manager(self, dense_task):
        with SerialExecutor(Measurer(dense_task, seed=3)) as ex:
            assert ex.measure_batch([1])[0].config_index == 1

    def test_results_are_picklable(self, dense_task):
        ex = SerialExecutor(Measurer(dense_task, seed=3))
        results = ex.measure_batch([0, 1, 2])
        assert _signature(pickle.loads(pickle.dumps(results))) == _signature(
            results
        )


class TestBuildExecutor:
    def test_spec_resolution(self, dense_task):
        measurer = Measurer(dense_task, seed=3)
        # the default measures in process: its measurer is the build check
        assert type(build_executor(measurer)) is SerialExecutor
        # a handed-in executor sits directly inside the build stage
        ready = SerialExecutor(measurer)
        staged = build_executor(measurer, ready)
        assert isinstance(staged, BuildStage)
        assert staged.inner is ready
        built = build_executor(measurer, _serial_factory)
        assert isinstance(built, BuildStage)
        assert type(built.inner) is SerialExecutor
        assert built.inner is not ready  # the factory built a fresh executor
        assert built.measurer is measurer
        # a composition built before is never wrapped again
        assert build_executor(measurer, staged) is staged

    def test_composition_order(self, dense_task):
        measurer = Measurer(dense_task, seed=3)
        faults = FaultModel(rate=0.1, seed=1)
        ready = SerialExecutor(measurer)
        # the fault injector sits above the build stage, never below it
        outer = build_executor(measurer, ready, faults=faults)
        assert isinstance(outer, FaultInjectingExecutor)
        assert isinstance(outer.inner, BuildStage)
        assert outer.inner.inner is ready
        # the default composition has no build stage
        default = build_executor(measurer, None, faults=faults)
        assert type(default.inner) is SerialExecutor
        # a fault injector handed in (the compiler's fault factory
        # returns one) is used as it is
        assert build_executor(measurer, outer) is outer
        assert build_executor(measurer, lambda m: outer) is outer

    def test_unknown_spec_raises(self, dense_task):
        # the retired string specs are unknown too, also to tuners
        for spec in ("threads", "serial", "parallel"):
            with pytest.raises(ValueError, match="unknown executor spec"):
                build_executor(Measurer(dense_task, seed=3), spec)
            with pytest.raises(ValueError, match="unknown executor spec"):
                make_tuner("random", dense_task, executor=spec)

    def test_base_class_is_abstract(self, dense_task):
        base = MeasureExecutor()
        with pytest.raises(NotImplementedError):
            base.measure_batch([0])


class TestTunerParallelDeterminism:
    """Same seed => identical TrialRecord sequences, default vs factory spec."""

    @pytest.mark.parametrize("arm", ["autotvm", "bted", "bted+bao"])
    def test_records_identical_across_backends(
        self, arm, small_task, dense_task
    ):
        kwargs = {
            "autotvm": {"init_size": 8, "sa_chains": 16, "sa_steps": 10},
            "bted": {"init_size": 8, "batch_candidates": 32, "num_batches": 2},
            "bted+bao": {
                "init_size": 8,
                "batch_candidates": 32,
                "num_batches": 2,
            },
        }[arm]
        for task in (small_task, dense_task):
            runs = []
            for spec in (None, _serial_factory):
                tuner = make_tuner(
                    arm, task, seed=11, executor=spec, **kwargs
                )
                try:
                    result = tuner.tune(n_trial=20, early_stopping=None)
                finally:
                    tuner.shutdown()
                runs.append(result.records)
            assert runs[0] == runs[1], (arm, task.name)
