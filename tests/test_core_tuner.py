"""Tests for repro.core.tuner: records, early stopping, the tune loop."""

import numpy as np
import pytest

from repro.core.tuner import (
    EarlyStopper,
    SpaceSamplingError,
    Tuner,
    TuningResult,
    TrialRecord,
)
from repro.core.tuners.random import RandomTuner


class TestEarlyStopper:
    def test_stops_after_patience(self):
        stopper = EarlyStopper(patience=3)
        assert not stopper.update(10.0)
        assert not stopper.update(5.0)
        assert not stopper.update(5.0)
        assert stopper.update(5.0)  # 3 steps since the best at step 1

    def test_improvement_resets(self):
        stopper = EarlyStopper(patience=3)
        stopper.update(10.0)
        stopper.update(5.0)
        stopper.update(11.0)  # new best
        assert not stopper.update(5.0)
        assert not stopper.update(5.0)
        assert stopper.update(5.0)

    def test_min_delta(self):
        stopper = EarlyStopper(patience=2, min_delta=1.0)
        stopper.update(10.0)
        stopper.update(10.5)  # below min_delta: not an improvement
        assert stopper.update(10.9)

    def test_bad_patience(self):
        with pytest.raises(ValueError):
            EarlyStopper(patience=0)


class TestTuningResult:
    def make(self, gflops_list):
        records = [
            TrialRecord(step=i + 1, config_index=i, gflops=g)
            for i, g in enumerate(gflops_list)
        ]
        return TuningResult(
            task_name="t",
            tuner_name="x",
            records=records,
            best_index=int(np.argmax(gflops_list)),
            best_gflops=max(gflops_list),
        )

    def test_best_curve_monotone(self):
        result = self.make([1.0, 5.0, 3.0, 7.0, 2.0])
        curve = result.best_curve()
        assert (np.diff(curve) >= 0).all()
        assert curve[-1] == 7.0
        assert curve[0] == 1.0

    def test_gflops_series(self):
        result = self.make([1.0, 0.0, 2.0])
        assert result.gflops_series().tolist() == [1.0, 0.0, 2.0]

    def test_best_curve_matches_reference_loop(self):
        """The vectorized curve equals the original Python loop."""
        rng = np.random.default_rng(42)
        for trial in range(20):
            series = rng.normal(5.0, 4.0, size=rng.integers(1, 60)).tolist()
            result = self.make(series)
            best, reference = 0.0, []
            for gflops in series:
                best = max(best, gflops)
                reference.append(best)
            assert result.best_curve().tolist() == reference

    def test_best_curve_floors_errored_trials(self):
        # errored trials report 0 GFLOPS; negatives must never leak
        result = self.make([-3.0, -1.0, 2.0])
        assert result.best_curve().tolist() == [0.0, 0.0, 2.0]

    def test_best_curve_empty(self):
        result = TuningResult(
            task_name="t",
            tuner_name="x",
            records=[],
            best_index=None,
            best_gflops=0.0,
        )
        assert result.best_curve().shape == (0,)

    def test_num_measurements(self):
        assert self.make([1.0] * 7).num_measurements == 7

    def test_repr(self):
        assert "best=" in repr(self.make([3.0]))


class TestTuneLoop:
    def test_budget_respected(self, small_task):
        tuner = RandomTuner(small_task, seed=0, batch_size=16)
        result = tuner.tune(n_trial=50, early_stopping=None)
        assert result.num_measurements == 50

    def test_no_duplicate_configs(self, small_task):
        tuner = RandomTuner(small_task, seed=0, batch_size=16)
        result = tuner.tune(n_trial=100, early_stopping=None)
        indices = [r.config_index for r in result.records]
        assert len(set(indices)) == len(indices)

    def test_early_stopping_cuts_run_short(self, dense_task):
        tuner = RandomTuner(dense_task, seed=0, batch_size=8)
        result = tuner.tune(n_trial=10_000, early_stopping=30)
        assert result.num_measurements < 10_000

    def test_best_matches_records(self, small_task):
        tuner = RandomTuner(small_task, seed=1, batch_size=16)
        result = tuner.tune(n_trial=64, early_stopping=None)
        best_record = max(result.records, key=lambda r: r.gflops)
        assert result.best_gflops == best_record.gflops
        assert result.best_index == best_record.config_index

    def test_callbacks_see_all_measurements(self, small_task):
        seen = []

        def sink(tuner, event):
            if event.kind == "batch_measured":
                seen.extend(event.results)

        tuner = RandomTuner(small_task, seed=0, batch_size=16)
        result = tuner.tune(n_trial=48, early_stopping=None,
                            on_event=[sink])
        assert len(seen) == result.num_measurements

    def test_exhausts_tiny_space(self):
        from repro.hardware.measure import SimulatedTask
        from repro.nn.workloads import DenseWorkload

        task = SimulatedTask(DenseWorkload(1, 4, 4), seed=0)
        tuner = RandomTuner(task, seed=0, batch_size=8)
        result = tuner.tune(n_trial=10_000, early_stopping=None)
        assert result.num_measurements == len(task.space)

    def test_invalid_n_trial(self, small_task):
        with pytest.raises(ValueError):
            RandomTuner(small_task, seed=0).tune(n_trial=0)

    def test_deterministic_given_seed(self, small_task):
        a = RandomTuner(small_task, seed=9).tune(n_trial=32,
                                                 early_stopping=None)
        b = RandomTuner(small_task, seed=9).tune(n_trial=32,
                                                 early_stopping=None)
        assert [r.config_index for r in a.records] == [
            r.config_index for r in b.records
        ]
        assert a.best_gflops == b.best_gflops

    def test_subclass_contract_enforced(self, small_task):
        tuner = Tuner(small_task, seed=0)
        with pytest.raises(NotImplementedError):
            tuner.tune(n_trial=4)


class TestRandomUnvisitedSampling:
    """Rejection-sampling fallback: honest exhaustion vs budget overrun.

    A short draw used to be silently truncated, making the main loop
    misreport a saturated-but-unfinished space as exhausted; now an
    exhausted attempt budget with unvisited configs provably remaining
    raises :class:`SpaceSamplingError` with a full diagnostic.
    """

    def _tiny_tuner(self):
        from repro.hardware.measure import SimulatedTask
        from repro.nn.workloads import DenseWorkload

        task = SimulatedTask(DenseWorkload(1, 4, 4), seed=0)
        return RandomTuner(task, seed=0, batch_size=8), task

    def test_budget_overrun_raises_with_diagnostic(self):
        tuner, task = self._tiny_tuner()
        with pytest.raises(SpaceSamplingError) as excinfo:
            tuner._random_unvisited(4, max_attempts=0)
        message = str(excinfo.value)
        assert task.name in message
        assert tuner.name in message
        assert "0 attempts" in message

    def test_near_exhausted_space_returns_remainder(self):
        tuner, task = self._tiny_tuner()
        remainder = {0, 1}
        tuner.visited = set(range(len(task.space))) - remainder
        out = tuner._random_unvisited(8)
        assert len(out) == len(remainder)
        assert set(out) == remainder

    def test_fully_visited_space_returns_empty_without_raising(self):
        tuner, task = self._tiny_tuner()
        tuner.visited = set(range(len(task.space)))
        assert tuner._random_unvisited(8) == []
        # even with no attempt budget at all: nothing remains to draw
        assert tuner._random_unvisited(8, max_attempts=0) == []

    def test_normal_draw_is_exact_and_unvisited(self):
        tuner, task = self._tiny_tuner()
        tuner.visited = {0, 1, 2}
        out = tuner._random_unvisited(4)
        assert len(out) == 4
        assert len(set(out)) == 4
        assert not set(out) & tuner.visited
