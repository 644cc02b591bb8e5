"""Tests for repro.core.callbacks: the stock event sinks."""

import io
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.callbacks import LogProgress, ProgressBar, RecordToStore
from repro.core.events import BatchMeasured, BatchProposed
from repro.core.tuners.random import RandomTuner
from repro.pipeline.records import RecordStore


class _FakeTuner:
    name = "fake"
    best_gflops = 1.0


def _measured(n):
    """A measured batch of ``n`` placeholder results."""
    return BatchMeasured(step=n, results=(object(),) * n, measure_s=0.0)


class TestRecordToStore:
    def test_records_everything(self, small_task):
        store = RecordStore()
        tuner = RandomTuner(small_task, seed=0, batch_size=8)
        result = tuner.tune(
            n_trial=24, early_stopping=None, on_event=[RecordToStore(store)]
        )
        assert len(store) == result.num_measurements

    def test_best_record_matches_tuner(self, small_task):
        store = RecordStore()
        tuner = RandomTuner(small_task, seed=0, batch_size=8)
        result = tuner.tune(
            n_trial=24, early_stopping=None, on_event=[RecordToStore(store)]
        )
        best = store.best_for(small_task.workload)
        assert best is not None
        assert best.config_index == result.best_index
        assert best.gflops == pytest.approx(result.best_gflops)


class TestProgressBar:
    def test_renders_and_fills(self, small_task):
        stream = io.StringIO()
        bar = ProgressBar(total=16, width=10, stream=stream)
        tuner = RandomTuner(small_task, seed=0, batch_size=8)
        tuner.tune(n_trial=16, early_stopping=None, on_event=[bar])
        output = stream.getvalue()
        assert "16/16" in output
        assert "best=" in output
        assert bar.render().startswith("[##########]")

    def test_validation(self):
        with pytest.raises(ValueError):
            ProgressBar(total=0)

    def test_partial_run_still_terminates_line(self, small_task):
        # budget smaller than the bar total: the bar never fills, but
        # Tuner.tune's finally block calls on_tune_end so the line ends
        stream = io.StringIO()
        bar = ProgressBar(total=64, width=10, stream=stream)
        tuner = RandomTuner(small_task, seed=0, batch_size=8)
        tuner.tune(n_trial=16, early_stopping=None, on_event=[bar])
        assert stream.getvalue().endswith("\n")
        assert not bar._line_open

    def test_close_is_idempotent(self):
        stream = io.StringIO()
        bar = ProgressBar(total=8, stream=stream)
        bar(_FakeTuner(), _measured(4))
        bar.on_tune_end(_FakeTuner())
        before = stream.getvalue()
        bar.on_tune_end(_FakeTuner())
        assert stream.getvalue() == before
        assert before.count("\n") == 1

    def test_state_roundtrip(self):
        bar = ProgressBar(total=8, stream=io.StringIO())
        bar(_FakeTuner(), BatchProposed(step=0, config_indices=(1, 2)))
        bar(_FakeTuner(), _measured(3))
        fresh = ProgressBar(total=8, stream=io.StringIO())
        fresh.load_state_dict(bar.state_dict())
        assert fresh._count == 3
        assert "3/8" in fresh.render()


class TestLogProgress:
    def test_runs_without_error(self, small_task):
        sink = LogProgress(interval=8)
        tuner = RandomTuner(small_task, seed=0, batch_size=8)
        tuner.tune(n_trial=16, early_stopping=None, on_event=[sink])
        assert sink._count == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            LogProgress(interval=0)

    def test_state_roundtrip(self):
        callback = LogProgress(interval=4)
        callback._count = 9
        fresh = LogProgress(interval=4)
        fresh.load_state_dict(callback.state_dict())
        assert fresh._count == 9

    @staticmethod
    def _drive(sink, batches):
        """Feed measured batches to the sink, returning emitted records."""
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = _Capture(level=logging.INFO)
        target = logging.getLogger("repro.core.callbacks")
        old_level = target.level
        target.addHandler(handler)
        target.setLevel(logging.INFO)
        try:
            for batch in batches:
                sink(_FakeTuner(), _measured(batch))
        finally:
            target.removeHandler(handler)
            target.setLevel(old_level)
        return records

    @given(
        batches=st.lists(st.integers(1, 50), max_size=30),
        interval=st.integers(1, 20),
    )
    @settings(deadline=None)  # timing under full-suite load is noisy
    def test_lines_equal_interval_crossings(self, batches, interval):
        # the contract: after n measurements, exactly n // interval
        # lines were emitted, one per crossed boundary, no matter how
        # the measurements were batched
        records = self._drive(LogProgress(interval=interval), batches)
        total = sum(batches)
        assert len(records) == total // interval
        boundaries = [r.args[1] for r in records]
        assert boundaries == [
            interval * i for i in range(1, total // interval + 1)
        ]

    def test_multi_interval_batch_emits_every_boundary(self):
        records = self._drive(LogProgress(interval=4), [13])
        assert [r.args[1] for r in records] == [4, 8, 12]
