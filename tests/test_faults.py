"""Fault-injection model, retry policy, and the fault executor."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.executor import (
    FaultInjectingExecutor,
    SerialExecutor,
    build_executor,
)
from repro.hardware.faults import (
    MAX_CONSECUTIVE_FAULTS,
    FaultKind,
    FaultModel,
    FaultOutcome,
    RetryPolicy,
)
from repro.hardware.measure import Measurer, MeasureErrorKind

from tests.strategies import fault_models

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestFaultModel:
    def test_schedule_is_pure_in_seed_and_ordinal(self):
        model = FaultModel(rate=0.4, seed=11)
        clone = FaultModel(rate=0.4, seed=11)
        for ordinal in range(200):
            assert model.faults_at(ordinal) == clone.faults_at(ordinal)
        # querying out of order changes nothing
        assert model.faults_at(3) == clone.faults_at(3)

    def test_zero_rate_never_faults(self):
        model = FaultModel(rate=0.0, seed=3)
        assert all(model.faults_at(k) == () for k in range(500))

    def test_rate_controls_fault_frequency(self):
        low = FaultModel(rate=0.05, seed=1)
        high = FaultModel(rate=0.5, seed=1)
        n = 2000
        low_hits = sum(bool(low.faults_at(k)) for k in range(n))
        high_hits = sum(bool(high.faults_at(k)) for k in range(n))
        assert low_hits < high_hits
        assert 0.01 < low_hits / n < 0.12
        assert 0.4 < high_hits / n < 0.6

    def test_kinds_restricted_to_model_kinds(self):
        model = FaultModel(rate=0.6, seed=9, kinds=(FaultKind.TIMEOUT,))
        kinds = {
            kind for k in range(300) for kind in model.faults_at(k)
        }
        assert kinds == {FaultKind.TIMEOUT}

    def test_consecutive_faults_capped(self):
        model = FaultModel(rate=0.95, seed=0)
        assert all(
            len(model.faults_at(k)) <= MAX_CONSECUTIVE_FAULTS
            for k in range(100)
        )

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            FaultModel(rate=1.0)
        with pytest.raises(ValueError):
            FaultModel(rate=-0.1)
        with pytest.raises(ValueError):
            FaultModel(rate=0.1, kinds=())

    @given(fault_models(), st.integers(0, 10_000))
    @COMMON
    def test_purity_property(self, model, ordinal):
        assert model.faults_at(ordinal) == model.faults_at(ordinal)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=6, backoff_s=1.0, multiplier=2.0, max_backoff_s=5.0
        )
        assert policy.backoff_for(0) == 1.0
        assert policy.backoff_for(1) == 2.0
        assert policy.backoff_for(2) == 4.0
        assert policy.backoff_for(3) == 5.0  # capped
        assert policy.total_backoff(3) == 7.0

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_outcome_attempt_accounting(self):
        recovered = FaultOutcome(
            ordinal=0, config_index=1,
            faults=(FaultKind.TIMEOUT, FaultKind.TIMEOUT),
        )
        assert recovered.attempts == 3  # two faults + the surviving retry
        dead = FaultOutcome(
            ordinal=0, config_index=1,
            faults=(FaultKind.TIMEOUT,), exhausted=True,
        )
        assert dead.attempts == 1


class TestFaultInjectingExecutor:
    def _executor(self, task, rate, max_retries, seed=5):
        measurer = Measurer(task, seed=0)
        return FaultInjectingExecutor(
            SerialExecutor(measurer),
            faults=FaultModel(rate=rate, seed=seed),
            retry=RetryPolicy(max_retries=max_retries),
        )

    def test_recovered_measurements_keep_their_result(self, dense_task):
        batch = list(range(24))
        clean = SerialExecutor(Measurer(dense_task, seed=0)).measure_batch(
            batch
        )
        # retries large enough that every fault run recovers
        exe = self._executor(dense_task, rate=0.5, max_retries=64)
        faulted = exe.measure_batch(batch)
        assert [r.gflops for r in faulted] == [r.gflops for r in clean]
        assert exe.failures == 0
        assert exe.retries > 0

    def test_exhausted_retries_degrade_to_error_records(self, dense_task):
        exe = self._executor(dense_task, rate=0.6, max_retries=0)
        results = exe.measure_batch(list(range(40)))
        failed = [r for r in results if not r.ok]
        assert failed, "rate 0.6 with no retries must fail something"
        for result in failed:
            assert result.gflops == 0.0
            assert result.mean_time_s == float("inf")
            assert result.error_kind in (
                MeasureErrorKind.BUILD_ERROR,
                MeasureErrorKind.TIMEOUT,
                MeasureErrorKind.DEVICE_LOST,
            )
            assert "injected" in result.error_msg
        assert exe.failures == len(failed)

    def test_outcomes_match_schedule_and_drain_once(self, dense_task):
        model = FaultModel(rate=0.5, seed=5)
        exe = self._executor(dense_task, rate=0.5, max_retries=2)
        exe.measure_batch(list(range(30)))
        outcomes = exe.drain_fault_outcomes()
        assert exe.drain_fault_outcomes() == []
        expected = {
            k: model.faults_at(k)
            for k in range(30)
            if model.faults_at(k)
        }
        assert {o.ordinal for o in outcomes} == set(expected)
        for outcome in outcomes:
            plan = expected[outcome.ordinal]
            assert outcome.exhausted == (len(plan) > 2)
            assert outcome.faults == plan[: min(len(plan), 2)
                                          + (1 if len(plan) > 2 else 0)]

    def test_backoff_is_accounted_not_slept_by_default(self, dense_task):
        slept = []
        measurer = Measurer(dense_task, seed=0)
        exe = FaultInjectingExecutor(
            SerialExecutor(measurer),
            faults=FaultModel(rate=0.5, seed=5),
            retry=RetryPolicy(max_retries=3, backoff_s=0.25),
            sleep=slept.append,
        )
        exe.measure_batch(list(range(30)))
        assert exe.total_backoff_s > 0
        assert sum(slept) == pytest.approx(exe.total_backoff_s)

    def test_sync_ordinal_replays_remaining_schedule(self, dense_task):
        batch = list(range(16))
        reference = self._executor(dense_task, rate=0.5, max_retries=0)
        full = [
            r.ok for r in reference.measure_batch(batch + list(range(16, 32)))
        ]
        resumed = self._executor(dense_task, rate=0.5, max_retries=0)
        resumed.measure_batch(batch)
        resumed.sync_ordinal(16)
        tail = [r.ok for r in resumed.measure_batch(list(range(16, 32)))]
        assert tail == full[16:]

    def test_build_executor_wraps_faults_outermost(self, dense_task):
        exe = build_executor(
            Measurer(dense_task, seed=0), None,
            faults=FaultModel(rate=0.2, seed=0),
        )
        assert isinstance(exe, FaultInjectingExecutor)

    @given(fault_models(max_rate=0.6), st.integers(0, 4))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_faulted_stream_is_deterministic(
        self, dense_task, model, max_retries
    ):
        batch = list(range(12))

        def run():
            measurer = Measurer(dense_task, seed=0)
            exe = FaultInjectingExecutor(
                SerialExecutor(measurer),
                faults=model,
                retry=RetryPolicy(max_retries=max_retries),
            )
            return [
                (r.config_index, r.gflops, r.ok)
                for r in exe.measure_batch(batch)
            ]

        assert run() == run()
