"""Property-based pins on the fault/checkpoint determinism contract.

These are the load-bearing guarantees of the fault-tolerance layer,
checked over *random* fault schedules and crash points rather than
hand-picked cases:

* crash at any batch + resume == uninterrupted run, bit for bit, on
  the record log and the final incumbent;
* retry exhaustion degrades gracefully — ``Tuner.tune`` never raises
  because of injected faults, whatever the schedule;
* BTED's selection step is invariant under reordering of its candidate
  batch (measurement order must not depend on proposal enumeration).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import make_tuner
from repro.core.checkpoint import CheckpointPolicy
from repro.core.events import CheckpointSaved
from repro.core.ted import ted_select
from repro.hardware.executor import build_executor
from repro.hardware.faults import FaultModel, RetryPolicy
from repro.hardware.measure import SimulatedTask
from repro.nn.workloads import DenseWorkload

from tests.strategies import fault_models, retry_policies

# module-level task (not the function-scoped fixture) so hypothesis can
# reuse it across examples without health-check noise
TASK = SimulatedTask(
    DenseWorkload(batch=1, in_features=64, out_features=48), seed=7
)

PROPERTY = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _trace(result):
    return [
        (r.step, r.config_index, r.gflops, r.error) for r in result.records
    ]


ARM_KWARGS = {
    "random": dict(batch_size=8),
    "autotvm": dict(batch_size=8, init_size=8, sa_chains=8, sa_steps=10),
    "bted": dict(batch_size=8, init_size=6, batch_candidates=24),
    "bted+as": dict(batch_size=8, init_size=6, batch_candidates=24),
    "bted+bao": dict(init_size=6, batch_candidates=24, num_batches=2),
    "bted+bao+droplet": dict(
        init_size=6, batch_candidates=24, num_batches=2, finish_after=10
    ),
    "droplet": dict(batch_size=8, init_size=6),
}


def _make(arm, seed, faults, retry):
    def executor_spec(measurer):
        return build_executor(measurer, None, faults=faults, retry=retry)

    return make_tuner(
        arm, TASK, seed=seed, executor=executor_spec, **ARM_KWARGS[arm]
    )


class _Crash(Exception):
    pass


@pytest.mark.slow
class TestCrashResumeProperty:
    @given(
        faults=fault_models(max_rate=0.4),
        retry=retry_policies(),
        crash_batch=st.integers(1, 3),
        seed=st.integers(0, 50),
        arm=st.sampled_from(
            ["autotvm", "bted", "bted+bao", "droplet",
             "bted+as", "bted+bao+droplet"]
        ),
    )
    @PROPERTY
    def test_crash_plus_resume_equals_uninterrupted(
        self, tmp_path_factory, faults, retry, crash_batch, seed, arm
    ):
        path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
        n_trial = 20

        baseline = _make(arm, seed, faults, retry).tune(
            n_trial=n_trial, early_stopping=None
        )

        def bomb(tuner_, event):
            if isinstance(event, CheckpointSaved) and event.step > 0:
                counts["n"] += 1
                if counts["n"] >= crash_batch:
                    raise _Crash()

        counts = {"n": 0}
        tuner = _make(arm, seed, faults, retry)
        try:
            resumed = tuner.tune(
                n_trial=n_trial,
                early_stopping=None,
                checkpoint=CheckpointPolicy(path=path, every=1),
                on_event=[bomb],
            )
        except _Crash:
            fresh = _make(arm, seed, faults, retry)
            resumed = fresh.resume(path)

        assert _trace(resumed) == _trace(baseline)
        assert resumed.best_index == baseline.best_index
        assert resumed.best_gflops == baseline.best_gflops

    @given(faults=fault_models(max_rate=0.6), retry=retry_policies(),
           seed=st.integers(0, 50))
    @PROPERTY
    def test_retry_exhaustion_never_raises(self, faults, retry, seed):
        tuner = _make("random", seed, faults, retry)
        result = tuner.tune(n_trial=24, early_stopping=None)
        assert result.num_measurements == 24
        # every record is either a real measurement or a graceful error
        for record in result.records:
            assert record.gflops >= 0.0
            assert isinstance(record.error, str)


class TestBTEDSelectionInvariance:
    @given(
        seed=st.integers(0, 1000),
        n=st.integers(8, 40),
        d=st.integers(2, 8),
        m=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_ted_select_permutation_invariant(self, seed, n, d, m):
        # continuous random features keep argmax margins far above
        # floating-point reassociation noise, so the selected *set* must
        # not depend on candidate enumeration order
        rng = np.random.default_rng(seed)
        features = rng.uniform(0.0, 1.0, size=(n, d))
        perm = rng.permutation(n)

        base = ted_select(features, m, mu=0.1)
        permuted = ted_select(features[perm], m, mu=0.1)
        assert sorted(perm[permuted]) == sorted(base)
