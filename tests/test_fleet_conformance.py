"""Differential conformance: fleet runs must equal the serial baseline.

The fleet determinism contract (``docs/EXECUTION.md``): because noise
and fault schedules are pure functions of task-local measurement
ordinals, sharding a compile across N simulated devices — for any N,
worker count, and steal schedule — produces per-task tuning records
and ``RunSummary.deterministic_dict()`` payloads bit-identical to the
serial single-device run, including under injected faults.  The serial
baseline is only valid for *uniform* pools of the compiler's own
device class: each task is measured on its home device's cost model,
so a mixed pool intentionally diverges from the serial run (see
``test_fleet_heterogeneous.py`` for the per-home-device differential).
Every arm is checked; the cheap arms over the full (devices x
fault-rate) matrix, the expensive ones at one representative point
each.
"""

import json

import pytest

from repro.core.tuner import Tuner
from repro.hardware.executor import SerialExecutor
from repro.hardware.faults import FaultModel
from repro.nn.graph import GraphBuilder
from repro.obs import RunObservation
from repro.pipeline.compiler import DeploymentCompiler
from repro.pipeline.records import RecordStore

ARM_KWARGS = {
    "random": dict(batch_size=8),
    "grid": dict(batch_size=8),
    "ga": dict(population_size=8),
    "autotvm": dict(batch_size=8, init_size=8, sa_chains=8, sa_steps=10),
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
N_TRIAL = 16
FAULT_SEED = 13

#: pool specs by size; uniform on purpose — a task's home device
#: supplies its cost model, so only a pool of the compiler's own class
#: can reproduce the serial baseline bit for bit
FLEETS = {
    1: "gtx1080ti",
    2: "gtx1080ti,gtx1080ti",
    4: "gtx1080ti,gtx1080ti,gtx1080ti,gtx1080ti",
}

#: cheap arms cover the full matrix; the rest run one fleet each
MATRIX_ARMS = ("random", "bted", "bted+bao", "droplet", "bted+as")
SPOT_ARMS = ("grid", "ga", "autotvm", "bted+bao+droplet", "bted+bao+as")


def _model():
    # three distinct conv tasks so 2- and 4-device shards are uneven
    b = GraphBuilder("fleet-tiny")
    b.input((1, 3, 16, 16))
    b.conv2d("c1", 8, padding=(1, 1))
    b.relu("r1")
    b.pool2d("p1")
    b.conv2d("c2", 12, padding=(1, 1))
    b.relu("r2")
    b.conv2d("c3", 16, padding=(1, 1))
    b.relu("r3")
    b.flatten("f")
    b.dense("fc", 10)
    return b.graph


def _run(arm, fault_rate, fleet=None, fleet_jobs=None, executor=None):
    """One compile; returns (records, per-task deterministic summaries)."""
    faults = (
        FaultModel(rate=fault_rate, seed=FAULT_SEED) if fault_rate else None
    )
    compiler = DeploymentCompiler(_model(), env_seed=123)
    store = RecordStore()
    observation = RunObservation(enable_metrics=False, enable_trace=False)
    compiler.tune(
        arm,
        n_trial=N_TRIAL,
        early_stopping=None,
        trial_seed=0,
        tuner_kwargs=ARM_KWARGS[arm],
        record_store=store,
        faults=faults,
        observation=observation,
        fleet=fleet,
        fleet_jobs=fleet_jobs,
        executor=executor,
    )
    records = [json.loads(r.to_json()) for r in store]
    summaries = {
        key: observation.observer(key).summary().deterministic_dict()
        for key in observation.keys()
    }
    return records, summaries


_BASELINES = {}


def _baseline(arm, fault_rate):
    key = (arm, fault_rate)
    if key not in _BASELINES:
        _BASELINES[key] = _run(arm, fault_rate)
    return _BASELINES[key]


@pytest.mark.slow
class TestCompilerConformance:
    @pytest.mark.parametrize("fault_rate", [0.0, 0.25])
    @pytest.mark.parametrize("devices", sorted(FLEETS))
    @pytest.mark.parametrize("arm", MATRIX_ARMS)
    def test_fleet_equals_serial(self, arm, devices, fault_rate):
        records, summaries = _run(
            arm, fault_rate, fleet=FLEETS[devices], fleet_jobs=devices
        )
        base_records, base_summaries = _baseline(arm, fault_rate)
        assert records == base_records
        assert summaries == base_summaries

    @pytest.mark.parametrize("arm", SPOT_ARMS)
    def test_remaining_arms_conform(self, arm):
        records, summaries = _run(
            arm, 0.25, fleet=FLEETS[2], fleet_jobs=2
        )
        base_records, base_summaries = _baseline(arm, 0.25)
        assert records == base_records
        assert summaries == base_summaries

    @pytest.mark.parametrize("arm", ("bted", "bted+bao"))
    def test_pipelined_fleet_equals_serial(self, arm, monkeypatch):
        """Speculation composes with fleet sharding and faults.

        A compile with ``executor=`` (here a plain ``SerialExecutor``
        under the fault wrapper) speculates.  The speculative loop
        validates predicted results against the real (fault-retried)
        measurements, so even under injected faults the speculating
        fleet must reproduce the records and deterministic summaries of
        a serial compile that never speculates (its rollback snapshot
        is stubbed out, the path an unpicklable tuner takes).
        """
        records, summaries = _run(
            arm, 0.25, fleet=FLEETS[2], fleet_jobs=2,
            executor=SerialExecutor,
        )
        monkeypatch.setattr(Tuner, "_rollback_snapshot", lambda self: None)
        base_records, base_summaries = _run(arm, 0.25)
        assert records == base_records
        assert summaries == base_summaries

    def test_per_device_fault_overrides_are_schedule_invariant(self):
        # a heterogeneous fault spec diverges from the serial baseline
        # by design, but must not depend on the worker count
        spec = "gtx1080ti,gtx1080ti:0.4,gtx1080ti:0.0"
        one = _run("random", 0.25, fleet=spec, fleet_jobs=1)
        four = _run("random", 0.25, fleet=spec, fleet_jobs=4)
        assert one == four
        # faulted measurements are retried to the same value, so the
        # divergence from the uniform baseline shows in the per-task
        # retry counters, not the record stream
        base_summaries = _baseline("random", 0.25)[1]
        assert one[1] != base_summaries
        assert (
            one[1]["task-002"]["retries"] == 0  # fault-free device
        )
        assert (
            one[1]["task-000"] == base_summaries["task-000"]
        )  # inherits the fleet default

    def test_fleet_report_is_attached(self):
        compiler = DeploymentCompiler(_model(), env_seed=123)
        compiled = compiler.tune(
            "random", n_trial=8, early_stopping=None,
            tuner_kwargs=dict(batch_size=4),
            fleet=FLEETS[2], fleet_jobs=2,
        )
        result = compiled.fleet
        assert result is not None
        assert [r.homed for r in result.reports] == [
            ["task-000", "task-002"], ["task-001"],
        ]
        assert sorted(result.results) == ["task-000", "task-001", "task-002"]
        assert all(r.measurements > 0 for r in result.reports)
        assert all(
            r.device_class == "geforcegtx1080ti" for r in result.reports
        )

