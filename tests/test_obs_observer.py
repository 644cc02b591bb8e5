"""Tests for repro.obs: observer, run summaries, and resume-aware state.

The determinism contract under test: a run that crashes at any batch
and resumes from its checkpoint produces a :class:`RunSummary`
(``deterministic_dict``) and trace span skeletons bit-identical to an
uninterrupted run of the same configuration.
"""

import dataclasses
import json
import logging
import pickle

import pytest

from repro.core import make_tuner
from repro.core.callbacks import LogProgress
from repro.core.checkpoint import CheckpointPolicy
from repro.core.events import (
    BatchMeasured,
    EventLog,
    IncumbentImproved,
)
from repro.experiments.fig5 import run_fig5
from repro.experiments.settings import ExperimentSettings
from repro.hardware.executor import SerialExecutor
from repro.obs import (
    Histogram,
    RunObservation,
    RunSummary,
    TuningObserver,
    aggregate_summaries,
    aggregate_summary_dir,
    hooks,
    write_summary_json,
)

ARM_KWARGS = {
    "bted": dict(batch_size=8, init_size=6, batch_candidates=24),
    "bted+bao": dict(init_size=6, batch_candidates=24, num_batches=2),
}


def _crash_after(tuner, n_batches, path, n_trial, callbacks=(), on_event=()):
    """Run ``tune`` but abort after ``n_batches`` checkpointed batches."""

    class _Crash(Exception):
        pass

    seen = [0]

    def bomb(tuner_, event):
        if event.kind == "checkpoint_saved" and event.step > 0:
            seen[0] += 1
            if seen[0] >= n_batches:
                raise _Crash()

    with pytest.raises(_Crash):
        tuner.tune(
            n_trial=n_trial,
            early_stopping=None,
            checkpoint=CheckpointPolicy(path=path, every=1),
            callbacks=list(callbacks),
            on_event=list(on_event) + [bomb],
        )


class TestObserverSummary:
    def test_counts_match_event_log(self, dense_task):
        log, obs = EventLog(), TuningObserver()
        tuner = make_tuner("bted", dense_task, seed=11, **ARM_KWARGS["bted"])
        result = tuner.tune(
            n_trial=24, early_stopping=None, on_event=[log, obs]
        )
        s = obs.summary()
        assert s.arm == tuner.name
        assert s.seed == 11
        assert s.task == str(dense_task.workload)
        assert s.num_measurements == result.num_measurements
        assert s.batches == len(log.of_type(BatchMeasured))
        assert s.improvements == len(log.of_type(IncumbentImproved))
        assert s.best_index == result.best_index
        assert s.best_gflops == pytest.approx(result.best_gflops, abs=1e-6)
        assert len(s.best_curve) == s.batches
        assert s.best_curve == sorted(s.best_curve)
        assert s.best_curve[-1] == pytest.approx(s.best_gflops)
        assert not s.early_stopped and not s.resumed
        assert s.num_errors == sum(
            1 for r in result.records if r.error
        )

    def test_span_tree_structure(self, dense_task):
        obs = TuningObserver()
        tuner = make_tuner(
            "bted+bao", dense_task, seed=11, **ARM_KWARGS["bted+bao"]
        )
        tuner.tune(n_trial=24, early_stopping=None, on_event=[obs])
        s = obs.summary()
        roots = obs.trace.by_name("tune")
        assert len(roots) == 1
        root = roots[0]
        assert root["parent_id"] is None
        assert root["duration_s"] is not None
        assert root["attrs"]["num_measurements"] == s.num_measurements
        steps = obs.trace.by_name("step")
        assert len(steps) == s.batches
        for span in steps:
            assert span["parent_id"] == root["span_id"]
        assert len(obs.trace.by_name("propose")) == s.batches
        assert len(obs.trace.by_name("measure")) == s.batches
        refits = obs.trace.by_name("refit")
        assert s.refits > 0, "BAO refits its ensemble via the hook bus"
        assert len(refits) == s.refits
        for span in refits:
            assert span["parent_id"] == root["span_id"]

    def test_metrics_mirror_summary(self, dense_task):
        obs = TuningObserver()
        tuner = make_tuner("bted", dense_task, seed=11, **ARM_KWARGS["bted"])
        result = tuner.tune(n_trial=24, early_stopping=None, on_event=[obs])
        flat = obs.metrics.as_dict()
        s = obs.summary()
        assert flat["batches_total"] == s.batches
        assert flat["measurements_total"] == result.num_measurements
        assert flat["refits_total"] == s.refits
        assert flat["measured"] == s.num_measurements
        assert flat["executor_batches_serial_total"] == s.batches
        text = obs.metrics.render_prometheus()
        assert "repro_measurements_total" in text

    def test_hooks_deregistered_after_tune(self, dense_task):
        obs = TuningObserver()
        tuner = make_tuner("random", dense_task, seed=3, batch_size=8)
        tuner.tune(n_trial=8, early_stopping=None, on_event=[obs])
        for point in hooks.POINTS:
            assert not hooks.hooks_active(point)

    def test_disabled_outputs_keep_summary(self, dense_task):
        obs = TuningObserver(enable_metrics=False, enable_trace=False)
        tuner = make_tuner("random", dense_task, seed=3, batch_size=8)
        result = tuner.tune(n_trial=16, early_stopping=None, on_event=[obs])
        assert obs.metrics is None and obs.trace is None
        assert obs.summary().num_measurements == result.num_measurements


class TestCrashResumeIdentity:
    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    @pytest.mark.parametrize("crash_batches", [1, 2])
    def test_summary_and_skeletons_identical(
        self, tmp_path, dense_task, arm, crash_batches
    ):
        n_trial = 24
        baseline_obs = TuningObserver()
        baseline = make_tuner(arm, dense_task, seed=5, **ARM_KWARGS[arm])
        baseline.tune(
            n_trial=n_trial, early_stopping=None, on_event=[baseline_obs]
        )

        path = tmp_path / "run.ckpt"
        crashed_obs = TuningObserver()
        crashed = make_tuner(arm, dense_task, seed=5, **ARM_KWARGS[arm])
        _crash_after(
            crashed, crash_batches, path, n_trial, on_event=[crashed_obs]
        )

        resumed_obs = TuningObserver()
        resumed = make_tuner(arm, dense_task, seed=5, **ARM_KWARGS[arm])
        resumed.resume(path, on_event=[resumed_obs])

        assert (
            resumed_obs.summary().deterministic_dict()
            == baseline_obs.summary().deterministic_dict()
        )
        assert (
            resumed_obs.trace.span_skeletons()
            == baseline_obs.trace.span_skeletons()
        )
        assert resumed_obs.summary().resumed
        assert not baseline_obs.summary().resumed

    def test_observer_state_is_json_serializable(self, tmp_path, dense_task):
        obs = TuningObserver()
        tuner = make_tuner("bted", dense_task, seed=5, **ARM_KWARGS["bted"])
        _crash_after(tuner, 1, tmp_path / "c.ckpt", 24, on_event=[obs])
        state = json.loads(json.dumps(obs.state_dict()))
        fresh = TuningObserver()
        fresh.load_state_dict(state)
        assert (
            fresh.summary().deterministic_dict()
            == obs.summary().deterministic_dict()
        )
        assert fresh.trace.span_skeletons() == obs.trace.span_skeletons()


#: the keys of an observer state: one per RunSummary field (four of
#: them renamed) plus the span bookkeeping, metrics and trace
STATE_KEYS = {
    "task", "arm", "seed", "measured", "errors", "best_index", "best",
    "curve", "batches", "refits", "improvements", "widenings", "retries",
    "failures", "exploit_steps", "pruned_candidates", "finish_phase",
    "speculations", "speculation_replays", "refit_reused_trees",
    "early_stopped", "space_exhausted", "resumed", "proposal_s",
    "measure_s", "refit_s", "pipeline_overlap_s", "wall_s", "root_id",
    "step_id", "metrics", "trace",
}


def _non_default_summary(offset: int = 0) -> RunSummary:
    """A summary whose every field but ``wall_s`` is off its default."""
    values = {}
    for f in dataclasses.fields(RunSummary):
        default = (
            f.default if f.default is not dataclasses.MISSING
            else f.default_factory()
        )
        if isinstance(default, bool):
            value = not default
        elif isinstance(default, str):
            value = f"{f.name}-{offset}"
        elif isinstance(default, list):
            value = [1.5, 2.25 + offset]
        elif isinstance(default, float):
            value = 3.125 + offset
        elif default is None or isinstance(default, int):
            value = 7 + offset
        else:
            raise AssertionError(f"no non-default value for {f.name}")
        values[f.name] = value
    values["wall_s"] = 0.0
    return RunSummary(**values)


def _explicit_aggregate(rows):
    """The aggregate spelled out key by key, as the field walk must give."""
    return {
        "runs": len(rows),
        "num_measurements": sum(s.num_measurements for s in rows),
        "num_errors": sum(s.num_errors for s in rows),
        "batches": sum(s.batches for s in rows),
        "refits": sum(s.refits for s in rows),
        "improvements": sum(s.improvements for s in rows),
        "widenings": sum(s.widenings for s in rows),
        "retries": sum(s.retries for s in rows),
        "failures": sum(s.failures for s in rows),
        "exploit_steps": sum(s.exploit_steps for s in rows),
        "pruned_candidates": sum(s.pruned_candidates for s in rows),
        "speculations": sum(s.speculations for s in rows),
        "speculation_replays": sum(s.speculation_replays for s in rows),
        "refit_reused_trees": sum(s.refit_reused_trees for s in rows),
        "finish_phases": sum(1 for s in rows if s.finish_phase),
        "early_stopped": sum(1 for s in rows if s.early_stopped),
        "space_exhausted": sum(1 for s in rows if s.space_exhausted),
        "resumed": sum(1 for s in rows if s.resumed),
        "proposal_s": sum(s.proposal_s for s in rows),
        "measure_s": sum(s.measure_s for s in rows),
        "refit_s": sum(s.refit_s for s in rows),
        "pipeline_overlap_s": sum(s.pipeline_overlap_s for s in rows),
        "wall_s": sum(s.wall_s for s in rows),
        "best_gflops": max((s.best_gflops for s in rows), default=0.0),
    }


#: counters that differ between a resumed run and an uninterrupted one
#: by construction: the baseline writes no checkpoint and never resumes
RESUME_COUNTERS = {"checkpoints_total", "resumes_total"}


def _metric_counts(registry):
    """Counter and gauge values and histogram counts, by metric name."""
    return {
        m.name: m.count if isinstance(m, Histogram) else m.value
        for m in registry
        if m.name not in RESUME_COUNTERS
    }


class TestOneListContract:
    """RunSummary's fields are the observer's one list of run facts."""

    def test_every_field_round_trips_through_state(self):
        expected = _non_default_summary()
        defaults = RunSummary().to_dict()
        for name, value in expected.to_dict().items():
            assert name == "wall_s" or value != defaults[name], name
        obs = TuningObserver()
        obs._run = dataclasses.replace(expected)
        state = json.loads(json.dumps(obs.state_dict()))
        assert set(state) == STATE_KEYS
        fresh = TuningObserver()
        fresh.load_state_dict(state)
        restored = fresh.summary()
        assert restored.wall_s >= 0.0
        assert dataclasses.replace(restored, wall_s=0.0) == expected

    def test_state_of_a_run_has_the_documented_keys(self, dense_task):
        obs = TuningObserver()
        tuner = make_tuner("bted", dense_task, seed=5, **ARM_KWARGS["bted"])
        tuner.tune(n_trial=16, early_stopping=None, on_event=[obs])
        assert set(json.loads(json.dumps(obs.state_dict()))) == STATE_KEYS

    def test_aggregate_keys_and_values_match_the_field_list(self):
        rows = [_non_default_summary(0), _non_default_summary(1)]
        rows.append(RunSummary(arm="random"))
        agg = aggregate_summaries(rows)
        by_arm = agg.pop("by_arm")
        assert agg == _explicit_aggregate(rows)
        assert list(by_arm) == ["arm-0", "arm-1", "random"]
        assert aggregate_summaries([]) == dict(
            _explicit_aggregate([]), by_arm={}
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda: hooks.add_hook("nope", print),
            lambda: hooks.remove_hook("nope", print),
            lambda: hooks.notify("nope", 1),
            lambda: hooks.hooks_active("nope"),
        ],
        ids=["add_hook", "remove_hook", "notify", "hooks_active"],
    )
    def test_unknown_hook_point_raises(self, call):
        with pytest.raises(ValueError, match="unknown hook point 'nope'"):
            call()

    def test_unknown_point_raises_while_capturing(self):
        buffer = hooks.capture_begin()
        try:
            with pytest.raises(ValueError):
                hooks.notify("nope", 1)
        finally:
            hooks.capture_end(buffer)
        assert buffer == []

    def test_hooks_deliver_by_point(self):
        seen = []
        hooks.add_hook("refit_reuse", seen.append)
        try:
            assert hooks.hooks_active("refit_reuse")
            assert not hooks.hooks_active("measure")
            hooks.notify("refit_reuse", 3)
            hooks.notify("measure", "serial", 2, 0.0)
        finally:
            hooks.remove_hook("refit_reuse", seen.append)
        assert seen == [3]
        assert not hooks.hooks_active("refit_reuse")

    @pytest.mark.parametrize("speculate", [False, True])
    @pytest.mark.parametrize("arm", sorted(ARM_KWARGS))
    def test_resumed_metrics_equal_uninterrupted(
        self, tmp_path, dense_task, arm, speculate
    ):
        executor = SerialExecutor if speculate else None

        def tuner():
            return make_tuner(
                arm, dense_task, seed=5, executor=executor,
                **ARM_KWARGS[arm],
            )

        baseline_obs = TuningObserver()
        baseline = tuner()
        try:
            baseline.tune(
                n_trial=24, early_stopping=None, on_event=[baseline_obs]
            )
        finally:
            baseline.shutdown()
        path = tmp_path / "run.ckpt"
        crashed = tuner()
        try:
            _crash_after(crashed, 2, path, 24, on_event=[TuningObserver()])
        finally:
            crashed.shutdown()
        resumed_obs = TuningObserver()
        resumed = tuner()
        try:
            resumed.resume(path, on_event=[resumed_obs])
        finally:
            resumed.shutdown()
        counts = _metric_counts(resumed_obs.metrics)
        assert counts == _metric_counts(baseline_obs.metrics)
        assert counts["measurements_total"] == 24
        assert resumed_obs.metrics.get("resumes_total").value == 1


class TestCallbackResume:
    def test_legacy_count_seeded_from_measurements(
        self, tmp_path, dense_task
    ):
        class Legacy:
            """Count-keeping callback without the state protocol."""

            def __init__(self):
                self._count = 0

            def __call__(self, tuner, results):
                self._count += len(results)

        path = tmp_path / "run.ckpt"
        crashed = make_tuner("random", dense_task, seed=3, batch_size=8)
        _crash_after(crashed, 2, path, 32, callbacks=[Legacy()])

        fresh = Legacy()
        resumed = make_tuner("random", dense_task, seed=3, batch_size=8)
        result = resumed.resume(path, callbacks=[fresh])
        assert fresh._count == result.num_measurements

    def test_log_progress_resume_tail_matches_uninterrupted(
        self, tmp_path, dense_task, caplog
    ):
        interval, n_trial = 8, 32

        def lines():
            # (boundary, best GFLOPS) per emitted progress line; the
            # elapsed-seconds arg is wall clock and excluded
            return [
                (r.args[1], r.args[2])
                for r in caplog.records
                if r.name == "repro.core.callbacks"
            ]

        with caplog.at_level(logging.INFO, logger="repro.core.callbacks"):
            baseline = make_tuner("random", dense_task, seed=3, batch_size=8)
            baseline.tune(
                n_trial=n_trial,
                early_stopping=None,
                callbacks=[LogProgress(interval=interval)],
            )
            full = lines()
            assert [b for b, _ in full] == [8, 16, 24, 32]

            caplog.clear()
            path = tmp_path / "run.ckpt"
            crashed = make_tuner("random", dense_task, seed=3, batch_size=8)
            _crash_after(
                crashed, 2, path, n_trial,
                callbacks=[LogProgress(interval=interval)],
            )
            head = lines()
            assert [b for b, _ in head] == [8, 16]

            caplog.clear()
            resumed = make_tuner("random", dense_task, seed=3, batch_size=8)
            resumed.resume(path, callbacks=[LogProgress(interval=interval)])
            tail = lines()

        # the resumed callback continues exactly where the crashed run
        # stopped: no repeats, no resets, values identical to baseline
        assert tail == full[len(head):]


class TestRunSummary:
    def test_deterministic_dict_drops_wall_clock_and_resumed(self):
        s = RunSummary(task="t", wall_s=1.0, proposal_s=0.5, resumed=True)
        det = s.deterministic_dict()
        for key in ("wall_s", "proposal_s", "measure_s", "refit_s",
                    "resumed"):
            assert key not in det
        assert det["task"] == "t"

    def test_from_dict_filters_unknown_keys(self):
        s = RunSummary.from_dict({"task": "x", "not_a_field": 3})
        assert s.task == "x"

    def test_aggregate_sums_and_groups_by_arm(self):
        rows = [
            RunSummary(arm="bted", batches=2, best_gflops=5.0, wall_s=1.0),
            RunSummary(arm="bted", batches=3, best_gflops=7.0, wall_s=2.0),
            RunSummary(arm="random", batches=1, best_gflops=2.0,
                       early_stopped=True),
        ]
        agg = aggregate_summaries(rows)
        assert agg["runs"] == 3
        assert agg["batches"] == 6
        assert agg["best_gflops"] == 7.0
        assert agg["early_stopped"] == 1
        assert list(agg["by_arm"]) == ["bted", "random"]
        assert agg["by_arm"]["bted"]["runs"] == 2
        assert agg["by_arm"]["bted"]["wall_s"] == pytest.approx(3.0)

    def test_aggregate_summary_dir(self, tmp_path):
        write_summary_json(
            str(tmp_path / "cell-a.summary.json"),
            RunSummary(arm="bted", batches=2).to_dict(),
        )
        write_summary_json(
            str(tmp_path / "cell-b.summary.json"),
            {
                "model": "m", "arm": "bted", "trial": 0,
                "tasks": [RunSummary(arm="bted", batches=4).to_dict()],
            },
        )
        (tmp_path / "not-a-cell.json").write_text("{}")
        agg = aggregate_summary_dir(str(tmp_path))
        assert agg["cells"] == 2
        assert agg["runs"] == 2
        assert agg["batches"] == 6
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written == agg


class TestRunObservation:
    def _observed_run(self, task, key, observation, seed=3):
        obs = observation.observer(key)
        tuner = make_tuner("random", task, seed=seed, batch_size=8)
        tuner.tune(n_trial=16, early_stopping=None, on_event=[obs])

    def test_merged_spans_rebase_ids_and_tag_tasks(self, dense_task):
        observation = RunObservation()
        self._observed_run(dense_task, "task-001", observation)
        self._observed_run(dense_task, "task-000", observation, seed=4)
        assert observation.keys() == ["task-000", "task-001"]
        spans = observation.merged_spans()
        assert [s["span_id"] for s in spans] == list(range(len(spans)))
        first_len = len(observation.observer("task-000").trace.spans)
        assert spans[0]["attrs"]["task_key"] == "task-000"
        assert spans[first_len]["attrs"]["task_key"] == "task-001"
        # parents stay within each task's rebased id range
        for span in spans[first_len:]:
            if span["parent_id"] is not None:
                assert span["parent_id"] >= first_len

    def test_exporters_write_files(self, tmp_path, dense_task):
        observation = RunObservation()
        self._observed_run(dense_task, "task-000", observation)
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"
        summary = tmp_path / "summary.json"
        observation.write_metrics(str(metrics))
        observation.write_trace_jsonl(str(trace))
        observation.write_summary(str(summary))
        assert "repro_measurements_total 16" in metrics.read_text()
        assert all(
            json.loads(line)
            for line in trace.read_text().splitlines()
        )
        payload = json.loads(summary.read_text())
        assert payload["runs"] == 1
        assert payload["tasks"][0]["num_measurements"] == 16


class TestEngineSummaries:
    def test_fig5_summary_dir_aggregates_cells(self, tmp_path):
        settings = ExperimentSettings(
            init_size=16, n_trial=32, early_stopping=None, batch_size=16,
            batch_candidates=64, num_batches=2, num_runs=100, num_trials=1,
            env_seed=7,
        )
        out = tmp_path / "summaries"
        run_fig5(
            arms=("random",), settings=settings, num_trials=1, max_tasks=1,
            summary_dir=str(out),
        )
        cells = sorted(p.name for p in out.glob("cell-*.summary.json"))
        assert len(cells) == 1
        agg = json.loads((out / "summary.json").read_text())
        assert agg["cells"] == 1
        assert agg["runs"] == 1
        assert agg["num_measurements"] == 32


#: what observer state written before the measurement cache was removed
#: carries on top of today's: two summary counts and two metric counters
LEGACY_CACHE_COUNTS = {"cache_hits": 7, "cache_misses": 11}
LEGACY_CACHE_METRICS = {
    "cache_hits_total": {
        "type": "counter", "help": "measurement cache hits",
        "state": {"value": 7.0},
    },
    "cache_misses_total": {
        "type": "counter", "help": "measurement cache misses",
        "state": {"value": 11.0},
    },
}


def _with_legacy_cache_entries(state: dict) -> dict:
    """An observer state as the version with the cache wrote it."""
    state = dict(state, **LEGACY_CACHE_COUNTS)
    assert state["metrics"] is not None
    state["metrics"] = dict(state["metrics"], **LEGACY_CACHE_METRICS)
    return state


def _add_legacy_cache_entries_to_checkpoint(path) -> None:
    """Rewrite a checkpoint's observer sink state to the cache version."""
    from repro.core.checkpoint import TuningCheckpoint

    saved = TuningCheckpoint.load(path)
    payload = pickle.loads(saved.payload)
    (sink,) = [s for s in payload["sink_states"] if s is not None]
    sink["state"] = _with_legacy_cache_entries(sink["state"])
    dataclasses.replace(saved, payload=pickle.dumps(payload)).save(path)


def _prometheus_counters(text: str) -> dict:
    """Counter values of a Prometheus text snapshot, resume counters out."""
    counters = {
        line.split()[2]
        for line in text.splitlines()
        if line.startswith("# TYPE ") and line.endswith(" counter")
    }
    skipped = {"repro_" + name for name in RESUME_COUNTERS}
    return {
        name: value
        for name, value in (
            line.split() for line in text.splitlines()
            if not line.startswith("#")
        )
        if name in counters and name not in skipped
    }


class _CrashingObserver(TuningObserver):
    """An observer sink that fails its tune after N events."""

    def __init__(self, after: int):
        super().__init__(enable_trace=False)
        self.after = after
        self.seen = 0

    def __call__(self, tuner, event) -> None:
        super().__call__(tuner, event)
        self.seen += 1
        if self.seen >= self.after:
            raise RuntimeError("simulated crash")


# checkpointed sink state is keyed by class name; a real crash leaves
# ordinary observer state behind, so the crash shim must too
_CrashingObserver.__name__ = "TuningObserver"


class _CrashingObservation(RunObservation):
    def __init__(self, crash_key: str, after: int):
        super().__init__(enable_trace=False)
        self._observers[crash_key] = _CrashingObserver(after)


def _tiny_model():
    from repro.nn.graph import GraphBuilder

    b = GraphBuilder("legacy-obs")
    b.input((1, 3, 16, 16))
    b.conv2d("c1", 8, padding=(1, 1))
    b.relu("r1")
    b.conv2d("c2", 12, padding=(1, 1))
    b.relu("r2")
    b.flatten("f")
    b.dense("fc", 10)
    return b.graph


def _compile(observation, ckpt_dir=None, resume=False):
    """Records and per-task summaries of a small ``bted+bao`` compile."""
    from repro.pipeline.compiler import DeploymentCompiler
    from repro.pipeline.records import RecordStore

    store = RecordStore()
    DeploymentCompiler(_tiny_model(), env_seed=123).tune(
        "bted+bao",
        n_trial=20,
        early_stopping=None,
        tuner_kwargs=ARM_KWARGS["bted+bao"],
        record_store=store,
        checkpoint_dir=ckpt_dir,
        resume=resume,
        observation=observation,
    )
    summaries = {
        key: observation.observer(key).summary().deterministic_dict()
        for key in observation.keys()
    }
    counters = _prometheus_counters(
        observation.merged_metrics().render_prometheus()
    )
    return [r.to_json() for r in store], summaries, counters


class TestLegacyCacheState:
    """Observer state written while the measurement cache existed."""

    def test_state_with_cache_entries_loads(self, tmp_path, dense_task):
        obs = TuningObserver()
        tuner = make_tuner("bted", dense_task, seed=5, **ARM_KWARGS["bted"])
        _crash_after(tuner, 1, tmp_path / "c.ckpt", 24, on_event=[obs])
        state = _with_legacy_cache_entries(
            json.loads(json.dumps(obs.state_dict()))
        )
        fresh = TuningObserver()
        fresh.load_state_dict(state)
        assert (
            fresh.summary().deterministic_dict()
            == obs.summary().deterministic_dict()
        )
        assert "cache_hits" not in fresh.summary().to_dict()
        assert fresh.trace.span_skeletons() == obs.trace.span_skeletons()
        assert _prometheus_counters(
            fresh.metrics.render_prometheus()
        ) == _prometheus_counters(obs.metrics.render_prometheus())

    def test_resumed_counters_equal_uninterrupted(self, tmp_path, dense_task):
        def tuner():
            return make_tuner(
                "bted", dense_task, seed=5, **ARM_KWARGS["bted"]
            )

        baseline = TuningObserver()
        tuner().tune(n_trial=24, early_stopping=None, on_event=[baseline])
        path = tmp_path / "c.ckpt"
        _crash_after(tuner(), 1, path, 24, on_event=[TuningObserver()])
        _add_legacy_cache_entries_to_checkpoint(path)
        resumed = TuningObserver()
        tuner().resume(path, on_event=[resumed])
        text = resumed.metrics.render_prometheus()
        assert "cache" not in text
        assert "repro_executor_batches_serial_total" in text
        assert _prometheus_counters(text) == _prometheus_counters(
            baseline.metrics.render_prometheus()
        )

    def test_compile_resumes_from_legacy_states(self, tmp_path):
        baseline = _compile(RunObservation(enable_trace=False))
        ckpt = tmp_path / "ckpt"
        # task 0 finishes; task 1 fails mid-tune with a checkpoint behind
        with pytest.raises(RuntimeError, match="simulated crash"):
            _compile(_CrashingObservation("task-001", 12), ckpt)
        finished = sorted(ckpt.glob("*.obs.json"))
        assert [p.name for p in finished] == ["task-000.obs.json"]
        for path in finished:
            state = json.loads(path.read_text())
            path.write_text(json.dumps(_with_legacy_cache_entries(state)))
        _add_legacy_cache_entries_to_checkpoint(ckpt / "task-001.ckpt")
        resumed = _compile(RunObservation(enable_trace=False), ckpt, True)
        assert resumed == baseline
        assert "repro_executor_batches_serial_total" in resumed[2]

    def test_aggregate_summary_dir_reads_cells_with_cache_keys(
        self, tmp_path
    ):
        write_summary_json(
            str(tmp_path / "cell-a.summary.json"),
            dict(RunSummary(arm="bted", batches=2).to_dict(),
                 **LEGACY_CACHE_COUNTS),
        )
        write_summary_json(
            str(tmp_path / "cell-b.summary.json"),
            {
                "model": "m", "arm": "bted", "trial": 0,
                "tasks": [
                    dict(RunSummary(arm="bted", batches=4).to_dict(),
                         **LEGACY_CACHE_COUNTS),
                ],
            },
        )
        agg = aggregate_summary_dir(str(tmp_path))
        assert agg["cells"] == 2
        assert agg["runs"] == 2
        assert agg["batches"] == 6
        assert not any(key.startswith("cache_") for key in agg)
