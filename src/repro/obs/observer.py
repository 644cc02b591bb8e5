"""The event-stream observer: TuningEvents -> metrics + trace + summary.

:class:`TuningObserver` is an ``on_event`` sink for :meth:`Tuner.tune`.
It dispatches on ``event.kind`` strings and duck-types event
attributes, so this module imports nothing from :mod:`repro.core` and
the core never imports the observer — the event stream is the only
coupling, in one direction.

Span catalog (see ``docs/OBSERVABILITY.md``):

========  ========================================================
span      one per
========  ========================================================
tune      tuning run (root; all other spans are descendants)
step      measured batch (opens at proposal, closes at measurement)
propose   search-policy proposal (child of step)
measure   executor deployment of the batch (child of step)
refit     surrogate-model refit (child of tune; via the hook bus)
========  ========================================================

Fault retries, scope widenings, checkpoints and resumes are counters
(and summary fields), *not* spans: checkpoint cadence differs between
a resumed and an uninterrupted run by construction, and keeping those
out of the trace is what lets span skeletons stay bit-identical across
a crash/resume cycle.

The observer itself implements the callback state protocol
(``state_dict``/``load_state_dict``), so :meth:`Tuner.snapshot`
checkpoints it and :meth:`Tuner.resume` restores it — a resumed run's
summary and trace skeletons are identical to an uninterrupted run's.
"""

from __future__ import annotations

import time
from dataclasses import asdict, fields, replace
from typing import Any, Dict, List, Optional

from repro.obs import hooks
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import (
    RunSummary,
    aggregate_summaries,
    write_summary_json,
)
from repro.obs.trace import TraceRecorder

#: bucket edges for batch-size histograms (configs per batch)
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: counters every observer declares, with their help text
_COUNTERS = (
    ("batches_total", "measured batches"),
    ("measurements_total", "configurations measured"),
    ("measurement_errors_total", "failed measurements"),
    ("improvements_total", "incumbent improvements"),
    ("widenings_total", "BAO scope widenings"),
    ("retries_total", "measurements recovered by retry"),
    ("failures_total", "measurements exhausting retries"),
    ("refits_total", "surrogate-model refits"),
    ("checkpoints_total", "checkpoints written"),
    ("resumes_total", "runs resumed from checkpoint"),
    ("early_stops_total", "early-stopping triggers"),
    ("space_exhausted_total", "search-space exhaustions"),
    ("tlog_exact_hits_total", "tasks served from the tuning log"),
    ("tlog_warm_starts_total", "tasks warm-started from the log"),
    ("tlog_warm_configs_total", "seed configs injected by warm starts"),
    (
        "tlog_cross_device_sources_total",
        "warm-start source segments measured on another device class",
    ),
    ("exploit_steps_total", "coordinate-descent axis sweeps proposed"),
    ("pruned_candidates_total", "proposals dropped by adaptive sampling"),
    ("finish_phases_total", "handoffs to a finishing search policy"),
    ("speculations_total", "speculative proposals resolved"),
    (
        "speculation_replays_total",
        "speculations discarded and replayed serially",
    ),
    ("refit_reused_trees_total", "trees carried over by incremental refits"),
)

#: events that only count or set a flag: kind -> (RunSummary field or
#: None, counter)
_COUNTED = {
    "scope_widened": ("widenings", "widenings_total"),
    "bao_scope_widened": ("widenings", "widenings_total"),
    "early_stopped": ("early_stopped", "early_stops_total"),
    "space_exhausted": ("space_exhausted", "space_exhausted_total"),
    "measurement_retried": ("retries", "retries_total"),
    "measurement_failed": ("failures", "failures_total"),
    "checkpoint_saved": (None, "checkpoints_total"),
    "tuning_resumed": ("resumed", "resumes_total"),
    "tlog_exact_hit": (None, "tlog_exact_hits_total"),
    "exploit_stepped": ("exploit_steps", "exploit_steps_total"),
}

#: state_dict keys that differ from the RunSummary field they carry;
#: every other field is stored under its own name
_STATE_KEYS = {
    "num_measurements": "measured",
    "num_errors": "errors",
    "best_gflops": "best",
    "best_curve": "curve",
}

#: name prefix of the counters the observer creates lazily, one per
#: executor backend seen (``executor_batches_<backend>_total``)
_EXECUTOR_COUNTER_PREFIX = "executor_batches_"


class TuningObserver:
    """Subscribe to one tuning run; produce metrics, trace and summary.

    Pass ``enable_metrics=False`` or ``enable_trace=False`` to disable
    either output; the deterministic :class:`RunSummary` is always
    maintained.  That summary is the observer's whole record of run
    facts: its unrounded incumbent, the curve, the counts and flags,
    and the wall-clock accumulators (``wall_s`` holds the offset
    carried across resumes).
    """

    def __init__(self, enable_metrics: bool = True, enable_trace: bool = True):
        self.metrics = MetricsRegistry() if enable_metrics else None
        self.trace = TraceRecorder() if enable_trace else None
        self._t0 = time.perf_counter()
        self._run = RunSummary()
        # span bookkeeping
        self._root_id: Optional[int] = None
        self._step_id: Optional[int] = None
        self._hooks = {
            "refit": self._on_refit,
            "measure": self._on_measure,
            "refit_reuse": self._on_refit_reuse,
        }
        self._hooks_active = False
        if self.metrics is not None:
            self._declare_metrics(self.metrics)
        self._dispatch = {
            "batch_proposed": self._on_batch_proposed,
            "batch_measured": self._on_batch_measured,
            "incumbent_improved": self._on_incumbent_improved,
            "warm_started": self._on_warm_started,
            "candidates_pruned": self._on_candidates_pruned,
            "finish_phase_started": self._on_finish_phase_started,
            "speculation_resolved": self._on_speculation_resolved,
        }

    @staticmethod
    def _declare_metrics(m: MetricsRegistry) -> None:
        for name, help in _COUNTERS:
            m.counter(name, help)
        m.gauge("best_gflops", "best throughput so far")
        m.gauge("measured", "configurations measured so far")
        m.histogram("proposal_seconds", "proposal wall time per batch")
        m.histogram("measure_seconds", "measurement wall time per batch")
        m.histogram("refit_seconds", "refit wall time")
        m.histogram(
            "batch_size", "configs per measured batch", BATCH_SIZE_BUCKETS
        )

    # ---- lifecycle (called by Tuner.tune) ----------------------------

    def on_tune_begin(self, tuner, n_trial: int = 0, resumed: bool = False):
        """Capture run identity, open the root span, register hooks."""
        run = self._run
        run.arm = str(getattr(tuner, "name", "") or "")
        task = getattr(tuner, "task", None)
        workload = getattr(task, "workload", None)
        if workload is not None:
            run.task = str(workload)
        seed = getattr(tuner, "seed", None)
        if seed is not None:
            run.seed = int(seed)
        if self.trace is not None and self._root_id is None:
            self._root_id = self.trace.open_span(
                "tune",
                step=0,
                attrs={
                    "task": run.task,
                    "arm": run.arm,
                    "seed": run.seed,
                    "n_trial": int(n_trial),
                },
            )
        if not self._hooks_active:
            for point, hook in self._hooks.items():
                hooks.add_hook(point, hook)
            self._hooks_active = True

    def on_tune_end(self, tuner) -> None:
        """Unregister hooks and close the root span (idempotent)."""
        if self._hooks_active:
            for point, hook in self._hooks.items():
                hooks.remove_hook(point, hook)
            self._hooks_active = False
        if self.trace is not None and self._root_id is not None:
            root = self.trace.spans[self._root_id]
            if root["duration_s"] is None:
                self.trace.close_span(
                    self._root_id,
                    attrs={
                        "num_measurements": self._run.num_measurements,
                        "early_stopped": self._run.early_stopped,
                        "space_exhausted": self._run.space_exhausted,
                    },
                )

    # ---- event dispatch ----------------------------------------------

    def __call__(self, tuner, event) -> None:
        counted = _COUNTED.get(event.kind)
        if counted is not None:
            self._count(*counted)
            return
        handler = self._dispatch.get(event.kind)
        if handler is not None:
            handler(event)

    def _count(
        self, field: Optional[str], counter: str, amount: int = 1
    ) -> None:
        """Add ``amount`` to a summary field (or set its flag) and counter."""
        if field is not None:
            value = getattr(self._run, field)
            setattr(
                self._run,
                field,
                True if isinstance(value, bool) else value + amount,
            )
        if self.metrics is not None:
            self.metrics.get(counter).inc(amount)

    def _on_batch_proposed(self, event) -> None:
        proposal_s = float(getattr(event, "proposal_s", 0.0))
        self._run.proposal_s += proposal_s
        n = len(getattr(event, "config_indices", ()))
        if self.metrics is not None:
            self.metrics.get("proposal_seconds").observe(proposal_s)
        if self.trace is not None:
            self._step_id = self.trace.open_span(
                "step", step=int(event.step), parent_id=self._root_id
            )
            self.trace.record(
                "propose",
                step=int(event.step),
                parent_id=self._step_id,
                duration_s=proposal_s,
                start_s=self.trace.now() - proposal_s,
                attrs={"n_configs": n},
            )

    def _on_batch_measured(self, event) -> None:
        results = getattr(event, "results", ())
        measure_s = float(getattr(event, "measure_s", 0.0))
        num_ok = sum(1 for r in results if getattr(r, "ok", False))
        batch_best = max(
            (float(r.gflops) for r in results if getattr(r, "ok", False)),
            default=0.0,
        )
        run = self._run
        run.measure_s += measure_s
        run.num_measurements = int(event.step)
        run.best_gflops = max(run.best_gflops, batch_best)
        run.best_curve.append(round(run.best_gflops, 6))
        self._count("batches", "batches_total")
        self._count(
            "num_errors", "measurement_errors_total", len(results) - num_ok
        )
        if self.metrics is not None:
            self.metrics.get("measurements_total").inc(len(results))
            self.metrics.get("measure_seconds").observe(measure_s)
            self.metrics.get("batch_size").observe(len(results))
            self.metrics.get("measured").set(run.num_measurements)
            self.metrics.get("best_gflops").set(run.best_gflops)
        if self.trace is not None:
            parent = self._step_id
            self.trace.record(
                "measure",
                step=int(event.step),
                parent_id=parent,
                duration_s=measure_s,
                start_s=self.trace.now() - measure_s,
                attrs={"n_configs": len(results), "num_ok": num_ok},
            )
            if parent is not None:
                self.trace.close_span(
                    parent, attrs={"best_gflops": round(run.best_gflops, 6)}
                )
                self._step_id = None

    def _on_incumbent_improved(self, event) -> None:
        run = self._run
        run.best_index = int(getattr(event, "config_index", -1))
        run.best_gflops = max(
            run.best_gflops, float(getattr(event, "gflops", 0.0))
        )
        self._count("improvements", "improvements_total")
        if self.metrics is not None:
            self.metrics.get("best_gflops").set(run.best_gflops)

    def _on_warm_started(self, event) -> None:
        self._count(None, "tlog_warm_starts_total")
        self._count(
            None, "tlog_warm_configs_total", int(getattr(event, "injected", 0))
        )
        cross = int(getattr(event, "cross_sources", 0))
        if cross:
            self._count(None, "tlog_cross_device_sources_total", cross)

    def _on_candidates_pruned(self, event) -> None:
        proposed = int(getattr(event, "proposed", 0))
        kept = int(getattr(event, "kept", 0))
        self._count(
            "pruned_candidates", "pruned_candidates_total",
            max(0, proposed - kept),
        )

    def _on_finish_phase_started(self, event) -> None:
        self._run.finish_phase = str(getattr(event, "policy", "") or "")
        self._count(None, "finish_phases_total")

    def _on_speculation_resolved(self, event) -> None:
        self._count("speculations", "speculations_total")
        if not bool(getattr(event, "adopted", True)):
            self._count("speculation_replays", "speculation_replays_total")
        self._run.pipeline_overlap_s += float(getattr(event, "overlap_s", 0.0))

    # ---- hook-bus callbacks ------------------------------------------

    def _on_refit(self, rows: int, duration_s: float, kind: str) -> None:
        self._count("refits", "refits_total")
        self._run.refit_s += duration_s
        if self.metrics is not None:
            self.metrics.get("refit_seconds").observe(duration_s)
        if self.trace is not None:
            self.trace.record(
                "refit",
                step=self._run.num_measurements,
                parent_id=self._root_id,
                duration_s=duration_s,
                start_s=self.trace.now() - duration_s,
                attrs={"rows": int(rows), "kind": kind},
            )

    def _on_measure(self, backend: str, n: int, duration_s: float) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                f"{_EXECUTOR_COUNTER_PREFIX}{backend}_total",
                f"batches deployed by the {backend} executor",
            ).inc()

    def _on_refit_reuse(self, reused_trees: int) -> None:
        self._count(
            "refit_reused_trees", "refit_reused_trees_total", int(reused_trees)
        )

    # ---- outputs ------------------------------------------------------

    def wall_s(self) -> float:
        """Wall-clock seconds observed, carried across resumes."""
        return self._run.wall_s + (time.perf_counter() - self._t0)

    def summary(self) -> RunSummary:
        """The deterministic digest of the run observed so far."""
        return replace(
            self._run,
            best_gflops=round(self._run.best_gflops, 6),
            best_curve=list(self._run.best_curve),
            wall_s=self.wall_s(),
        )

    # ---- checkpoint state protocol -----------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable resumable state (run facts, metrics, spans)."""
        state = {
            _STATE_KEYS.get(name, name): value
            for name, value in asdict(self._run).items()
        }
        state.update(
            wall_s=self.wall_s(),
            root_id=self._root_id,
            step_id=self._step_id,
            metrics=(
                self.metrics.state_dict() if self.metrics is not None else None
            ),
            trace=self.trace.state_dict() if self.trace is not None else None,
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore from :meth:`state_dict`; clocks re-anchor to now.

        Keys this version does not know (counts of retired features)
        are ignored; so are restored metrics the observer neither
        declares nor creates itself, so a resumed run exports the same
        series as an uninterrupted one.
        """
        self._run = RunSummary()
        for f in fields(RunSummary):
            key = _STATE_KEYS.get(f.name, f.name)
            if key in state:
                value = state[key]
                setattr(
                    self._run,
                    f.name,
                    list(value) if isinstance(value, list) else value,
                )
        self._t0 = time.perf_counter()
        self._root_id = state.get("root_id")
        self._step_id = state.get("step_id")
        if state.get("metrics") is not None:
            if self.metrics is None:
                self.metrics = MetricsRegistry()
                self._declare_metrics(self.metrics)
            self.metrics.load_state_dict(
                {
                    name: entry
                    for name, entry in state["metrics"].items()
                    if name in self.metrics
                    or name.startswith(_EXECUTOR_COUNTER_PREFIX)
                }
            )
        if state.get("trace") is not None:
            if self.trace is None:
                self.trace = TraceRecorder()
            self.trace.load_state_dict(state["trace"])


class RunObservation:
    """A bundle of per-task observers for a multi-task run.

    :class:`~repro.pipeline.compiler.DeploymentCompiler` tunes one
    tuner per network task; each gets its own observer (own metric
    registry + trace) keyed by a stable task key, and this class
    merges them into run-level exporter outputs.
    """

    def __init__(self, enable_metrics: bool = True, enable_trace: bool = True):
        self.enable_metrics = enable_metrics
        self.enable_trace = enable_trace
        self._observers: Dict[str, TuningObserver] = {}

    def observer(self, key: str) -> TuningObserver:
        """Get or create the observer for one task key."""
        obs = self._observers.get(key)
        if obs is None:
            obs = self._observers[key] = TuningObserver(
                enable_metrics=self.enable_metrics,
                enable_trace=self.enable_trace,
            )
        return obs

    def keys(self) -> List[str]:
        return sorted(self._observers)

    def __len__(self) -> int:
        return len(self._observers)

    def summaries(self) -> List[RunSummary]:
        """Per-task summaries, in sorted key order."""
        return [self._observers[k].summary() for k in self.keys()]

    def merged_metrics(self) -> MetricsRegistry:
        """One registry with every task's metrics folded together."""
        merged = MetricsRegistry()
        for key in self.keys():
            obs = self._observers[key]
            if obs.metrics is not None:
                merged.merge(obs.metrics)
        return merged

    def merged_spans(self) -> List[Dict[str, Any]]:
        """All tasks' spans concatenated with globally unique ids.

        Tasks are concatenated in sorted key order with span / parent
        ids rebased, and each span gains a ``task_key`` attribute — so
        the merged trace is deterministic whenever the per-task traces
        are.
        """
        merged: List[Dict[str, Any]] = []
        offset = 0
        for key in self.keys():
            obs = self._observers[key]
            if obs.trace is None:
                continue
            for span in obs.trace.spans:
                out = dict(span, attrs=dict(span["attrs"]))
                out["span_id"] = span["span_id"] + offset
                if span["parent_id"] is not None:
                    out["parent_id"] = span["parent_id"] + offset
                out["attrs"]["task_key"] = key
                merged.append(out)
            offset += len(obs.trace.spans)
        return merged

    def write_trace_jsonl(self, path: str) -> None:
        """Export the merged trace as JSONL."""
        import json

        from repro.utils.io import atomic_write_text

        lines = [
            json.dumps(span, sort_keys=True) for span in self.merged_spans()
        ]
        atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")

    def write_metrics(self, path: str) -> None:
        """Export merged metrics as a Prometheus text snapshot."""
        from repro.utils.io import atomic_write_text

        atomic_write_text(path, self.merged_metrics().render_prometheus())

    def write_summary(self, path: str) -> None:
        """Export the aggregate + per-task summaries as JSON."""
        rows = self.summaries()
        payload = aggregate_summaries(rows)
        payload["tasks"] = [s.to_dict() for s in rows]
        write_summary_json(path, payload)
