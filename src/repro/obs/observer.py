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
from typing import Any, Dict, List, Optional, Sequence

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


class TuningObserver:
    """Subscribe to one tuning run; produce metrics, trace and summary.

    Pass ``metrics=None`` or ``trace=None`` to disable either output;
    the deterministic :class:`RunSummary` is always maintained.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        enable_metrics: bool = True,
        enable_trace: bool = True,
    ):
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry() if enable_metrics else None
        )
        self.trace = trace if trace is not None else (
            TraceRecorder() if enable_trace else None
        )
        self._t0 = time.perf_counter()
        self._wall_offset = 0.0
        # deterministic run facts (mirrored into RunSummary)
        self._task = ""
        self._arm = ""
        self._seed: Optional[int] = None
        self._measured = 0
        self._errors = 0
        self._batches = 0
        self._refits = 0
        self._improvements = 0
        self._widenings = 0
        self._retries = 0
        self._failures = 0
        self._tlog_hits = 0
        self._warm_starts = 0
        self._warm_injected = 0
        self._exploit_steps = 0
        self._pruned_candidates = 0
        self._speculations = 0
        self._speculation_replays = 0
        self._refit_reused_trees = 0
        self._finish_phase = ""
        self._best = 0.0
        self._best_index = -1
        self._curve: List[float] = []
        self._early_stopped = False
        self._space_exhausted = False
        self._resumed = False
        # wall-clock accumulators (non-deterministic)
        self._proposal_s = 0.0
        self._measure_s = 0.0
        self._refit_s = 0.0
        self._pipeline_overlap_s = 0.0
        # span bookkeeping
        self._root_id: Optional[int] = None
        self._step_id: Optional[int] = None
        self._hooks_active = False
        if self.metrics is not None:
            self._declare_metrics(self.metrics)
        self._dispatch = {
            "batch_proposed": self._on_batch_proposed,
            "batch_measured": self._on_batch_measured,
            "incumbent_improved": self._on_incumbent_improved,
            "scope_widened": self._on_scope_widened,
            "bao_scope_widened": self._on_scope_widened,
            "early_stopped": self._on_early_stopped,
            "space_exhausted": self._on_space_exhausted,
            "measurement_retried": self._on_retried,
            "measurement_failed": self._on_failed,
            "checkpoint_saved": self._on_checkpoint_saved,
            "tuning_resumed": self._on_tuning_resumed,
            "warm_started": self._on_warm_started,
            "tlog_exact_hit": self._on_tlog_exact_hit,
            "exploit_stepped": self._on_exploit_stepped,
            "candidates_pruned": self._on_candidates_pruned,
            "finish_phase_started": self._on_finish_phase_started,
            "speculation_resolved": self._on_speculation_resolved,
        }

    @staticmethod
    def _declare_metrics(m: MetricsRegistry) -> None:
        m.counter("batches_total", "measured batches")
        m.counter("measurements_total", "configurations measured")
        m.counter("measurement_errors_total", "failed measurements")
        m.counter("improvements_total", "incumbent improvements")
        m.counter("widenings_total", "BAO scope widenings")
        m.counter("retries_total", "measurements recovered by retry")
        m.counter("failures_total", "measurements exhausting retries")
        m.counter("refits_total", "surrogate-model refits")
        m.counter("checkpoints_total", "checkpoints written")
        m.counter("resumes_total", "runs resumed from checkpoint")
        m.counter("early_stops_total", "early-stopping triggers")
        m.counter("space_exhausted_total", "search-space exhaustions")
        m.counter("tlog_exact_hits_total", "tasks served from the tuning log")
        m.counter("tlog_warm_starts_total", "tasks warm-started from the log")
        m.counter(
            "tlog_warm_configs_total", "seed configs injected by warm starts"
        )
        m.counter(
            "tlog_cross_device_sources_total",
            "warm-start source segments measured on another device class",
        )
        m.counter(
            "exploit_steps_total", "coordinate-descent axis sweeps proposed"
        )
        m.counter(
            "pruned_candidates_total",
            "proposals dropped by adaptive sampling",
        )
        m.counter(
            "finish_phases_total", "handoffs to a finishing search policy"
        )
        m.counter(
            "speculations_total", "speculative proposals resolved"
        )
        m.counter(
            "speculation_replays_total",
            "speculations discarded and replayed serially",
        )
        m.counter(
            "refit_reused_trees_total",
            "trees carried over by incremental refits",
        )
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
        self._arm = str(getattr(tuner, "name", "") or "")
        task = getattr(tuner, "task", None)
        workload = getattr(task, "workload", None)
        if workload is not None:
            self._task = str(workload)
        seed = getattr(tuner, "seed", None)
        if seed is not None:
            self._seed = int(seed)
        if self.trace is not None and self._root_id is None:
            self._root_id = self.trace.open_span(
                "tune",
                step=0,
                attrs={
                    "task": self._task,
                    "arm": self._arm,
                    "seed": self._seed,
                    "n_trial": int(n_trial),
                },
            )
        if not self._hooks_active:
            hooks.add_refit_hook(self._on_refit)
            hooks.add_measure_hook(self._on_measure)
            hooks.add_refit_reuse_hook(self._on_refit_reuse)
            self._hooks_active = True

    def on_tune_end(self, tuner) -> None:
        """Unregister hooks and close the root span (idempotent)."""
        if self._hooks_active:
            hooks.remove_refit_hook(self._on_refit)
            hooks.remove_measure_hook(self._on_measure)
            hooks.remove_refit_reuse_hook(self._on_refit_reuse)
            self._hooks_active = False
        if self.trace is not None and self._root_id is not None:
            root = self.trace.spans[self._root_id]
            if root["duration_s"] is None:
                self.trace.close_span(
                    self._root_id,
                    attrs={
                        "num_measurements": self._measured,
                        "early_stopped": self._early_stopped,
                        "space_exhausted": self._space_exhausted,
                    },
                )

    def close(self) -> None:
        """Callback-protocol alias used when installed as a callback."""
        self.on_tune_end(None)

    # ---- event dispatch ----------------------------------------------

    def __call__(self, tuner, event) -> None:
        handler = self._dispatch.get(event.kind)
        if handler is not None:
            handler(event)

    def _on_batch_proposed(self, event) -> None:
        proposal_s = float(getattr(event, "proposal_s", 0.0))
        self._proposal_s += proposal_s
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
        self._measure_s += measure_s
        self._measured = int(event.step)
        self._errors += len(results) - num_ok
        self._batches += 1
        self._best = max(self._best, batch_best)
        self._curve.append(round(self._best, 6))
        if self.metrics is not None:
            self.metrics.get("batches_total").inc()
            self.metrics.get("measurements_total").inc(len(results))
            self.metrics.get("measurement_errors_total").inc(
                len(results) - num_ok
            )
            self.metrics.get("measure_seconds").observe(measure_s)
            self.metrics.get("batch_size").observe(len(results))
            self.metrics.get("measured").set(self._measured)
            self.metrics.get("best_gflops").set(self._best)
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
                    parent, attrs={"best_gflops": round(self._best, 6)}
                )
                self._step_id = None

    def _on_incumbent_improved(self, event) -> None:
        self._improvements += 1
        self._best_index = int(getattr(event, "config_index", -1))
        self._best = max(self._best, float(getattr(event, "gflops", 0.0)))
        if self.metrics is not None:
            self.metrics.get("improvements_total").inc()
            self.metrics.get("best_gflops").set(self._best)

    def _on_scope_widened(self, event) -> None:
        self._widenings += 1
        if self.metrics is not None:
            self.metrics.get("widenings_total").inc()

    def _on_early_stopped(self, event) -> None:
        self._early_stopped = True
        if self.metrics is not None:
            self.metrics.get("early_stops_total").inc()

    def _on_space_exhausted(self, event) -> None:
        self._space_exhausted = True
        if self.metrics is not None:
            self.metrics.get("space_exhausted_total").inc()

    def _on_retried(self, event) -> None:
        self._retries += 1
        if self.metrics is not None:
            self.metrics.get("retries_total").inc()

    def _on_failed(self, event) -> None:
        self._failures += 1
        if self.metrics is not None:
            self.metrics.get("failures_total").inc()

    def _on_checkpoint_saved(self, event) -> None:
        if self.metrics is not None:
            self.metrics.get("checkpoints_total").inc()

    def _on_tuning_resumed(self, event) -> None:
        self._resumed = True
        if self.metrics is not None:
            self.metrics.get("resumes_total").inc()

    def _on_warm_started(self, event) -> None:
        self._warm_starts += 1
        injected = int(getattr(event, "injected", 0))
        self._warm_injected += injected
        if self.metrics is not None:
            self.metrics.get("tlog_warm_starts_total").inc()
            self.metrics.get("tlog_warm_configs_total").inc(injected)
            cross = int(getattr(event, "cross_sources", 0))
            if cross:
                self.metrics.get("tlog_cross_device_sources_total").inc(cross)

    def _on_tlog_exact_hit(self, event) -> None:
        self._tlog_hits += 1
        if self.metrics is not None:
            self.metrics.get("tlog_exact_hits_total").inc()

    def _on_exploit_stepped(self, event) -> None:
        self._exploit_steps += 1
        if self.metrics is not None:
            self.metrics.get("exploit_steps_total").inc()

    def _on_candidates_pruned(self, event) -> None:
        proposed = int(getattr(event, "proposed", 0))
        kept = int(getattr(event, "kept", 0))
        self._pruned_candidates += max(0, proposed - kept)
        if self.metrics is not None:
            self.metrics.get("pruned_candidates_total").inc(
                max(0, proposed - kept)
            )

    def _on_finish_phase_started(self, event) -> None:
        self._finish_phase = str(getattr(event, "policy", "") or "")
        if self.metrics is not None:
            self.metrics.get("finish_phases_total").inc()

    def _on_speculation_resolved(self, event) -> None:
        self._speculations += 1
        adopted = bool(getattr(event, "adopted", True))
        if not adopted:
            self._speculation_replays += 1
        self._pipeline_overlap_s += float(getattr(event, "overlap_s", 0.0))
        if self.metrics is not None:
            self.metrics.get("speculations_total").inc()
            if not adopted:
                self.metrics.get("speculation_replays_total").inc()

    # ---- hook-bus callbacks ------------------------------------------

    def _on_refit(self, rows: int, duration_s: float, kind: str) -> None:
        self._refits += 1
        self._refit_s += duration_s
        if self.metrics is not None:
            self.metrics.get("refits_total").inc()
            self.metrics.get("refit_seconds").observe(duration_s)
        if self.trace is not None:
            self.trace.record(
                "refit",
                step=self._measured,
                parent_id=self._root_id,
                duration_s=duration_s,
                start_s=self.trace.now() - duration_s,
                attrs={"rows": int(rows), "kind": kind},
            )

    def _on_measure(self, backend: str, n: int, duration_s: float) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                f"executor_batches_{backend}_total",
                f"batches deployed by the {backend} executor",
            ).inc()

    def _on_refit_reuse(self, reused_trees: int) -> None:
        self._refit_reused_trees += int(reused_trees)
        if self.metrics is not None:
            self.metrics.get("refit_reused_trees_total").inc(
                int(reused_trees)
            )

    # ---- outputs ------------------------------------------------------

    def wall_s(self) -> float:
        """Wall-clock seconds observed, carried across resumes."""
        return self._wall_offset + (time.perf_counter() - self._t0)

    def summary(self) -> RunSummary:
        """The deterministic digest of the run observed so far."""
        return RunSummary(
            task=self._task,
            arm=self._arm,
            seed=self._seed,
            num_measurements=self._measured,
            num_errors=self._errors,
            best_index=self._best_index,
            best_gflops=round(self._best, 6),
            best_curve=list(self._curve),
            batches=self._batches,
            refits=self._refits,
            improvements=self._improvements,
            widenings=self._widenings,
            retries=self._retries,
            failures=self._failures,
            exploit_steps=self._exploit_steps,
            pruned_candidates=self._pruned_candidates,
            finish_phase=self._finish_phase,
            speculations=self._speculations,
            speculation_replays=self._speculation_replays,
            refit_reused_trees=self._refit_reused_trees,
            early_stopped=self._early_stopped,
            space_exhausted=self._space_exhausted,
            resumed=self._resumed,
            proposal_s=self._proposal_s,
            measure_s=self._measure_s,
            refit_s=self._refit_s,
            pipeline_overlap_s=self._pipeline_overlap_s,
            wall_s=self.wall_s(),
        )

    # ---- checkpoint state protocol -----------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable resumable state (counts, curve, spans)."""
        return {
            "task": self._task,
            "arm": self._arm,
            "seed": self._seed,
            "measured": self._measured,
            "errors": self._errors,
            "batches": self._batches,
            "refits": self._refits,
            "improvements": self._improvements,
            "widenings": self._widenings,
            "retries": self._retries,
            "failures": self._failures,
            "tlog_hits": self._tlog_hits,
            "warm_starts": self._warm_starts,
            "warm_injected": self._warm_injected,
            "exploit_steps": self._exploit_steps,
            "pruned_candidates": self._pruned_candidates,
            "speculations": self._speculations,
            "speculation_replays": self._speculation_replays,
            "refit_reused_trees": self._refit_reused_trees,
            "finish_phase": self._finish_phase,
            "best": self._best,
            "best_index": self._best_index,
            "curve": list(self._curve),
            "early_stopped": self._early_stopped,
            "space_exhausted": self._space_exhausted,
            "resumed": self._resumed,
            "proposal_s": self._proposal_s,
            "measure_s": self._measure_s,
            "refit_s": self._refit_s,
            "pipeline_overlap_s": self._pipeline_overlap_s,
            "wall_s": self.wall_s(),
            "root_id": self._root_id,
            "step_id": self._step_id,
            "metrics": (
                self.metrics.state_dict() if self.metrics is not None else None
            ),
            "trace": (
                self.trace.state_dict() if self.trace is not None else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore from :meth:`state_dict`; clocks re-anchor to now."""
        self._task = str(state.get("task", ""))
        self._arm = str(state.get("arm", ""))
        seed = state.get("seed")
        self._seed = None if seed is None else int(seed)
        self._measured = int(state.get("measured", 0))
        self._errors = int(state.get("errors", 0))
        self._batches = int(state.get("batches", 0))
        self._refits = int(state.get("refits", 0))
        self._improvements = int(state.get("improvements", 0))
        self._widenings = int(state.get("widenings", 0))
        self._retries = int(state.get("retries", 0))
        self._failures = int(state.get("failures", 0))
        self._tlog_hits = int(state.get("tlog_hits", 0))
        self._warm_starts = int(state.get("warm_starts", 0))
        self._warm_injected = int(state.get("warm_injected", 0))
        self._exploit_steps = int(state.get("exploit_steps", 0))
        self._pruned_candidates = int(state.get("pruned_candidates", 0))
        self._speculations = int(state.get("speculations", 0))
        self._speculation_replays = int(
            state.get("speculation_replays", 0)
        )
        self._refit_reused_trees = int(state.get("refit_reused_trees", 0))
        self._finish_phase = str(state.get("finish_phase", ""))
        self._best = float(state.get("best", 0.0))
        self._best_index = int(state.get("best_index", -1))
        self._curve = [float(v) for v in state.get("curve", [])]
        self._early_stopped = bool(state.get("early_stopped", False))
        self._space_exhausted = bool(state.get("space_exhausted", False))
        self._resumed = bool(state.get("resumed", False))
        self._proposal_s = float(state.get("proposal_s", 0.0))
        self._measure_s = float(state.get("measure_s", 0.0))
        self._refit_s = float(state.get("refit_s", 0.0))
        self._pipeline_overlap_s = float(
            state.get("pipeline_overlap_s", 0.0)
        )
        self._wall_offset = float(state.get("wall_s", 0.0))
        self._t0 = time.perf_counter()
        root_id = state.get("root_id")
        self._root_id = None if root_id is None else int(root_id)
        step_id = state.get("step_id")
        self._step_id = None if step_id is None else int(step_id)
        if state.get("metrics") is not None:
            if self.metrics is None:
                self.metrics = MetricsRegistry()
                self._declare_metrics(self.metrics)
            self.metrics.load_state_dict(state["metrics"])
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

    def load(self, key: str, state: dict) -> TuningObserver:
        """Restore a task observer from persisted JSON state."""
        obs = self.observer(key)
        obs.load_state_dict(state)
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
