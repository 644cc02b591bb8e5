"""Observability over the tuning event stream.

``repro.obs`` turns the structured :class:`TuningEvent` stream (plus a
few deep hooks in the ensemble and the executors) into three exports:

* a **Prometheus-style metrics snapshot** (:class:`MetricsRegistry`),
* a **JSONL span trace** (:class:`TraceRecorder`), and
* a deterministic per-run digest (:class:`RunSummary`) that
  :class:`~repro.experiments.engine.ExperimentEngine` aggregates
  across cells.

Import discipline: this package never imports from :mod:`repro.core`
or :mod:`repro.hardware` — the observer consumes events by their
``kind`` strings and the deep layers call the :mod:`repro.obs.hooks`
bus, so there are no cycles.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.hooks import POINTS, hooks_active, notify
from repro.obs.metrics import (
    Counter,
    DEFAULT_SECONDS_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import RunObservation, TuningObserver
from repro.obs.summary import (
    DURATION_FIELDS,
    RunSummary,
    aggregate_summaries,
    aggregate_summary_dir,
    write_summary_json,
)
from repro.obs.trace import (
    TraceRecorder,
    WALL_CLOCK_FIELDS,
    read_jsonl,
    skeletons_of,
)

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "DURATION_FIELDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POINTS",
    "RunObservation",
    "RunSummary",
    "TraceRecorder",
    "TuningObserver",
    "WALL_CLOCK_FIELDS",
    "aggregate_summaries",
    "aggregate_summary_dir",
    "hooks_active",
    "notify",
    "read_jsonl",
    "skeletons_of",
    "write_summary_json",
]
