"""In-memory span recorder wrapped around the public entry points of each layer.

The traced run patches the layers' entry points (module functions and
class methods) with thin wrappers that record one span per call: name,
start, end, parent span and trace id, plus a few counts taken from the
call's arguments and result.  Spans stay in memory and are written out
when the run ends; :func:`layer_stats` derives each layer's busy time,
self time and call count from them.

Nothing here changes what a layer computes — wrappers pass arguments and
results through untouched — so a traced run must reproduce the untraced
run's outputs exactly (the benchmark checks this).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    """One timed call into a layer."""

    __slots__ = ("sid", "parent", "trace", "name", "t0", "t1", "thread", "attrs")

    def __init__(self, sid, parent, trace, name, t0, thread):
        self.sid = sid
        self.parent = parent
        self.trace = trace
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.thread = thread
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "parent": self.parent,
            "trace": self.trace,
            "name": self.name,
            "start": self.t0,
            "end": self.t1,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans from every thread; patches and restores layer entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span recording

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(
        self, name: str, parent: Optional[Span] = None, trace: Optional[str] = None
    ) -> Span:
        """Start a span; ``parent`` defaults to the thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        if trace is None:
            trace = parent.trace if parent is not None else f"{name}#{sid}"
        span = Span(
            sid,
            parent.sid if parent is not None else None,
            trace,
            name,
            time.perf_counter(),
            threading.current_thread().name,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------------
    # patching

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
        trace: Optional[Callable[[tuple], Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(span, args, kwargs, result)`` adds counts to the span;
        ``trace(args)`` may start a new trace id for the call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, trace=trace(args) if trace else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = 1
                raise
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_function(self, module_name: str, attr: str, name: str, **hooks) -> None:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(sys.modules[module_name], attr)
        for module in list(sys.modules.values()):
            module_id = getattr(module, "__name__", "") or ""
            if not module_id.startswith(("repro", "perfbench")):
                continue
            if module.__dict__.get(attr) is original:
                self.wrap(module, attr, name, **hooks)

    def wrap_methods(
        self, base: type, attrs: Iterable[str], name: str, **hooks
    ) -> None:
        """Wrap ``attrs`` on ``base`` and on every subclass that defines them."""
        classes = [base]
        seen = set()
        while classes:
            cls = classes.pop()
            if cls in seen:
                continue
            seen.add(cls)
            classes.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__:
                    self.wrap(cls, attr, name, **hooks)

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# the layer map: which entry points become which spans


def _count(key: str, fn: Callable[[tuple, dict, Any], float]):
    def after(span, args, kwargs, result):
        span.attrs[key] = fn(args, kwargs, result)

    return after


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.core.bao import BaoOptimizer
    from repro.core.bootstrap import BootstrapEnsemble
    from repro.core.checkpoint import TuningCheckpoint
    from repro.core.tuner import Tuner
    from repro.fleet.scheduler import FleetScheduler
    from repro.hardware.executor import MeasureExecutor
    from repro.pipeline.compiler import DeploymentCompiler
    from repro.service.client import ServiceClient
    from repro.service.runner import JobRunner
    from repro.service.store import JobStore
    from repro.space.space import ConfigSpace
    from repro.tlog.db import TuningLogDB

    # nn + pipeline.tasks
    tracer.wrap_function("repro.nn.zoo", "build_model", "nn.build_model")
    tracer.wrap_function(
        "repro.pipeline.tasks", "extract_tasks", "tasks.extract",
        after=_count("tasks", lambda a, k, r: len(r)),
    )
    # core.bted / core.ted
    tracer.wrap_function("repro.core.bted", "bted_select", "bted.select")
    tracer.wrap_function("repro.core.ted", "ted_select", "ted.select")
    # core.bootstrap
    tracer.wrap(
        BootstrapEnsemble, "fit", "bootstrap.fit",
        after=_count("rows", lambda a, k, r: len(_arg(a, k, 1, "X"))),
    )
    for attr in ("predict_stats", "predict_sum", "predict_mean", "predict_std"):
        tracer.wrap(
            BootstrapEnsemble, attr, "bootstrap.predict",
            after=_count("rows", lambda a, k, r: len(_arg(a, k, 1, "X"))),
        )
    # core.bao
    tracer.wrap_methods(
        BaoOptimizer, ("propose", "propose_batch"), "bao.propose",
        after=_count(
            "widened",
            lambda a, k, r: int(a[0].last_radius > a[0].settings.radius),
        ),
    )
    # space
    tracer.wrap_function(
        "repro.space.neighborhood", "sample_neighborhood", "space.neighborhood",
        after=_count("configs", lambda a, k, r: len(r)),
    )
    tracer.wrap(
        ConfigSpace, "feature_matrix", "space.features",
        after=_count("rows", lambda a, k, r: len(r)),
    )
    # core.tuner: one trace per task unless the task runs inside a job
    def task_trace(args):
        current = tracer.current()
        if current is not None and current.trace.startswith("job-"):
            return None
        return f"task:{args[0].task.name}"

    tracer.wrap_methods(Tuner, ("tune",), "tuner.tune", trace=task_trace)
    tracer.wrap_methods(
        Tuner, ("_generate_initial", "_generate_next"), "tuner.propose"
    )
    # hardware
    tracer.wrap_methods(
        MeasureExecutor, ("measure_batch",), "measure.batch",
        after=lambda span, a, k, r: span.attrs.update(
            configs=len(r), valid=sum(1 for x in r if x.ok)
        ),
    )
    # core.checkpoint + utils.io
    tracer.wrap(TuningCheckpoint, "save", "checkpoint.save")
    tracer.wrap_function(
        "repro.utils.io", "atomic_write_bytes", "io.atomic_write",
        after=_count("bytes", lambda a, k, r: len(_arg(a, k, 1, "data"))),
    )
    # tlog
    tracer.wrap(TuningLogDB, "__init__", "tlog.open")
    tracer.wrap(
        TuningLogDB, "lookup_exact", "tlog.lookup",
        after=_count(
            "hit", lambda a, k, r: int(any(x.ok and x.gflops > 0 for x in r or ()))
        ),
    )
    tracer.wrap(
        TuningLogDB, "record_task", "tlog.record",
        after=_count("records", lambda a, k, r: len(_arg(a, k, 2, "records"))),
    )
    # fleet: worker-thread task spans hang under the run span
    original_run = FleetScheduler.__dict__["run"]

    @functools.wraps(original_run)
    def traced_run(scheduler, tasks):
        span = tracer.open("fleet.run")
        run_task = scheduler.run_task

        def traced_task(task, device):
            child = tracer.open("fleet.task", parent=span)
            try:
                return run_task(task, device)
            finally:
                tracer.close(child)

        scheduler.run_task = traced_task
        try:
            result = original_run(scheduler, tasks)
        finally:
            scheduler.run_task = run_task
            tracer.close(span)
        span.attrs.update(tasks=len(result.results), steals=len(result.steals))
        return result

    FleetScheduler.run = traced_run
    tracer._undo.append((FleetScheduler, "run", original_run))
    # pipeline.compiler
    tracer.wrap(DeploymentCompiler, "tune", "compiler.tune")
    # service.store / service.runner / service.api (client side)
    for op in ("submit", "claim_next", "transition", "add_task_result", "get"):
        tracer.wrap(JobStore, op, f"store.{op}")
    tracer.wrap(
        JobRunner, "_run_job", "runner.job", trace=lambda a: a[1].job_id
    )
    tracer.wrap(ServiceClient, "_request", "http.request")
    return tracer


# ----------------------------------------------------------------------
# analysis


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may run on other threads and overlap each other; the
    covered part is the union of their intervals clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.sid: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        lo, hi = max(span.t0, parent.t0), min(span.t1, parent.t1)
        if hi > lo:
            children.setdefault(parent.sid, []).append((lo, hi))
    return {
        span.sid: span.duration - _union_length(children.get(span.sid, []))
        for span in spans
    }


def layer_stats(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: busy time, self time, calls and summed attributes.

    ``busy_s`` and ``calls`` count outermost spans only (a span nested
    in one of the same name adds no busy time); ``self_s`` sums every
    span's self time, so nesting is never counted twice.
    """
    by_id = {span.sid: span for span in spans}
    selfs = self_times(spans)
    stats: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = stats.setdefault(
            span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        entry["self_s"] += selfs[span.sid]
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if nested:
            continue
        entry["busy_s"] += span.duration
        entry["calls"] += 1
        for key, value in span.attrs.items():
            entry[key] = entry.get(key, 0) + value
    return stats


def write_spans(path: str, spans: List[Span]) -> None:
    """Write spans as JSON lines, in start order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s.t0):
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def covered_share(spans: List[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by at least one span."""
    wall = end - start
    if wall <= 0:
        return 0.0
    clipped = [
        (max(s.t0, start), min(s.t1, end)) for s in spans if s.t1 > start and s.t0 < end
    ]
    return _union_length(clipped) / wall
