"""Job execution: drain the queue onto the fleet, checkpoint, recover.

:class:`JobRunner` is the single worker loop of the tuning service.
It claims jobs from the :class:`~repro.service.queue.JobQueue` (one
at a time — priority order therefore *is* execution order) and runs
each through the existing
:meth:`~repro.pipeline.compiler.DeploymentCompiler.tune` machinery on
the service fleet, with three service-grade guarantees layered on
top:

* **Checkpointed execution**: every job tunes under its own
  checkpoint directory (``<data>/jobs/<job_id>/``), reusing the
  per-task/per-device checkpoint layout of the compiler, so nothing
  about the tuning loop had to change to become crash-safe.
* **Crash recovery**: on startup the runner finds jobs a previous
  service life left ``running`` and re-executes them with
  ``resume=True``.  Home-device identity and the checkpoint/resume
  contract make the resumed records bit-identical to an
  uninterrupted run — a SIGKILLed service finishes every in-flight
  job as if nothing happened.
* **Progress streaming**: a :class:`ProgressFeed` per job taps the
  existing :class:`~repro.core.events.TuningEvent` stream (via
  :class:`~repro.obs.TuningObserver` subclasses) and buffers
  cursor-addressable best-curve points plus per-task
  :class:`~repro.obs.RunSummary` snapshots for the polling endpoint.
  Per-task rows and ``task_done`` points arrive as tasks finish, in
  task order (each once it and every earlier task have finished), not
  when the job ends.

Results are durable as they arrive: per-task records and summaries
land in the store's ``tasks``/``records`` tables as each task is
handed on (idempotent upserts, so resume re-collection is safe), the
fleet scheduling report is attached to the job row when the job
finishes, and — when the service runs with a
tuning log — finished tasks contribute to the shared
:class:`~repro.tlog.TuningLogDB` so later jobs with the same task
signatures are served at zero measurement cost.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs import RunObservation, TuningObserver
from repro.service.jobs import Job
from repro.service.queue import JobQueue
from repro.service.store import JobStore
from repro.utils.log import get_logger

logger = get_logger("service.runner")


class ProgressFeed:
    """Cursor-addressable, thread-safe progress buffer of one job.

    Points are appended by tuning worker threads and drained by HTTP
    handler threads: ``since(cursor)`` returns every point past the
    cursor plus the next cursor, so a poll loop never misses or
    re-reads an update.  Task summaries are keyed snapshots (latest
    wins) — the "RunSummary delta" half of the progress payload.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._points: List[Dict[str, Any]] = []
        self._summaries: Dict[str, Dict[str, Any]] = {}

    def push(self, **point: Any) -> None:
        with self._lock:
            point["n"] = len(self._points)
            self._points.append(point)

    def update_summary(self, task_key: str, summary: Dict[str, Any]) -> None:
        with self._lock:
            self._summaries[task_key] = summary

    def since(self, cursor: int) -> Tuple[List[Dict[str, Any]], int]:
        cursor = max(0, int(cursor))
        with self._lock:
            return list(self._points[cursor:]), len(self._points)

    def summaries(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {k: dict(v) for k, v in self._summaries.items()}


class _FeedObserver(TuningObserver):
    """A task observer that also streams progress into a feed.

    Extends the stock observer (metrics/trace stay disabled — the
    deterministic summary is all the service needs) with a tap on the
    event stream: each measured batch pushes one best-curve point and
    refreshes the task's summary snapshot.  The tap only *reads* the
    observer state the superclass already maintains, so checkpointed
    observer state — and therefore resume bit-identity — is untouched.
    """

    def __init__(self, feed: ProgressFeed, task_key: str):
        super().__init__(enable_metrics=False, enable_trace=False)
        self._feed = feed
        self._task_key = task_key

    def __call__(self, tuner, event) -> None:
        super().__call__(tuner, event)
        kind = event.kind
        if kind == "batch_measured":
            summary = self.summary()
            self._feed.push(
                kind="batch",
                task=self._task_key,
                step=int(event.step),
                best_gflops=round(float(summary.best_gflops), 6),
            )
            self._feed.update_summary(
                self._task_key, summary.deterministic_dict()
            )
        elif kind in ("tuning_resumed", "tlog_exact_hit"):
            self._feed.push(kind=kind, task=self._task_key,
                            step=int(event.step))


class _FeedObservation(RunObservation):
    """A :class:`RunObservation` whose observers stream into a feed."""

    def __init__(self, feed: ProgressFeed):
        super().__init__(enable_metrics=False, enable_trace=False)
        self._feed = feed

    def observer(self, key: str) -> TuningObserver:
        obs = self._observers.get(key)
        if obs is None:
            obs = self._observers[key] = _FeedObserver(self._feed, key)
        return obs


class JobRunner:
    """The service's worker loop: claim, execute, persist, recover."""

    def __init__(
        self,
        store: JobStore,
        queue: JobQueue,
        data_dir: Union[str, Path],
        devices: str = "gtx1080ti,gtx1080ti",
        fleet_jobs: Optional[int] = None,
        tlog: bool = True,
        warm_start: bool = False,
        pipeline: bool = False,
        poll_interval_s: float = 0.05,
    ):
        self.store = store
        self.queue = queue
        self.data_dir = Path(data_dir)
        self.devices = devices
        self.fleet_jobs = fleet_jobs
        self.tlog = tlog
        self.warm_start = warm_start
        self.pipeline = pipeline
        self.poll_interval_s = poll_interval_s
        self._feeds: Dict[str, ProgressFeed] = {}
        self._feeds_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._current_job: Optional[str] = None
        self._last_claim_s: Optional[float] = None

    # ------------------------------------------------------------------

    def feed(self, job_id: str) -> ProgressFeed:
        """The live progress feed of one job (created on demand)."""
        with self._feeds_lock:
            feed = self._feeds.get(job_id)
            if feed is None:
                feed = self._feeds[job_id] = ProgressFeed()
            return feed

    @property
    def current_job(self) -> Optional[str]:
        """The job id being executed right now (``None`` when idle)."""
        return self._current_job

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.data_dir / "jobs" / job_id

    def tlog_dir(self) -> Optional[Path]:
        return (self.data_dir / "tlog") if self.tlog else None

    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness of the worker loop: state, current job, claim age.

        ``state`` is ``"disabled"`` before :meth:`start`, ``"running"``
        while the worker thread lives, ``"stopped"`` once it ended after
        :meth:`stop`, and ``"dead"`` when it ended without one (an
        exception escaped the loop).  ``last_claim_age_s`` is the time
        since the loop last tried to claim a job (``None`` before its
        first try); it grows while a job runs.
        """
        thread = self._thread
        if thread is None:
            state = "disabled"
        elif thread.is_alive():
            state = "running"
        else:
            state = "stopped" if self._stop.is_set() else "dead"
        last = self._last_claim_s
        return {
            "state": state,
            "alive": state == "running",
            "current_job": self._current_job,
            "last_claim_age_s": (
                None if last is None else round(time.monotonic() - last, 3)
            ),
        }

    def start(self) -> None:
        """Spawn the worker thread (recovery runs first)."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("runner already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.run_forever, name="service-runner", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Ask the loop to exit after the current job and join it.

        Raises the queue's wake-up signal as well, so an idle runner
        exits at once rather than at the end of its poll interval.
        """
        self._stop.set()
        self.queue.wakeup.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def run_forever(self) -> None:
        """Recover interrupted jobs, then drain the queue until stopped.

        Each pass clears the queue's wake-up signal, claims, and waits
        on the signal only when the queue was empty.  Clearing before
        the claim means a submit committed after the claim looked still
        ends the wait, so jobs start as they arrive; the wait times out
        after ``poll_interval_s`` as a fallback re-check.  A failed
        claim (for example sqlite's ``database is locked``) is logged
        and retried after a ``poll_interval_s`` back-off that only
        :meth:`stop` cuts short; it never ends the loop, so admitted
        jobs still run once the store recovers.
        """
        self.recover()
        wakeup = self.queue.wakeup
        while True:
            wakeup.clear()
            # checked after the clear, so a stop() raised past this
            # point still ends the wait below
            if self._stop.is_set():
                return
            self._last_claim_s = time.monotonic()
            try:
                job = self.queue.claim_next()
            except Exception:  # noqa: BLE001 - the runner must outlive it
                logger.exception(
                    "claiming the next job failed; retrying in %.2fs",
                    self.poll_interval_s,
                )
                self._stop.wait(self.poll_interval_s)
                continue
            if job is None:
                wakeup.wait(self.poll_interval_s)
                continue
            self._run_job(job, resume=False)

    def recover(self) -> int:
        """Resume every job a previous service life left running.

        Their checkpoint directories carry per-task/per-device state;
        re-running with ``resume=True`` completes them bit-identically
        to an uninterrupted run.  Returns how many jobs were resumed.
        """
        interrupted = self.store.running_jobs()
        for job in interrupted:
            logger.info(
                "recovering %s (attempt %d) from %s",
                job.job_id, job.attempts + 1,
                self.checkpoint_dir(job.job_id),
            )
            self.feed(job.job_id).push(kind="recovered")
            if self._stop.is_set():
                break
            self.store.record_attempt(job.job_id)
            self._run_job(job, resume=True)
        return len(interrupted)

    # ------------------------------------------------------------------

    def _run_job(self, job: Job, resume: bool) -> None:
        """Execute one claimed job and settle its terminal state."""
        self._current_job = job.job_id
        try:
            self._execute(job, resume=resume)
        except Exception as exc:  # noqa: BLE001 - settled, not hidden
            logger.exception("%s failed", job.job_id)
            self.store.transition(job.job_id, "failed", error=str(exc))
            self.feed(job.job_id).push(kind="failed", error=str(exc))
        else:
            self.store.transition(job.job_id, "done")
            self.feed(job.job_id).push(kind="done")
        finally:
            self._current_job = None

    def _execute(self, job: Job, resume: bool) -> None:
        from repro.fleet.reporting import fleet_report_dict
        from repro.nn.zoo import build_model
        from repro.pipeline.compiler import DeploymentCompiler

        spec = job.spec
        graph = build_model(spec.model)
        compiler = DeploymentCompiler(graph, env_seed=spec.env_seed)
        if spec.max_tasks is not None:
            compiler.tasks = compiler.tasks[: spec.max_tasks]
        feed = self.feed(job.job_id)
        observation = _FeedObservation(feed)
        tlog_dir = self.tlog_dir()

        def collect(task_spec, result):
            summary = observation.observer(
                f"task-{task_spec.task_id:03d}"
            ).summary()
            self.store.add_task_result(
                job.job_id, task_spec.task_id, result,
                summary=summary.deterministic_dict(),
            )
            feed.push(
                kind="task_done",
                task_id=task_spec.task_id,
                best_gflops=round(float(result.best_gflops), 6),
                measurements=result.num_measurements,
            )

        devices = spec.devices or self.devices
        compiled = compiler.tune(
            spec.arm,
            n_trial=spec.n_trial,
            early_stopping=spec.early_stopping,
            trial_seed=spec.trial_seed,
            tuner_kwargs=dict(spec.tuner_kwargs),
            progress=collect,
            checkpoint_dir=self.checkpoint_dir(job.job_id),
            resume=resume,
            observation=observation,
            fleet=devices,
            fleet_jobs=self.fleet_jobs,
            tlog=str(tlog_dir) if tlog_dir is not None else None,
            warm_start=self.warm_start,
            pipeline=self.pipeline,
        )
        if compiled.fleet is not None:
            measurements = {
                key: res.num_measurements
                for key, res in compiled.fleet.results.items()
            }
            self.store.set_fleet_report(
                job.job_id, fleet_report_dict(compiled.fleet, measurements)
            )
        logger.info(
            "%s finished: %d task(s), tlog %s",
            job.job_id, len(compiler.tasks), compiled.tlog_counts(),
        )
