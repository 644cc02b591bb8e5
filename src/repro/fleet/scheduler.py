"""Work-stealing scheduler over a simulated device pool.

:class:`FleetScheduler` shards a list of :class:`FleetTask` units
across per-device queues (round-robin by submission position — the
task's *home* device) and drains them with ``jobs`` worker threads.
A worker serves its own device's queue first; when that runs dry it
steals from the tail of the longest remaining queue (ties broken by
lowest device index), so a fast device helps a slow one finish — the
classic Cilk/TBB discipline, applied to tuning tasks instead of stack
frames.

Correctness never depends on the schedule: ``run_task`` must be a pure
function of the task (the integration layers guarantee this — noise
and fault streams are keyed by task-local measurement ordinals), so
the result set is bit-identical for every ``jobs`` value and steal
interleaving.  What *is* schedule-dependent (which worker executed
what, steal counts) is reported separately in :class:`DeviceReport`
and never feeds back into results.

A task that raises aborts the fleet: in-flight tasks finish, queued
ones stay unexecuted, and :class:`FleetError` carries both the failure
map and the partial :class:`FleetRunResult` so callers with durable
checkpoints (the deployment compiler) can resume the survivors.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.fleet.devices import Fleet, FleetDevice, FleetSpec
from repro.utils.log import get_logger

logger = get_logger("fleet.scheduler")


@dataclass(frozen=True)
class FleetTask:
    """One schedulable unit: a stable key and its position."""

    key: str
    seq: int

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("task key must be non-empty")
        if self.seq < 0:
            raise ValueError("task seq must be non-negative")


@dataclass(frozen=True)
class StealRecord:
    """One successful steal: ``thief`` ran a task homed on ``victim``."""

    key: str
    victim: int
    thief: int


@dataclass
class DeviceReport:
    """Per-device accounting of one fleet run.

    ``homed`` is deterministic (pure sharding); ``executed`` and the
    steal counters describe the actual schedule and are deterministic
    only for ``jobs=1``.  ``measurements`` is filled by integration
    layers with the length of the device's measurement-ordinal stream
    (the summed ordinals of its homed tasks).
    """

    index: int
    name: str
    #: normalized device class (``gtx1080ti``, ...) — records produced
    #: by tasks homed here are only valid for this class
    device_class: str = ""
    homed: List[str] = field(default_factory=list)
    executed: List[str] = field(default_factory=list)
    stolen_in: int = 0
    stolen_out: int = 0
    measurements: int = 0


@dataclass
class FleetRunResult:
    """Everything one :meth:`FleetScheduler.run` produced."""

    results: Dict[str, Any]
    reports: List[DeviceReport]
    steals: List[StealRecord]

    @property
    def assignments(self) -> Dict[str, int]:
        """Deterministic ``task key -> home device index`` map."""
        return {
            key: report.index
            for report in self.reports
            for key in report.homed
        }


class FleetError(RuntimeError):
    """A fleet run aborted; carries partial results for resumption."""

    def __init__(
        self,
        failures: Dict[str, BaseException],
        partial: FleetRunResult,
    ):
        keys = sorted(failures)
        first = failures[keys[0]]
        super().__init__(
            f"{len(failures)} fleet task(s) failed ({', '.join(keys)}); "
            f"{len(partial.results)} completed before the abort; "
            f"{keys[0]}: {type(first).__name__}: {first}"
        )
        self.failures = failures
        self.partial = partial


class FleetScheduler:
    """Shard tasks across a device pool; steal work to keep it busy.

    ``run_task(task, device)`` executes one task on an *executing*
    device (the thief's, under stealing); it must derive every seeded
    decision from the task itself, never from ``device``, for the
    determinism contract to hold.  ``jobs`` is the worker-thread count
    (default: one per device); ``jobs=1`` drains the whole pool on the
    caller's thread with a fully deterministic steal schedule.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        run_task: Callable[[FleetTask, FleetDevice], Any],
        jobs: Optional[int] = None,
    ):
        self.fleet = Fleet.from_spec(fleet)
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs if jobs is not None else len(self.fleet)
        self.run_task = run_task
        self._lock = threading.Lock()
        self._queues: List[Deque[FleetTask]] = []
        self._results: Dict[str, Any] = {}
        self._failures: Dict[str, BaseException] = {}
        self._reports: List[DeviceReport] = []
        self._steals: List[StealRecord] = []
        self._abort = False

    # ------------------------------------------------------------------

    def shard(
        self, tasks: Sequence[FleetTask]
    ) -> List[List[FleetTask]]:
        """Deterministic round-robin home assignment (pure, reusable)."""
        shards: List[List[FleetTask]] = [[] for _ in self.fleet]
        for task in tasks:
            shards[self.fleet.home_of(task.seq).index].append(task)
        return shards

    def _claim(self, home: int) -> Optional[Tuple[FleetTask, int]]:
        """Pop the next task for a worker homed on device ``home``.

        Caller holds the lock.  Own queue drains FIFO from the head;
        steals come LIFO from the tail of the longest other queue —
        stolen tasks are the ones their home device would have reached
        last.
        """
        own = self._queues[home]
        if own:
            return own.popleft(), home
        victim = -1
        longest = 0
        for j, queue in enumerate(self._queues):
            if len(queue) > longest:
                victim, longest = j, len(queue)
        if victim < 0:
            return None
        return self._queues[victim].pop(), victim

    def _worker(self, worker_id: int) -> None:
        home = worker_id % len(self.fleet)
        device = self.fleet[home]
        while True:
            with self._lock:
                if self._abort:
                    return
                claimed = self._claim(home)
                if claimed is None:
                    return
                task, owner = claimed
                if owner != home:
                    self._steals.append(
                        StealRecord(key=task.key, victim=owner, thief=home)
                    )
                    self._reports[home].stolen_in += 1
                    self._reports[owner].stolen_out += 1
            try:
                value = self.run_task(task, device)
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                with self._lock:
                    self._failures[task.key] = exc
                    self._abort = True
                logger.exception(
                    "fleet: task %s failed on %s", task.key, device.dirname
                )
                return
            with self._lock:
                self._results[task.key] = value
                self._reports[home].executed.append(task.key)

    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[FleetTask]) -> FleetRunResult:
        """Execute every task; raises :class:`FleetError` on failure.

        Results are keyed by task key, so callers reassemble submission
        order regardless of the schedule.
        """
        tasks = list(tasks)
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("fleet task keys must be unique")
        self._results = {}
        self._failures = {}
        self._steals = []
        self._abort = False
        self._reports = [
            DeviceReport(
                index=dev.index,
                name=dev.device.name,
                device_class=dev.label,
            )
            for dev in self.fleet
        ]
        shards = self.shard(tasks)
        self._queues = [deque(shard) for shard in shards]
        for report, shard in zip(self._reports, shards):
            report.homed = [t.key for t in shard]

        workers = min(self.jobs, max(len(tasks), 1))
        logger.info(
            "fleet: %d task(s) on %d device(s), %d worker(s)",
            len(tasks), len(self.fleet), workers,
        )
        if workers <= 1:
            self._worker(0)
        else:
            threads = [
                threading.Thread(
                    target=self._worker,
                    name=f"fleet-worker-{i}",
                    args=(i,),
                    daemon=True,
                )
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        result = FleetRunResult(
            results=self._results,
            reports=self._reports,
            steals=self._steals,
        )
        if self._failures:
            raise FleetError(self._failures, result)
        return result
