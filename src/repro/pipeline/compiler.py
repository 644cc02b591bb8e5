"""Deployment compilation and end-to-end latency evaluation.

:class:`DeploymentCompiler` drives the full Fig. 1 flow for one model:
extract tasks, tune each node with a chosen arm, and combine the best
configurations into a :class:`CompiledModel`.  The compiled model
evaluates end-to-end inference latency the way the paper measures it
(Sec. V-A): the deployed model is "run" many times (600 in the paper)
and the mean latency and its variance across runs are reported.

Per-run latency is

    L = (1 + g) * sum_k t_k * (1 + e_k)

where ``t_k`` is a kernel's ground-truth time, ``e_k`` its private
timing jitter (std from the kernel profile), and ``g`` a run-global
factor (clock/thermal state) whose std is proportional to the
time-weighted mean kernel sigma — so choosing robust configurations
lowers *both* noise terms, reproducing the Table I variance effect.

Fused kernels not covered by a tuning task (pooling, softmax, the dense
layers that the TVM tutorial flow does not tune) contribute a fixed
default-schedule time from a conservative roofline estimate.
"""

from __future__ import annotations

import json
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import make_tuner
from repro.core.events import TlogExactHit
from repro.obs import RunObservation
from repro.core.tuner import TuningResult
from repro.fleet.devices import Fleet, FleetSpec
from repro.fleet.scheduler import (
    FleetError,
    FleetRunResult,
    FleetScheduler,
    FleetTask,
)
from repro.hardware.device import GTX_1080_TI, GpuDevice
from repro.hardware.executor import (
    ExecutorSpec,
    MeasureCache,
    build_executor,
)
from repro.hardware.faults import FaultModel, RetryPolicy
from repro.hardware.measure import SimulatedTask
from repro.nn.graph import Graph
from repro.pipeline.records import RecordStore, TuningRecord
from repro.pipeline.tasks import TaskSpec, extract_tasks, untuned_ops
from repro.tlog import (
    TaskSignature,
    TlogRecord,
    TuningLogDB,
    build_warm_start,
)
from repro.utils.io import atomic_pickle_dump, atomic_write_text
from repro.utils.log import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("pipeline.compiler")

#: default-schedule efficiencies for non-tuned kernels: an untuned
#: fallback schedule realizes only a small fraction of the machine
#: (typically several times slower than a tuned kernel)
_DEFAULT_COMPUTE_FRACTION = 0.08
_DEFAULT_BANDWIDTH_FRACTION = 0.25
_DEFAULT_KERNEL_SIGMA = 0.012
#: coupling between per-kernel noise and the run-global factor
_GLOBAL_NOISE_COUPLING = 2.0


@dataclass(frozen=True)
class KernelTiming:
    """Ground-truth time and noise level of one deployed kernel."""

    name: str
    time_s: float
    sigma_rel: float
    tuned: bool


@dataclass
class LatencySample:
    """Latency statistics over repeated timed runs of a deployment."""

    latencies_ms: np.ndarray

    @property
    def mean_ms(self) -> float:
        return float(self.latencies_ms.mean())

    @property
    def variance(self) -> float:
        """Variance across runs in ms^2 (the paper's 'Variance' column)."""
        return float(self.latencies_ms.var(ddof=1))

    @property
    def std_ms(self) -> float:
        return float(self.latencies_ms.std(ddof=1))


@dataclass
class CompiledModel:
    """A fully deployed model: every kernel bound to a schedule."""

    model_name: str
    device: GpuDevice
    kernels: List[KernelTiming]
    #: per-task tuning results (empty when built from a record store)
    tuning_results: Dict[int, TuningResult] = field(default_factory=dict)
    #: scheduling report of a compile with ``fleet=`` (None without)
    fleet: Optional[FleetRunResult] = None
    #: per-task tuning-log outcome (``"hit"``/``"warm"``/``"cold"``),
    #: empty when the compile ran without a tuning log
    tlog_status: Dict[int, str] = field(default_factory=dict)

    def tlog_counts(self) -> Dict[str, int]:
        """Aggregate hit/warm/cold counts of this compile."""
        counts = {"hit": 0, "warm": 0, "cold": 0}
        for status in self.tlog_status.values():
            counts[status] = counts.get(status, 0) + 1
        return counts

    @property
    def base_latency_ms(self) -> float:
        """Noise-free end-to-end latency."""
        return 1e3 * sum(k.time_s for k in self.kernels)

    def measure_latency(
        self, num_runs: int = 600, seed: int = 0
    ) -> LatencySample:
        """Time ``num_runs`` end-to-end inferences (Sec. V-A protocol)."""
        if num_runs < 2:
            raise ValueError("need at least 2 runs for a variance")
        rng = np.random.default_rng(derive_seed(seed, "latency", self.model_name))
        times = np.array([k.time_s for k in self.kernels])
        sigmas = np.array([k.sigma_rel for k in self.kernels])
        total = times.sum()
        weights = times / total if total > 0 else np.ones_like(times)
        sigma_global = _GLOBAL_NOISE_COUPLING * float(np.dot(weights, sigmas))

        per_kernel = rng.normal(
            0.0, 1.0, size=(num_runs, len(times))
        ) * sigmas[None, :]
        np.maximum(per_kernel, -0.9, out=per_kernel)
        g = np.maximum(rng.normal(0.0, sigma_global, size=num_runs), -0.9)
        run_times = (1.0 + g) * ((times[None, :] * (1.0 + per_kernel)).sum(axis=1))
        return LatencySample(latencies_ms=run_times * 1e3)


class DeploymentCompiler:
    """Tune and deploy one model on a (simulated) device.

    The per-task environments (terrain, measurement noise) derive from
    ``env_seed`` only, so different tuner arms compared under one
    compiler face the *same* optimization problems — the paper's
    experimental protocol.
    """

    def __init__(
        self,
        graph: Graph,
        device: GpuDevice = GTX_1080_TI,
        env_seed: int = 0,
        include_winograd: bool = False,
    ):
        self.graph = graph
        self.device = device
        self.env_seed = int(env_seed)
        self.tasks: List[TaskSpec] = extract_tasks(
            graph, include_winograd=include_winograd
        )
        self._untuned = untuned_ops(graph)
        self._environments: Dict[tuple, SimulatedTask] = {}
        self._environments_lock = threading.Lock()

    def simulated_task(
        self, spec: TaskSpec, device: Optional[GpuDevice] = None
    ) -> SimulatedTask:
        """The (deterministic) environment for one task.

        ``device`` selects the cost model the task is measured on; it
        defaults to the compiler's device (the deployment target).
        Compiles pass each task's home device so a mixed pool really
        measures on distinct hardware.

        An environment is a pure function of the task's workload and
        template, the device and ``env_seed``, and nothing writes to it,
        so the compiler builds each one once and keeps it for its own
        life: the tuning-log lookup, the tuner, the tuning-log
        contribution and the deployment of one task on one device share
        one object.  The key holds the device itself, not its name, so
        two devices with one name and different cost models never share
        an environment.  Fleet worker threads call this concurrently; a
        lock makes each environment built exactly once.
        """
        target = self.device if device is None else device
        key = (spec.workload, spec.template, target, self.env_seed)
        with self._environments_lock:
            task = self._environments.get(key)
            if task is None:
                task = self._environments[key] = spec.to_simulated(
                    device=target, seed=self.env_seed
                )
            return task

    # ------------------------------------------------------------------

    @staticmethod
    def _executor_spec(
        executor: ExecutorSpec,
        measure_cache: Optional[MeasureCache] = None,
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> ExecutorSpec:
        """Fold executor options into a single spec for :func:`make_tuner`."""
        if measure_cache is None and faults is None and retry is None:
            return executor

        def spec(measurer):
            return build_executor(
                measurer, executor, cache=measure_cache,
                faults=faults, retry=retry,
            )

        return spec

    @staticmethod
    def _task_key(spec: TaskSpec) -> str:
        return f"task-{spec.task_id:03d}"

    @staticmethod
    def _task_paths(
        ckpt_dir: Optional[Path], task_key: str, subdir: Optional[str] = None
    ) -> Tuple[Optional[Path], Optional[Path], Optional[Path]]:
        """(done, ckpt, obs) paths for one task, under a device subdir
        in fleet mode."""
        if ckpt_dir is None:
            return None, None, None
        base = ckpt_dir if subdir is None else ckpt_dir / subdir
        base.mkdir(parents=True, exist_ok=True)
        return (
            base / f"{task_key}.done",
            base / f"{task_key}.ckpt",
            base / f"{task_key}.obs.json",
        )

    # ------------------------------------------------------------------
    # tuning-log integration

    @staticmethod
    def _open_tlog(
        tlog: Optional[Union["TuningLogDB", str, Path]]
    ) -> Optional[TuningLogDB]:
        """Coerce the ``tlog=`` argument into an open database."""
        if tlog is None or isinstance(tlog, TuningLogDB):
            return tlog
        return TuningLogDB(tlog)

    def _tlog_run_key(
        self, tuner_name: str, trial_seed: int, n_trial: int
    ) -> str:
        """Identity of this logical compile for idempotent contribution.

        A crash/resume cycle re-runs :meth:`tune` with identical
        arguments and therefore the same run key, so the database skips
        the duplicate contribution instead of double-appending.
        """
        return (
            f"{self.graph.name}:{tuner_name}:trial={trial_seed}"
            f":env={self.env_seed}:n={n_trial}"
        )

    def _serve_or_plan(
        self,
        tlog_db: TuningLogDB,
        spec: TaskSpec,
        device: GpuDevice,
        serve_hits: bool,
        warm_start: bool,
        warm_k: int,
        observer,
        warm_device: str = "any",
    ) -> Tuple[Optional[TuningResult], Optional[object], TaskSignature, str]:
        """Consult the tuning log for one task before tuning it.

        Returns ``(served_result, warm_plan, signature, status)``: an
        exact hit yields a replayed result and zero measurements; a
        transferable neighbor (with ``warm_start``) yields a plan for
        the tuner; otherwise the task runs cold.
        """
        task = self.simulated_task(spec, device=device)
        sig = TaskSignature.of(
            spec.workload, task.space, device, template=spec.template
        )
        if serve_hits:
            records = tlog_db.lookup_exact(sig)
            best = max(
                (r.gflops for r in records or () if r.ok), default=0.0
            )
            if best > 0:
                result = self._result_from_tlog(task.name, records)
                if observer is not None:
                    observer(
                        None,
                        TlogExactHit(
                            step=0,
                            signature_key=sig.key,
                            records=len(records),
                            best_gflops=best,
                        ),
                    )
                logger.info(
                    "%s T%d: tuning-log exact hit (%d records, "
                    "best %.1f GFLOPS, zero measurements)",
                    self.graph.name, spec.task_id + 1,
                    len(records), best,
                )
                return result, None, sig, "hit"
        if warm_start:
            plan = build_warm_start(
                tlog_db, sig, task.space, k=warm_k, device=warm_device
            )
            if plan is not None:
                return None, plan, sig, "warm"
        return None, None, sig, "cold"

    @staticmethod
    def _result_from_tlog(
        task_name: str, records: List[TlogRecord]
    ) -> TuningResult:
        """Summarize stored records as a finished result.

        The served result carries only the best configuration — its
        ``records`` stay empty so ``num_measurements`` is honestly zero
        and record stores never double-log replayed history.
        """
        best_index: Optional[int] = None
        best_gflops = 0.0
        for rec in records:
            if rec.ok and rec.gflops > best_gflops:
                best_gflops = rec.gflops
                best_index = rec.config_index
        return TuningResult(
            task_name=task_name,
            tuner_name="tlog",
            records=[],
            best_index=best_index,
            best_gflops=best_gflops,
        )

    def _contribute(
        self,
        tlog_db: TuningLogDB,
        sig: TaskSignature,
        spec: TaskSpec,
        device: GpuDevice,
        result: TuningResult,
        run_key: str,
    ) -> None:
        """Append one tuned task's measurements to the database."""
        if not result.records:
            return
        space = self.simulated_task(spec, device=device).space
        indices = [r.config_index for r in result.records]
        digits = space.decode_batch(indices)
        tlog_db.record_task(
            sig,
            [
                TlogRecord(
                    config_index=rec.config_index,
                    knob_indices=tuple(int(d) for d in row),
                    gflops=rec.gflops,
                    tuner=result.tuner_name,
                    error=rec.error,
                )
                for rec, row in zip(result.records, digits)
            ],
            run_key=run_key,
        )

    def _tune_one(
        self,
        spec: TaskSpec,
        tuner_name: str,
        n_trial: int,
        early_stopping: Optional[int],
        trial_seed: int,
        kwargs: dict,
        executor_spec: ExecutorSpec,
        done_path: Optional[Path],
        ckpt_path: Optional[Path],
        obs_path: Optional[Path],
        observer,
        resume: bool,
        pipeline: bool,
        device: GpuDevice,
    ) -> TuningResult:
        """Tune (or restore) one task — the unit every fleet slot runs.

        Pure in its arguments: every seeded decision derives from the
        task spec and ``trial_seed``, so calls may run in any order, on
        any worker thread, and still reproduce the same stream.
        ``device`` is the cost model the task is measured on: its home
        device, which is the compiler's own device without ``fleet=``.
        """
        if resume and done_path is not None and done_path.exists():
            with done_path.open("rb") as fh:
                result = pickle.load(fh)
            if (
                observer is not None
                and obs_path is not None
                and obs_path.exists()
            ):
                with obs_path.open("r", encoding="utf-8") as fh:
                    observer.load_state_dict(json.load(fh))
            logger.info(
                "%s T%d (%s): loaded completed result from %s",
                self.graph.name, spec.task_id + 1, tuner_name, done_path,
            )
            return result
        task = self.simulated_task(spec, device=device)
        tuner_seed = derive_seed(
            trial_seed, "tuner", tuner_name, spec.task_id
        )
        tuner = make_tuner(
            tuner_name, task, seed=tuner_seed,
            executor=executor_spec, **kwargs,
        )
        sinks = (observer,) if observer is not None else ()
        try:
            if resume and ckpt_path is not None and ckpt_path.exists():
                logger.info(
                    "%s T%d (%s): resuming from %s",
                    self.graph.name, spec.task_id + 1, tuner_name,
                    ckpt_path,
                )
                result = tuner.resume(
                    ckpt_path, on_event=sinks, pipeline=pipeline
                )
            else:
                result = tuner.tune(
                    n_trial=n_trial,
                    early_stopping=early_stopping,
                    checkpoint=ckpt_path,
                    on_event=sinks,
                    pipeline=pipeline,
                )
        finally:
            tuner.shutdown()
        if observer is not None and obs_path is not None:
            atomic_write_text(
                str(obs_path),
                json.dumps(observer.state_dict(), sort_keys=True),
            )
        if done_path is not None:
            atomic_pickle_dump(done_path, result)
        return result

    def _collect(
        self,
        spec: TaskSpec,
        result: TuningResult,
        tuner_name: str,
        record_store: Optional[RecordStore],
        progress: Optional[Callable[[TaskSpec, TuningResult], None]],
    ) -> None:
        """Fold one finished task into the run-level outputs.

        Called in task order whatever the pool size and steal schedule,
        so the record store's line order is identical either way.
        """
        if record_store is not None:
            for record in result.records:
                record_store.add(
                    TuningRecord(
                        workload=spec.workload,
                        config_index=record.config_index,
                        gflops=record.gflops,
                        tuner_name=tuner_name,
                        error=record.error,
                        template=spec.template,
                    )
                )
        if progress is not None:
            progress(spec, result)
        logger.info(
            "%s T%d (%s): best %.1f GFLOPS in %d measurements",
            self.graph.name,
            spec.task_id + 1,
            tuner_name,
            result.best_gflops,
            result.num_measurements,
        )

    def tune(
        self,
        tuner_name: str,
        n_trial: int = 1024,
        early_stopping: Optional[int] = 400,
        trial_seed: int = 0,
        tuner_kwargs: Optional[dict] = None,
        record_store: Optional[RecordStore] = None,
        progress: Optional[Callable[[TaskSpec, TuningResult], None]] = None,
        executor: ExecutorSpec = None,
        measure_cache: Optional[MeasureCache] = None,
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        observation: Optional[RunObservation] = None,
        fleet: Optional[FleetSpec] = None,
        fleet_jobs: Optional[int] = None,
        tlog: Optional[Union[TuningLogDB, str, Path]] = None,
        warm_start: bool = False,
        warm_k: int = 16,
        serve_hits: bool = True,
        warm_device: str = "any",
        pipeline: bool = False,
    ) -> CompiledModel:
        """Tune every task with arm ``tuner_name`` and compile.

        ``trial_seed`` varies the tuner randomness across repeated
        trials while the environment stays fixed.  ``executor`` (an
        executor spec: ``None``, an instance, or a ``measurer ->
        executor`` factory) and ``measure_cache`` select the
        measurement backend the per-task tuners use (see
        ``docs/EXECUTION.md``).  ``faults``/``retry`` inject
        deterministic measurement faults with retry/backoff.

        Every compile runs its tasks through one
        :class:`~repro.fleet.FleetScheduler`.  ``fleet`` (a
        :class:`~repro.fleet.Fleet`, spec string, or device-name
        sequence) shards the per-task tuning runs across a simulated
        device pool with ``fleet_jobs`` worker threads (one per device
        by default).  Without ``fleet`` the pool is one slot holding the
        compiler's device, drained inline on the caller's thread
        (``fleet_jobs`` then sets the worker threads for that slot).
        Each task is *measured on its home device's cost model*
        (``seq % len(fleet)``), and its tuning-log signature carries
        that same device class — the identity that produced the
        records; work stealing only moves which worker thread executes
        the tuning loop.  When every slot is the compiler's device
        class and no slot overrides the fleet-level fault model,
        per-task records, summaries, and the record store are
        bit-identical to the one-slot compile for any pool size and
        steal schedule; a mixed fleet is instead bit-identical to
        per-home-device compiles (and invariant to pool size, steal
        order, and kill/resume).  Finished tasks reach ``record_store``
        and ``progress`` in task order, each as soon as it and every
        earlier task have finished (from the worker thread that
        finished the last of them).  The scheduling report is returned
        as ``CompiledModel.fleet`` (``None`` without ``fleet``).  A
        failed task raises :class:`~repro.fleet.FleetError` carrying
        the partial results; without ``fleet`` the task's own exception
        is raised instead.

        With ``checkpoint_dir`` set, each task writes a resumable
        checkpoint (``task-NNN.ckpt``) while tuning and a completed
        result (``task-NNN.done``) afterwards — directly in the
        directory without ``fleet``, under its home device's
        subdirectory (``device-NN/task-NNN.ckpt``) with it; resume a
        fleet compile with the same fleet spec.  ``resume=True`` skips
        completed tasks and continues interrupted ones so an
        interrupted compile reproduces the uninterrupted run exactly.

        ``observation`` (a :class:`repro.obs.RunObservation`) attaches
        one :class:`~repro.obs.TuningObserver` per task, keyed
        ``task-NNN``.  Observer state is persisted per task
        (``task-NNN.obs.json`` next to the ``.done`` file) and restored
        on resume — including for already-completed tasks — so the
        run-level metrics/trace/summary exports of a resumed compile
        match an uninterrupted one (modulo wall-clock durations).

        ``tlog`` (a :class:`~repro.tlog.TuningLogDB` or its directory)
        consults the cross-run tuning log before every task: an exact
        signature hit is served instantly with zero measurements
        (disable with ``serve_hits=False``); with ``warm_start=True``,
        tasks without a hit seed their initialization from the top
        ``warm_k`` prior configurations of the nearest transferable
        tasks and pretrain their cost models from the discounted
        history.  ``warm_device`` restricts which stored tasks may seed
        the warm start: ``"any"`` (default), ``"same"`` (only the
        task's own device class), or ``"cross"`` (only *other* device
        classes — the transfer scenario of ``experiment crossdevice``).
        Finished tasks contribute back to the database after the run
        (idempotently — resuming never double-appends), keyed by each
        task's home device class.  Per-task outcomes land in
        ``CompiledModel.tlog_status``.  All of it is off by default:
        ``tlog=None`` compiles are bit-identical to builds without
        tuning-log support.

        ``pipeline=True`` tunes each task with speculation on
        (measurement overlapped with speculative proposal, see
        :meth:`repro.core.Tuner.tune`); records and summaries stay
        bit-identical.
        """
        kwargs = dict(tuner_kwargs or {})
        ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        if ckpt_dir is not None:
            ckpt_dir.mkdir(parents=True, exist_ok=True)
        tlog_db = self._open_tlog(tlog)
        pool = Fleet.from_spec([self.device] if fleet is None else fleet)
        by_key = {self._task_key(spec): spec for spec in self.tasks}
        # pre-create observers on the caller's thread: workers only
        # ever *use* their own task's observer
        observers = {
            key: None if observation is None else observation.observer(key)
            for key in by_key
        }

        # consult the tuning log up front on the caller thread, in task
        # order and keyed by each task's home device class, so workers
        # never touch the database concurrently and lookups match what
        # a later resume of the same run would see
        consulted: Dict[str, tuple] = {}
        tlog_status: Dict[int, str] = {}
        if tlog_db is not None:
            for i, (key, spec) in enumerate(by_key.items()):
                served, plan, sig, status = self._serve_or_plan(
                    tlog_db, spec, pool.home_of(i).device, serve_hits,
                    warm_start, warm_k, observers[key],
                    warm_device=warm_device,
                )
                consulted[key] = (served, plan, sig)
                tlog_status[spec.task_id] = status

        lock = threading.Lock()
        finished: Dict[int, Tuple[TuningResult, str]] = {}
        collected = 0

        def run_task(ftask: FleetTask, _executing_device) -> TuningResult:
            nonlocal collected
            served, plan, _ = consulted.get(ftask.key, (None, None, None))
            result, name = served, "tlog"
            if served is None:
                home = pool.home_of(ftask.seq)
                done_path, ckpt_path, obs_path = self._task_paths(
                    ckpt_dir, ftask.key,
                    subdir=None if fleet is None else home.dirname,
                )
                result = self._tune_one(
                    by_key[ftask.key], tuner_name, n_trial, early_stopping,
                    trial_seed,
                    kwargs if plan is None else dict(kwargs, warm_start=plan),
                    self._executor_spec(
                        executor, measure_cache=measure_cache,
                        faults=home.fault_model(faults), retry=retry,
                    ),
                    done_path, ckpt_path, obs_path, observers[ftask.key],
                    resume, pipeline, home.device,
                )
                name = tuner_name
            # hand tasks on in task order, each as soon as it and every
            # earlier task have finished
            with lock:
                finished[ftask.seq] = (result, name)
                while collected in finished:
                    self._collect(
                        self.tasks[collected], *finished[collected],
                        record_store, progress,
                    )
                    collected += 1
            return result

        scheduler = FleetScheduler(pool, run_task, jobs=fleet_jobs)
        try:
            fleet_result = scheduler.run(
                [FleetTask(key=key, seq=i) for i, key in enumerate(by_key)]
            )
        except FleetError as exc:
            if fleet is not None:
                raise
            # a compile without a fleet fails with its task's exception
            raise exc.failures[min(exc.failures)] from None
        # contributions are deferred to the end of the run (in task
        # order) so lookups never see same-run records
        if tlog_db is not None:
            run_key = self._tlog_run_key(tuner_name, trial_seed, n_trial)
            for i, (key, (served, _, sig)) in enumerate(consulted.items()):
                if served is None:
                    self._contribute(
                        tlog_db, sig, by_key[key], pool.home_of(i).device,
                        fleet_result.results[key], run_key,
                    )
        for report in fleet_result.reports:
            report.measurements = sum(
                fleet_result.results[key].num_measurements
                for key in report.homed
            )
        results = {
            spec.task_id: finished[i][0] for i, spec in enumerate(self.tasks)
        }
        compiled = self._compile(
            {task_id: r.best_index for task_id, r in results.items()}
        )
        compiled.tuning_results = results
        compiled.fleet = fleet_result if fleet is not None else None
        compiled.tlog_status = tlog_status
        return compiled

    def compile_from_records(self, store: RecordStore) -> CompiledModel:
        """Deploy using the best logged configuration per workload."""
        best_configs: Dict[int, Optional[int]] = {}
        for spec in self.tasks:
            record = store.best_for(spec.workload, template=spec.template)
            best_configs[spec.task_id] = (
                record.config_index if record is not None else None
            )
        return self._compile(best_configs)

    def compile_from_tlog(
        self, db: Union[TuningLogDB, str, Path]
    ) -> CompiledModel:
        """Deploy using the best tuning-log configuration per task.

        The cross-run counterpart of :meth:`compile_from_records`:
        every task resolves its exact signature against this compiler's
        device and deploys the best stored configuration; tasks without
        history fall back to the default schedule (and are marked
        ``"cold"`` in ``tlog_status``).
        """
        tlog_db = self._open_tlog(db)
        best_configs: Dict[int, Optional[int]] = {}
        tlog_status: Dict[int, str] = {}
        for spec in self.tasks:
            sig = spec.signature(self.device)
            best = tlog_db.best_exact(sig)
            best_configs[spec.task_id] = (
                best.config_index if best is not None else None
            )
            tlog_status[spec.task_id] = "hit" if best is not None else "cold"
        compiled = self._compile(best_configs)
        compiled.tlog_status = tlog_status
        return compiled

    # ------------------------------------------------------------------

    def _default_time(self, flops: int, traffic_bytes: int) -> float:
        """Roofline time of an untuned kernel under a default schedule."""
        compute = flops / (self.device.peak_flops * _DEFAULT_COMPUTE_FRACTION)
        memory = traffic_bytes / (
            self.device.mem_bandwidth * _DEFAULT_BANDWIDTH_FRACTION
        )
        return max(compute, memory) + self.device.launch_overhead_s

    def _spec_timing(
        self, spec: TaskSpec, index: Optional[int]
    ) -> Tuple[float, float]:
        """(kernel time, noise sigma) for one tuned task variant."""
        if index is None:
            time_s = self._default_time(
                spec.workload.flops,
                spec.workload.input_bytes + spec.workload.output_bytes,
            )
            return time_s, 3 * _DEFAULT_KERNEL_SIGMA
        task = self.simulated_task(spec)
        return task.true_time_s(index), task.noise_sigma(index)

    def _compile(
        self, best_configs: Dict[int, Optional[int]]
    ) -> CompiledModel:
        kernels: List[KernelTiming] = []
        # template variants of one workload share kernel names; deploy
        # whichever variant timed fastest (TVM graph-tuner behaviour)
        by_workload: Dict[object, List[TaskSpec]] = {}
        for spec in self.tasks:
            by_workload.setdefault(spec.workload, []).append(spec)
        for specs in by_workload.values():
            timings = [
                self._spec_timing(spec, best_configs.get(spec.task_id))
                for spec in specs
            ]
            time_s, sigma = min(timings, key=lambda t: t[0])
            for name in specs[0].kernel_names:
                kernels.append(
                    KernelTiming(
                        name=name, time_s=time_s, sigma_rel=sigma, tuned=True
                    )
                )
        for fused in self._untuned:
            traffic = 0
            for node_id in fused.node_ids:
                node = self.graph[node_id]
                shape = node.output_shape or ()
                size = 4
                for dim in shape:
                    size *= dim
                traffic += size
            time_s = self._default_time(fused.flops, 2 * traffic)
            kernels.append(
                KernelTiming(
                    name=fused.name,
                    time_s=time_s,
                    sigma_rel=_DEFAULT_KERNEL_SIGMA,
                    tuned=False,
                )
            )
        return CompiledModel(
            model_name=self.graph.name, device=self.device, kernels=kernels
        )
