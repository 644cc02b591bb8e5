"""The benchmark's three workloads, each run as a loop of identical episodes.

An *episode* is one unit of user-visible work whose timings the run
pools: a whole-model compile with its deployment, or one closed-loop
batch of service jobs against a fresh service.  Each workload loads a
different set of layers (see ``README.md`` for the map):

* ``compile-resnet18`` — ``DeploymentCompiler(resnet-18).tune("bted+bao")``
  with default tuner settings: proposal (BTED, bootstrap refits, BAO
  scoring, neighbourhood generation) does almost all of the work;
* ``compile-measure-bound`` — the same arm on a slice of ResNet-18's
  tasks, measured through an emulated board that charges a fixed
  round-trip per configuration, so measurement dominates;
* ``service-mixed`` — a live :class:`~repro.service.TuningService` with
  its sqlite store, tuning log and a two-device fleet, driven by two
  closed-loop clients submitting cheap-arm jobs and exact repeats.

Episodes return plain dicts of measurements and check results; the
runner (``run.py``) pools them into the reported metrics.
"""

from __future__ import annotations

import inspect
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.bao import BaoOptimizer
from repro.core.tuners.btedbao import BTEDBAOTuner
from repro.hardware.executor import SerialExecutor
from repro.nn import zoo
from repro.pipeline.compiler import DeploymentCompiler
from repro.service import JobSpec, ServiceClient, ServiceClientError, TuningService
from repro.service.store import JobStore

#: the compile problem every compile episode solves (the compiler's
#: default environment).  It is pinned, not drawn from the seed: at this
#: budget the deployed latency of a ResNet-18 compile moves by up to a
#: quarter across trial seeds, which would swamp the quality guard.  The
#: seed drives the deployment measurement instead.
MODEL = "resnet-18"
ARM = "bted+bao"
TRIAL_SEED = 0
#: timed inference runs per deployment (the paper's protocol, Sec. V-A)
LATENCY_RUNS = 600
#: deployments measured per compile; the reported mean and std are the
#: medians over them, which keeps the std estimate steady across seeds
DEPLOYMENTS = 15
#: BTED's initial batch under default settings; the compile budget must
#: exceed it or no task ever reaches a BAO refit
INIT_SIZE = inspect.signature(BTEDBAOTuner.__init__).parameters["init_size"].default


class EmulatedBoard(SerialExecutor):
    """A serial executor that charges a fixed round-trip per configuration.

    The simulated device answers in microseconds; real boards take tens
    of milliseconds per deployed configuration.  The sleep never touches
    results, so the measurement stream is identical to the plain
    executor's.
    """

    def __init__(self, measurer, latency_s: float):
        super().__init__(measurer)
        self.latency_s = float(latency_s)

    def measure_batch(self, config_indices):
        time.sleep(self.latency_s * len(config_indices))
        return super().measure_batch(config_indices)


class BoardFactory:
    """The ``executor=`` callable that puts each task on an emulated board."""

    def __init__(self, latency_s: float):
        self.latency_s = float(latency_s)

    def __call__(self, measurer) -> EmulatedBoard:
        return EmulatedBoard(measurer, self.latency_s)


def on_each_cpu(take: Callable[[], List[float]]) -> Dict[str, List[float]]:
    """Call ``take`` pinned to each CPU this process may run on, in turn.

    The CPUs of a small virtual machine need not be equally fast: on the
    2-vCPU host this benchmark was sized on, one CPU ran the model
    set-up about 1.6 times slower than the other, so an unpinned sample
    reads whichever CPU the scheduler picked.  Returns the samples per
    CPU; threads started inside ``take`` inherit the pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return {"any": take()}
    cpus = os.sched_getaffinity(0)
    samples = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            samples[str(cpu)] = take()
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def quietest_cpu() -> int:
    """The CPU this process may use that has served the fewest device interrupts.

    On the 2-vCPU host this benchmark was sized on, every interrupt of
    the shared block device lands on CPU 1, so other tenants' disk
    traffic takes time from whatever runs there.  Falls back to the
    lowest-numbered CPU where ``/proc/interrupts`` cannot be read.
    """
    cpus = sorted(os.sched_getaffinity(0))
    served = {}
    try:
        with open("/proc/interrupts", encoding="ascii") as handle:
            columns = [int(name[3:]) for name in handle.readline().split()]
            for line in handle:
                fields = line.split()
                if not fields or not fields[0].rstrip(":").isdigit():
                    continue  # per-CPU timer, IPI and error counters
                for cpu, count in zip(columns, fields[1:]):
                    served[cpu] = served.get(cpu, 0) + int(count)
    except (OSError, ValueError):
        return cpus[0]
    return min(cpus, key=lambda cpu: (served.get(cpu, 0), cpu))


def merge_samples(into: Dict[str, List[float]], more: Dict[str, List[float]]) -> None:
    for cpu, values in more.items():
        into.setdefault(cpu, []).extend(values)


class BaoProposals:
    """Counts BAO proposals per optimizer, i.e. per tuned ``bted+bao`` task.

    Every proposal scores a scope with the bootstrap ensemble, and the
    first one fits it, so a task with no proposal ran no BAO refit.
    Used as a context manager around a compile; ``counts`` lists one
    number per optimizer, in the order the tasks created them.
    """

    def __enter__(self) -> "BaoProposals":
        self.counts: List[int] = []
        self._slots: Dict[int, int] = {}
        self._owners: List[BaoOptimizer] = []  # keeps ids unique
        self._undo = []
        counter = self

        def patch(attr, count):
            original = BaoOptimizer.__dict__[attr]

            def wrapper(optimizer, *args, **kwargs):
                if count:
                    counter.counts[counter._slots[id(optimizer)]] += 1
                else:
                    counter._slots[id(optimizer)] = len(counter.counts)
                    counter._owners.append(optimizer)
                    counter.counts.append(0)
                return original(optimizer, *args, **kwargs)

            setattr(BaoOptimizer, attr, wrapper)
            self._undo.append((attr, original))

        patch("__init__", False)
        patch("propose", True)
        patch("propose_batch", True)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            attr, original = self._undo.pop()
            setattr(BaoOptimizer, attr, original)
        self._owners = []


def deployed_latency(compiled, seed: int):
    """Median mean and median std (ms) over :data:`DEPLOYMENTS` timed deployments."""
    samples = [
        compiled.measure_latency(LATENCY_RUNS, seed=seed * 1000 + k)
        for k in range(DEPLOYMENTS)
    ]
    means = sorted(s.mean_ms for s in samples)
    stds = sorted(s.std_ms for s in samples)
    return means[DEPLOYMENTS // 2], stds[DEPLOYMENTS // 2]


def best_configs(compiled) -> Dict[str, Optional[int]]:
    """Per-task best configuration index, keyed by task id."""
    return {
        str(task_id): result.best_index
        for task_id, result in sorted(compiled.tuning_results.items())
    }


# ----------------------------------------------------------------------
# compile workloads


@dataclass(frozen=True)
class CompileWorkload:
    """A serial compile of ResNet-18 (or a slice of it) with ``bted+bao``."""

    name: str
    n_trial: int
    max_tasks: Optional[int] = None
    #: emulated measurement round-trip per configuration (0: none)
    latency_s: float = 0.0
    #: set-up samples per CPU and block; the runner takes a block before
    #: the warm-up, and every untraced episode one at its end
    setup_trials: int = 20
    #: set-up samples per CPU after each tuned task of an untraced episode
    task_setup_trials: int = 5
    #: pool every episode: a run holds one to three long compiles, each
    #: already an average over seconds of the host's load
    faster_half = False

    def prepare(self) -> None:
        """Nothing to set up: a compile writes no files."""

    def compiler(self) -> DeploymentCompiler:
        """Model build + task extraction: the compile's set-up."""
        compiler = DeploymentCompiler(zoo.build_model(MODEL))
        if self.max_tasks is not None:
            compiler.tasks = compiler.tasks[: self.max_tasks]
        return compiler

    def setup_samples(
        self, seed: int, scratch: str, trials: Optional[int] = None
    ) -> Dict[str, List[float]]:
        def take():
            samples = []
            for _ in range(self.setup_trials if trials is None else trials):
                start = time.perf_counter()
                self.compiler()
                samples.append(time.perf_counter() - start)
            return samples

        return on_each_cpu(take)

    def warmup(self, seed: int, scratch: str) -> None:
        """Build every task's space and tune one task, so lazy set-up is paid."""
        compiler = self.compiler()
        for spec in compiler.tasks:
            compiler.simulated_task(spec)
        compiler.tasks = compiler.tasks[:1]
        compiler.tune(ARM, n_trial=INIT_SIZE + 2, trial_seed=TRIAL_SEED + 1)

    def episode(
        self, seed: int, scratch: str, index: int = 0, sample_setup: bool = False
    ) -> Dict[str, Any]:
        """One cold compile and its deployment.

        With ``sample_setup``, a few set-up samples are taken after each
        tuned task and a block after the deployment, which spreads them
        over the run; the time they take is left out of the episode's
        timings.
        """
        samples: Dict[str, List[float]] = {}
        sampling_s = 0.0

        def between_tasks(task_spec, result):
            nonlocal sampling_s
            begin = time.perf_counter()
            merge_samples(samples, self.setup_samples(seed, scratch, self.task_setup_trials))
            sampling_s += time.perf_counter() - begin

        start = time.perf_counter()
        compiler = self.compiler()
        set_up = time.perf_counter()
        with BaoProposals() as bao:
            compiled = compiler.tune(
                ARM,
                n_trial=self.n_trial,
                trial_seed=TRIAL_SEED,
                executor=BoardFactory(self.latency_s) if self.latency_s else None,
                progress=between_tasks if sample_setup else None,
            )
        tuned = time.perf_counter() - sampling_s
        latency_ms, latency_std_ms = deployed_latency(compiled, seed)
        done = time.perf_counter() - sampling_s
        if sample_setup:
            merge_samples(samples, self.setup_samples(seed, scratch))
        failures: List[str] = []
        if len(bao.counts) != len(compiler.tasks) or min(bao.counts, default=0) < 1:
            failures.append(
                f"BAO proposals per task {bao.counts} for {len(compiler.tasks)} "
                f"task(s): a task ran no BAO refit (budget {self.n_trial}, "
                f"BTED initial batch {INIT_SIZE})"
            )
        # without a tuning log a repeated compile request is compiled
        # again, so every compile here is both a first and a repeat
        return {
            "window": (start, done),
            "wall_s": done - start,
            "requests": 1,
            "setup_samples": samples,
            "compile_times": [tuned - set_up],
            "first_turnarounds": [done - start],
            "repeat_turnarounds": [done - start],
            "deployed_latency_ms": latency_ms,
            "deployed_latency_std_ms": latency_std_ms,
            "best_configs": best_configs(compiled),
            "attempted": 1,
            "failed": 0,
            "check_failures": failures,
        }


# ----------------------------------------------------------------------
# service workload

#: device classes per client: disjoint, so each client's tuning-log
#: hits depend only on its own (sequential) history, never on how the
#: two clients' jobs interleave
CLIENT_CLASSES = (("gtx1080ti", "titanv"), ("jetsontx2", "xeongold6130"))
SERVICE_FLEET = "gtx1080ti,titanv"
# The traffic mix below is an assumption, not drawn from traffic data
# (the repository has none): per client and episode five first
# submissions and ten repeats, each job the model's first four tasks,
# 64 trials, three AutoTVM to two random firsts.  Each run records the
# share of client waiting time spent on each population, which is what
# ``jobs_per_s`` depends on.
JOB_TASKS = 4
#: cheap arms and budgets: tuning is a small part of a job, so the
#: service layers around it do most of the work
JOB_TRIALS = {"random": 64, "autotvm": 64}
#: the job whose records are checked against a direct compile; pinned so
#: that its deployed latency is comparable across seeds
REFERENCE_JOB = {
    "model": MODEL,
    "arm": "autotvm",
    "devices": ",".join(CLIENT_CLASSES[0]),
    "trial_seed": 0,
}
#: client poll interval, drawn per poll so that turnarounds are not
#: quantized to multiples of one fixed interval
POLL_S = (0.02, 0.04)


def skip_durable_syncs() -> None:
    """Make this process's durable syncs no-ops: ``os.fsync`` and sqlite's.

    The service syncs every checkpoint, tuning-log write and job-store
    commit to disk.  On a virtual disk shared with other machines the
    time a sync takes is set by their I/O, not by this program: in
    service episodes on the 2-vCPU host, a neighbouring process that
    wrote and synced 4 MB in a loop made episodes 1.43 times slower with
    syncs and 1.32 times slower without.  So the service workload keeps
    every write but drops the syncs, the way ``EmulatedBoard`` stands in
    for a board; the number of syncs still shows as ``io.atomic_writes``
    (two syncs each) and the store's call counts (one commit each).
    Idempotent.
    """
    if getattr(os.fsync, "perfbench_skipped", False):
        return

    def fsync(fd) -> None:
        return None

    fsync.perfbench_skipped = True
    os.fsync = fsync
    opened = JobStore.__init__

    def init(store, *args, **kwargs):
        opened(store, *args, **kwargs)
        store._conn.execute("PRAGMA synchronous=OFF")

    JobStore.__init__ = init


def _job_spec(model: str, arm: str, devices: str, trial_seed: int) -> Dict[str, Any]:
    spec = {
        "model": model,
        "arm": arm,
        "devices": devices,
        "trial_seed": trial_seed,
        "env_seed": JobSpec.env_seed,
        "max_tasks": JOB_TASKS,
        "n_trial": JOB_TRIALS[arm],
        "tuner_kwargs": {},
    }
    return spec


def client_jobs(seed: int, episode: int, client: int, firsts: int = 5, repeats: int = 10):
    """The seeded job list of one client in one episode: ``(kind, spec)`` pairs.

    Each first submission tunes a model not yet seen by this client on
    an ordered pair of its device classes; each repeat resubmits one of
    the client's earlier jobs verbatim, which the tuning log serves with
    zero measurements.  What an episode holds is fixed — with five
    firsts, every zoo model once, three on AutoTVM and two on random,
    client 0's ResNet-18 being the reference job — so the pooled
    medians do not flip between job populations from seed to seed; the
    seed draws the order, the model-to-arm pairing, the device order
    and the trial seeds.  Each episode of a run draws a fresh list, so
    the pooled turnarounds average over many interleavings instead of
    repeating one.
    """
    rng = random.Random(f"perfbench-service-{seed}-{episode}-{client}")
    models = list(zoo.PAPER_MODELS)
    rng.shuffle(models)
    arms = ["autotvm"] * (firsts - firsts * 2 // 5) + ["random"] * (firsts * 2 // 5)
    rng.shuffle(arms)
    if client == 0:
        # the reference job opens client 0's list in its model's slot
        models.remove(REFERENCE_JOB["model"])
        models.insert(0, REFERENCE_JOB["model"])
        arms.remove(REFERENCE_JOB["arm"])
        arms.insert(0, REFERENCE_JOB["arm"])
    models = models[:firsts]
    a, b = CLIENT_CLASSES[client]
    specs = []
    for model, arm in zip(models, arms):
        pair = f"{a},{b}" if rng.random() < 0.5 else f"{b},{a}"
        specs.append(_job_spec(model, arm, pair, rng.randrange(1000)))
    if client == 0:
        specs[0] = _job_spec(**REFERENCE_JOB)
    kinds = ["first"] * firsts + ["repeat"] * repeats
    rest = kinds[1:]
    rng.shuffle(rest)
    jobs, done = [], []
    pending = iter(specs)
    for kind in ["first"] + rest:
        if kind == "first":
            spec = next(pending)
            done.append(spec)
        else:
            spec = rng.choice(done)
        jobs.append((kind, spec))
    return jobs


class _Caller(threading.Thread):
    """One closed-loop client: submit, poll until terminal, repeat.

    A failed request (an HTTP error status, or a transport error such as
    a refused connection or a timeout) ends that job as ``error`` and the
    client moves on to its next job.
    """

    def __init__(self, url: str, jobs, seed: str):
        super().__init__(daemon=True)
        self.client = ServiceClient(url, timeout_s=60.0)
        self.jobs = jobs
        self.rng = random.Random(seed)
        self.results: List[Dict[str, Any]] = []

    def run(self) -> None:
        for kind, spec in self.jobs:
            start = time.perf_counter()
            try:
                job_id = self.client.submit(**spec)["job_id"]
                cursor = 0
                while True:
                    progress = self.client.progress(job_id, since=cursor)
                    cursor = progress["next"]
                    if progress["state"] in ("done", "failed", "cancelled"):
                        break
                    time.sleep(self.rng.uniform(*POLL_S))
            except (ServiceClientError, OSError):
                self.results.append({"kind": kind, "spec": spec, "state": "error"})
                continue
            self.results.append(
                {
                    "kind": kind,
                    "spec": spec,
                    "job_id": job_id,
                    "state": progress["state"],
                    "turnaround_s": time.perf_counter() - start,
                    "end": time.perf_counter(),
                }
            )


def direct_compile(spec: Dict[str, Any]):
    """Compile a job spec outside the service: ``(compiled, records)``.

    Uses the job's fleet devices, so each task is measured on the same
    home device as in the service.
    """
    compiler = DeploymentCompiler(zoo.build_model(spec["model"]), env_seed=spec["env_seed"])
    compiler.tasks = compiler.tasks[: spec["max_tasks"]]
    collected: List[Dict[str, Any]] = []

    def collect(task_spec, result):
        for rec in result.records:
            collected.append(
                {
                    "task_id": task_spec.task_id,
                    "step": rec.step,
                    "config_index": rec.config_index,
                    "gflops": float(rec.gflops),
                    "error": rec.error,
                }
            )

    compiled = compiler.tune(
        spec["arm"],
        n_trial=spec["n_trial"],
        early_stopping=None,
        trial_seed=spec["trial_seed"],
        tuner_kwargs=dict(spec["tuner_kwargs"]),
        progress=collect,
        fleet=spec["devices"],
    )
    collected.sort(key=lambda r: (r["task_id"], r["step"]))
    return compiled, collected


@dataclass(frozen=True)
class ServiceWorkload:
    """Two closed-loop clients against an in-process tuning service."""

    name: str = "service-mixed"
    firsts: int = 5
    repeats: int = 10
    #: service start-ups per CPU and set-up block; the runner takes a
    #: block before the warm-up, and every untraced episode one at its end
    setup_trials: int = 3
    #: pool the faster half of a run's episodes (see
    #: :func:`perfbench.metrics.least_disturbed`)
    faster_half = True

    def prepare(self) -> None:
        """Skip durable syncs and keep the service's threads on one CPU.

        Every job passes through a chain of threads (client, HTTP
        handler, runner, fleet workers) that hand work to each other
        under one interpreter lock.  Spread over two vCPUs, each hand-off
        can wait for a vCPU the hypervisor has taken away: in runs with
        33% CPU steal the service's job compile time doubled, while at
        24% steal a serial compile took 1.34 times as long.  On one CPU
        the chain only slows with
        that CPU, and unpinned and pinned runs gave the same throughput
        without steal (17.3-19.9 jobs/s in eight runs).  Threads started
        later inherit the pin.
        """
        skip_durable_syncs()
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {quietest_cpu()})

    def _start(self, data_dir: str) -> TuningService:
        return TuningService(data_dir, port=0, devices=SERVICE_FLEET).start()

    def setup_samples(
        self, seed: int, scratch: str, retiring: Optional[TuningService] = None
    ) -> Dict[str, List[float]]:
        """A block of service start-ups; stops them, and ``retiring``, together.

        A stop waits out the HTTP loop's half-second poll, so stopping
        the block's services (and the episode's own, when the block
        follows an episode) at once costs one wait, not one each.
        """
        services = [retiring] if retiring is not None else []

        def take():
            samples = []
            for _ in range(self.setup_trials):
                data_dir = tempfile.mkdtemp(dir=scratch)
                start = time.perf_counter()
                services.append(self._start(data_dir))
                samples.append(time.perf_counter() - start)
            return samples

        try:
            return on_each_cpu(take)
        finally:
            stoppers = [threading.Thread(target=service.stop) for service in services]
            for stopper in stoppers:
                stopper.start()
            for stopper in stoppers:
                stopper.join()
            for service in services:
                shutil.rmtree(service.data_dir, ignore_errors=True)

    def warmup(self, seed: int, scratch: str) -> None:
        data_dir = tempfile.mkdtemp(dir=scratch)
        service = self._start(data_dir)
        try:
            caller = _Caller(
                service.url, client_jobs(seed, -1, 1, firsts=1, repeats=1), "warmup"
            )
            caller.run()
        finally:
            service.stop()
            shutil.rmtree(data_dir, ignore_errors=True)

    def episode(
        self, seed: int, scratch: str, index: int = 0, sample_setup: bool = False
    ) -> Dict[str, Any]:
        """Run both clients' job lists once against a fresh service.

        With ``sample_setup``, a block of service start-ups is taken
        after the traffic and the checks, never during traffic, and the
        episode's service is stopped along with the block's.
        """
        data_dir = tempfile.mkdtemp(dir=scratch)
        start = time.perf_counter()
        service = self._start(data_dir)
        set_up = time.perf_counter()
        retired = False
        try:
            callers = [
                _Caller(
                    service.url,
                    client_jobs(seed, index, c, self.firsts, self.repeats),
                    f"poll-{seed}-{index}-{c}",
                )
                for c in range(len(CLIENT_CLASSES))
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=150.0)
            ends = [r["end"] for caller in callers for r in caller.results if "end" in r]
            traffic_end = max(ends) if ends else time.perf_counter()
            episode = self._settle(service, callers, seed)
            episode["window"] = (start, traffic_end)
            episode["wall_s"] = traffic_end - set_up
            if sample_setup:
                retired = True
                episode["setup_samples"] = self.setup_samples(seed, scratch, service)
            return episode
        finally:
            if not retired:
                service.stop()
            shutil.rmtree(data_dir, ignore_errors=True)

    def _settle(self, service, callers, seed):
        """Check outcomes and gather the per-job rows after the clock stops.

        Every job a client was given counts as attempted; it failed
        unless the client saw it end ``done`` — a failed or cancelled
        job, a request error, or a job the client never got to (it hung
        or its thread died) all count.
        """
        client = ServiceClient(service.url, timeout_s=60.0)
        failures: List[str] = []
        hung = sum(caller.is_alive() for caller in callers)
        if hung:
            failures.append(f"{hung} client(s) still waiting after the deadline")
        results = [r for caller in callers for r in caller.results]
        attempted = sum(len(caller.jobs) for caller in callers)
        done = [r for r in results if r["state"] == "done"]
        queue_waits, runs = [], []
        for row in done:
            detail = client.job(row["job_id"])
            queue_waits.append(detail["started_s"] - detail["created_s"])
            if row["kind"] == "first":
                runs.append(detail["finished_s"] - detail["started_s"])
            measured = sum(t["num_measurements"] for t in detail["tasks"])
            row["measurements"] = measured
            if row["kind"] == "repeat" and measured != 0:
                spec = row["spec"]
                tuned = [t["task_id"] for t in detail["tasks"] if t["num_measurements"]]
                failures.append(
                    f"repeat {row['job_id']} ({spec['model']}, {spec['arm']}, "
                    f"{spec['devices']}) made {measured} measurements in tasks {tuned}"
                )
        # client 0 always opens with the reference job
        first = callers[0].results[0] if callers[0].results else None
        compiled = None
        if first is None or first["state"] != "done":
            failures.append("the reference job did not finish")
        else:
            served = client.records(first["job_id"])["records"]
            compiled, direct = direct_compile(first["spec"])
            if served != direct:
                failures.append(f"{first['job_id']} records differ from a direct compile")
        latency = deployed_latency(compiled, seed) if compiled is not None else (0.0, 0.0)
        firsts = [r["turnaround_s"] for r in done if r["kind"] == "first"]
        repeats = [r["turnaround_s"] for r in done if r["kind"] == "repeat"]
        return {
            "requests": len(done),
            "setup_samples": {},
            # the service's own compile of each first submission: claim
            # to done, from the job rows
            "compile_times": runs,
            "first_turnarounds": firsts,
            "repeat_turnarounds": repeats,
            "first_wait_share": sum(firsts) / (sum(firsts) + sum(repeats))
            if firsts or repeats else 0.0,
            "deployed_latency_ms": latency[0],
            "deployed_latency_std_ms": latency[1],
            "best_configs": best_configs(compiled) if compiled is not None else {},
            "queue_waits": queue_waits,
            "attempted": attempted,
            "failed": attempted - len(done),
            "check_failures": failures,
        }


WORKLOADS = {
    "compile-resnet18": CompileWorkload("compile-resnet18", n_trial=72),
    "compile-measure-bound": CompileWorkload(
        "compile-measure-bound", n_trial=72, max_tasks=2, latency_s=0.04
    ),
    "service-mixed": ServiceWorkload(),
}
