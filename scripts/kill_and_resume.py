#!/usr/bin/env python
"""Kill-and-resume smoke test: SIGKILL a tuning run, resume, compare.

The unit and property tests simulate crashes by raising inside the
loop; this script delivers the real thing.  It forks a child process
that tunes with per-batch checkpointing, SIGKILLs it as soon as a
mid-run checkpoint exists, resumes from the checkpoint in a fresh
process, and asserts that the resumed record log and final incumbent
are bit-identical to an uninterrupted run of the same configuration,
and so are the observer's summary, span skeletons and metrics.

Run directly (used by CI)::

    python scripts/kill_and_resume.py [--arm bted] [--n-trial 32]

``--compile``, ``--fleet`` and ``--service`` kill a compile without
a fleet, a fleet compile and the tuning service instead.  ``--pipeline``
hands the killed tuner (and the resumed one) an executor, which makes
it speculate.

Exit code 0 means the determinism contract held.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

ARM_KWARGS = {
    "random": {"batch_size": 8},
    "bted": {"batch_size": 8, "init_size": 8, "batch_candidates": 32},
    "bted+as": {"batch_size": 8, "init_size": 8, "batch_candidates": 32},
    "bted+bao": {"init_size": 8, "batch_candidates": 32, "num_batches": 2},
    "bted+bao+droplet": {
        "init_size": 8, "batch_candidates": 32, "num_batches": 2,
        "finish_after": 12,
    },
    "droplet": {"batch_size": 8, "init_size": 8},
}

#: the fleet smoke's serial baseline is only valid when every pool slot
#: is the compiler's own device class (see docs/EXECUTION.md)
_SERIAL_EQUIVALENT_CLASS = "gtx1080ti"

# Child: tune with checkpointing, stalling after every batch so the
# parent has time to deliver SIGKILL mid-run.  A TuningObserver rides
# along as an event sink so its state is captured in every checkpoint
# and the resumed run can prove observability is crash-safe too.
_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
from repro.core import make_tuner
from repro.core.checkpoint import CheckpointPolicy
from repro.hardware.executor import SerialExecutor
from repro.hardware.measure import SimulatedTask
from repro.nn.workloads import DenseWorkload
from repro.obs import TuningObserver

task = SimulatedTask(
    DenseWorkload(batch=1, in_features=64, out_features=48), seed=7
)
tuner = make_tuner({arm!r}, task, seed=11, executor={executor}, **{kwargs!r})
tuner.tune(
    n_trial={n_trial}, early_stopping=None,
    checkpoint=CheckpointPolicy(path={ckpt!r}, every=1),
    callbacks=[lambda t, results: time.sleep(0.2)],
    on_event=[TuningObserver()],
)
print("CHILD-FINISHED")
"""

# Fresh process: run uninterrupted OR resume, dump the trace as JSON.
# The observer's deterministic summary, span skeletons and metrics
# (counter and gauge values, histogram counts) join the record log in
# the comparison payload; wall-clock fields are excluded by
# construction so bit-equality is meaningful.  Of the metrics, only
# the checkpoint and resume counters are left out: the baseline writes
# no checkpoint and never resumes.
_RUNNER = """
import json, sys
sys.path.insert(0, {src!r})
from repro.core import make_tuner
from repro.hardware.executor import SerialExecutor
from repro.hardware.measure import SimulatedTask
from repro.nn.workloads import DenseWorkload
from repro.obs import Histogram, TuningObserver

task = SimulatedTask(
    DenseWorkload(batch=1, in_features=64, out_features=48), seed=7
)
tuner = make_tuner({arm!r}, task, seed=11, executor={executor}, **{kwargs!r})
observer = TuningObserver()
if {resume!r}:
    result = tuner.resume({ckpt!r}, on_event=[observer])
else:
    result = tuner.tune(
        n_trial={n_trial}, early_stopping=None, on_event=[observer]
    )
if {trace_out!r}:
    observer.trace.write_jsonl({trace_out!r})
print(json.dumps({{
    "records": [
        [r.step, r.config_index, r.gflops, r.error] for r in result.records
    ],
    "best_index": result.best_index,
    "best_gflops": result.best_gflops,
    "summary": observer.summary().deterministic_dict(),
    "spans": observer.trace.span_skeletons(),
    "metrics": {{
        m.name: m.count if isinstance(m, Histogram) else m.value
        for m in observer.metrics
        if m.name not in ("checkpoints_total", "resumes_total")
    }},
}}))
"""


# Compile child: a two-task compile with per-task checkpointing, either
# sharded over a device pool (per-device checkpoint subdirectories) or
# without a fleet (checkpoints directly in the directory).  Fault
# injection with a real retry backoff paces the workers so the parent
# can SIGKILL one mid-batch.
_FLEET_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.hardware.faults import FaultModel, RetryPolicy
from repro.nn.graph import GraphBuilder
from repro.obs import RunObservation
from repro.pipeline.compiler import DeploymentCompiler

b = GraphBuilder("fleet-smoke")
b.input((1, 3, 16, 16))
b.conv2d("c1", 8, padding=(1, 1))
b.relu("r1")
b.conv2d("c2", 12, padding=(1, 1))
b.relu("r2")
b.flatten("f")
b.dense("fc", 10)

DeploymentCompiler(b.graph, env_seed=123).tune(
    {arm!r}, n_trial={n_trial}, early_stopping=None,
    tuner_kwargs={kwargs!r},
    faults=FaultModel(rate=0.3, seed=13),
    retry=RetryPolicy(max_retries=4, backoff_s=0.05),
    observation=RunObservation(enable_metrics=False, enable_trace=False),
    checkpoint_dir={ckpt_dir!r},
    fleet={fleet!r}, fleet_jobs={fleet_jobs!r},
)
print("CHILD-FINISHED")
"""

# Fresh process: the baseline (serial, or an uninterrupted fleet run
# for mixed pools) or the resumed compile; either way, dump the
# record stream and the per-task deterministic summaries.
# Bit-equality across the two closes the loop: SIGKILL the compile
# mid-batch, resume it, and you still reproduce the baseline exactly —
# each task measured on its home device's cost model.
_FLEET_RUNNER = """
import json, sys
sys.path.insert(0, {src!r})
from repro.hardware.faults import FaultModel, RetryPolicy
from repro.nn.graph import GraphBuilder
from repro.obs import RunObservation
from repro.pipeline.compiler import DeploymentCompiler
from repro.pipeline.records import RecordStore

b = GraphBuilder("fleet-smoke")
b.input((1, 3, 16, 16))
b.conv2d("c1", 8, padding=(1, 1))
b.relu("r1")
b.conv2d("c2", 12, padding=(1, 1))
b.relu("r2")
b.flatten("f")
b.dense("fc", 10)

store = RecordStore()
observation = RunObservation(enable_metrics=False, enable_trace=False)
fleet = {devices!r} if {fleet!r} else None
ckpt_dir = {ckpt_dir!r} or None
DeploymentCompiler(b.graph, env_seed=123).tune(
    {arm!r}, n_trial={n_trial}, early_stopping=None,
    tuner_kwargs={kwargs!r},
    faults=FaultModel(rate=0.3, seed=13),
    retry=RetryPolicy(max_retries=4),
    record_store=store, observation=observation,
    checkpoint_dir=ckpt_dir,
    resume={resume!r},
    fleet=fleet, fleet_jobs=2 if fleet else None,
)
print(json.dumps({{
    "records": [
        [r.config_index, r.gflops, r.error] for r in store
    ],
    "summaries": {{
        key: observation.observer(key).summary().deterministic_dict()
        for key in observation.keys()
    }},
}}))
"""


# Fresh process: the service smoke's ground truth — a direct serial
# tune of the same job spec, no service in the loop.  The service's
# records endpoint must reproduce this byte for byte even across a
# SIGKILL of the whole server process and a restart-time recovery.
_SERVICE_BASELINE = """
import json, sys
sys.path.insert(0, {src!r})
from repro.nn.zoo import build_model
from repro.pipeline.compiler import DeploymentCompiler

compiler = DeploymentCompiler(build_model({model!r}), env_seed={env_seed})
compiler.tasks = compiler.tasks[:{max_tasks}]
collected = []

def collect(task_spec, result):
    for rec in result.records:
        collected.append({{
            "task_id": task_spec.task_id,
            "step": rec.step,
            "config_index": rec.config_index,
            "gflops": float(rec.gflops),
            "error": rec.error,
        }})

compiler.tune(
    {arm!r}, n_trial={n_trial}, early_stopping=None,
    trial_seed={trial_seed}, tuner_kwargs={kwargs!r},
    progress=collect,
)
collected.sort(key=lambda r: (r["task_id"], r["step"]))
print(json.dumps(collected))
"""


def _start_server(data_dir: str, timeout: float) -> tuple:
    """Launch ``repro serve --port 0`` and parse the bound URL."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--data-dir", data_dir, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    deadline = time.monotonic() + timeout
    url = None
    while time.monotonic() < deadline:
        line = child.stdout.readline()
        if not line:
            if child.poll() is not None:
                raise RuntimeError("server exited before binding a port")
            time.sleep(0.02)
            continue
        if line.startswith("serving on "):
            url = line.split("serving on ", 1)[1].strip()
            break
    if url is None:
        child.kill()
        raise RuntimeError("server never printed its URL")
    return child, url


def _service_main(args) -> int:
    """SIGKILL the whole tuning service mid-job, restart, compare.

    The strongest crash-recovery claim the service makes: a submitted
    job survives the death of the entire server process.  The restart
    finds it ``running`` in the sqlite job store, resumes it from its
    per-device checkpoints, and finishes with records bit-identical to
    a direct serial tune that never saw a service at all.
    """
    sys.path.insert(0, str(SRC))
    from repro.service import ServiceClient

    kwargs = ARM_KWARGS[args.arm]
    model, max_tasks, trial_seed, env_seed = "alexnet", 2, 3, 7

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "service-data")

        print(f"[1/5] direct serial {args.arm} baseline on {model} "
              f"({args.n_trial} trials x {max_tasks} tasks, no service)")
        out = subprocess.run(
            [sys.executable, "-c", _SERVICE_BASELINE.format(
                src=str(SRC), model=model, arm=args.arm,
                n_trial=args.n_trial, max_tasks=max_tasks,
                trial_seed=trial_seed, env_seed=env_seed, kwargs=kwargs,
            )],
            capture_output=True, text=True, check=True,
        )
        baseline = json.loads(out.stdout.strip().splitlines()[-1])

        print("[2/5] starting the service and submitting the job")
        server, url = _start_server(data_dir, args.timeout)
        client = ServiceClient(url, timeout_s=10.0)
        job = client.submit(
            model=model, arm=args.arm, n_trial=args.n_trial,
            max_tasks=max_tasks, trial_seed=trial_seed,
            env_seed=env_seed, tuner_kwargs=kwargs,
        )
        job_id = job["job_id"]

        # wait until some per-device task checkpoint has been rewritten
        # after its step-0 snapshot — i.e. the job is mid-batch
        ckpt_root = Path(data_dir) / "jobs" / job_id
        deadline = time.monotonic() + args.timeout
        first_mtimes: dict = {}
        killed_mid_run = False
        while time.monotonic() < deadline:
            for path in ckpt_root.glob("device-*/task-*.ckpt"):
                mtime = path.stat().st_mtime_ns
                seen = first_mtimes.setdefault(path, mtime)
                if mtime != seen:
                    killed_mid_run = True
            if killed_mid_run:
                break
            state = client.job(job_id)["state"]
            if state in ("done", "failed", "cancelled"):
                break
            time.sleep(0.02)
        if not killed_mid_run:
            server.kill()
            print("job finished before the server could be killed; "
                  "increase --n-trial", file=sys.stderr)
            return 1

        print("[3/5] delivering SIGKILL to the whole server mid-job")
        server.send_signal(signal.SIGKILL)
        server.wait()
        if not list(ckpt_root.glob("device-*/task-*")):
            print("no per-device checkpoints survived the kill",
                  file=sys.stderr)
            return 1

        print("[4/5] restarting the service on the same data dir")
        server, url = _start_server(data_dir, args.timeout)
        client = ServiceClient(url, timeout_s=10.0)
        done = client.wait(job_id, timeout_s=args.timeout)
        done_records = client.records(job_id)["records"]
        server.terminate()
        server.wait()

        print("[5/5] comparing the recovered job to the baseline")
        if done["state"] != "done":
            print(f"recovered job ended {done['state']!r}: "
                  f"{done['error']}", file=sys.stderr)
            return 1
        if done["attempts"] != 2:
            print(f"expected 2 attempts (run + recovery), got "
                  f"{done['attempts']}", file=sys.stderr)
            return 1
        if done_records != baseline:
            print("MISMATCH: recovered service job diverged from the "
                  "direct serial tune", file=sys.stderr)
            for i, (b, r) in enumerate(zip(baseline, done_records)):
                if b != r:
                    print(f"  first divergence at record {i}: "
                          f"{b} != {r}", file=sys.stderr)
                    break
            print(f"  baseline: {len(baseline)} records, "
                  f"recovered: {len(done_records)}", file=sys.stderr)
            return 1

        if args.keep_db:
            import shutil

            shutil.copy(Path(data_dir) / "jobs.sqlite", args.keep_db)
            print(f"job database copied to {args.keep_db}")
        print(f"OK: SIGKILL + service restart recovered {job_id} "
              f"bit-identically — all {len(baseline)} records match "
              f"the direct serial tune (attempts: {done['attempts']})")
        return 0


def _executor(speculate: bool) -> str:
    """The ``executor=`` a child tuner gets: one makes it speculate."""
    return "SerialExecutor" if speculate else "None"


def _run_trace(arm: str, kwargs: dict, n_trial: int, ckpt: str,
               resume: bool, trace_out: str = "",
               speculate: bool = False) -> dict:
    code = _RUNNER.format(
        src=str(SRC), arm=arm, kwargs=kwargs, n_trial=n_trial,
        ckpt=ckpt, resume=resume, trace_out=trace_out,
        executor=_executor(speculate),
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_fleet(arm: str, kwargs: dict, n_trial: int, ckpt_dir: str,
               devices: str, fleet: bool, resume: bool) -> dict:
    code = _FLEET_RUNNER.format(
        src=str(SRC), arm=arm, kwargs=kwargs, n_trial=n_trial,
        ckpt_dir=ckpt_dir, devices=devices, fleet=fleet, resume=resume,
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _is_serial_equivalent(devices: str) -> bool:
    """True when every pool slot is the compiler's own device class."""
    tokens = [
        t.partition(":")[0].strip()
        for t in devices.split(",") if t.strip()
    ]
    return all(t == _SERIAL_EQUIVALENT_CLASS for t in tokens)


def _fleet_main(args) -> int:
    """SIGKILL a compile mid-batch, resume it, compare.

    ``--fleet`` kills one worker of a device pool.  For a uniform
    ``gtx1080ti`` pool the baseline is the *serial* single-device run:
    fleet sharding with work stealing must reproduce it bit-for-bit
    even across a kill and a whole-fleet resume from the per-device
    checkpoints.  For a mixed pool each task is measured on its home
    device, so the baseline is an *uninterrupted fleet run* with the
    same spec — kill/resume must not change a single record.
    ``--compile`` kills a compile without a fleet, whose checkpoints
    sit directly in the checkpoint directory, and compares the resumed
    compile to an uninterrupted serial one.
    """
    kwargs = ARM_KWARGS[args.arm]
    fleet = not args.compile
    serial_baseline = not fleet or _is_serial_equivalent(args.devices)
    pattern = "device-*/task-*.ckpt" if fleet else "task-*.ckpt"
    what = "fleet" if fleet else "compile"
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_dir = os.path.join(tmp, "fleet-ckpt")

        if serial_baseline:
            print(f"[1/4] serial {args.arm} baseline ({args.n_trial} "
                  f"trials per task, no fleet)")
            baseline = _run_fleet(args.arm, kwargs, args.n_trial, "",
                                  devices=args.devices, fleet=False,
                                  resume=False)
        else:
            print(f"[1/4] uninterrupted {args.arm} fleet baseline on "
                  f"{args.devices} ({args.n_trial} trials per task)")
            baseline = _run_fleet(args.arm, kwargs, args.n_trial, "",
                                  devices=args.devices, fleet=True,
                                  resume=False)

        if fleet:
            print(f"[2/4] starting fleet child on {args.devices} "
                  "(2 workers, fault injection with real retry backoff)")
        else:
            print("[2/4] starting compile child without a fleet "
                  "(fault injection with real retry backoff)")
        child = subprocess.Popen(
            [sys.executable, "-c", _FLEET_CHILD.format(
                src=str(SRC), arm=args.arm, kwargs=kwargs,
                n_trial=args.n_trial, ckpt_dir=ckpt_dir,
                fleet=args.devices if fleet else None,
                fleet_jobs=2 if fleet else None,
            )],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # wait until some task checkpoint has been rewritten after its
        # step-0 snapshot — i.e. a worker is mid-batch
        deadline = time.monotonic() + args.timeout
        first_mtimes: dict = {}
        killed_mid_run = False
        while time.monotonic() < deadline:
            for path in Path(ckpt_dir).glob(pattern):
                mtime = path.stat().st_mtime_ns
                seen = first_mtimes.setdefault(path, mtime)
                if mtime != seen:
                    killed_mid_run = True
            if killed_mid_run or child.poll() is not None:
                break
            time.sleep(0.02)
        if child.poll() is not None:
            print(f"{what} child finished before it could be killed; "
                  "increase --n-trial", file=sys.stderr)
            return 1

        print(f"[3/4] delivering SIGKILL to the {what} mid-batch")
        child.send_signal(signal.SIGKILL)
        child.wait()
        if not list(Path(ckpt_dir).glob(pattern.replace(".ckpt", ""))):
            print(f"no {what} checkpoints survived the kill",
                  file=sys.stderr)
            return 1

        baseline_name = (
            "serial" if serial_baseline else "uninterrupted fleet"
        )
        print(f"[4/4] resuming the whole {what} and comparing to the "
              f"{baseline_name} baseline")
        resumed = _run_fleet(args.arm, kwargs, args.n_trial, ckpt_dir,
                             devices=args.devices, fleet=fleet, resume=True)

        if resumed != baseline:
            print(f"MISMATCH: resumed {what} diverged from the "
                  f"{baseline_name} baseline", file=sys.stderr)
            for i, (b, r) in enumerate(
                zip(baseline["records"], resumed["records"])
            ):
                if b != r:
                    print(f"  first divergence at record {i}: {b} != {r}",
                          file=sys.stderr)
                    break
            if resumed["summaries"] != baseline["summaries"]:
                print("  per-task summaries differ", file=sys.stderr)
            return 1

        print(f"OK: SIGKILL + whole-{what} resume reproduced all "
              f"{len(baseline['records'])} records and "
              f"{len(baseline['summaries'])} per-task summaries of the "
              f"{baseline_name} run")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arm", default="bted", choices=sorted(ARM_KWARGS))
    parser.add_argument("--n-trial", type=int, default=32)
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds to wait for the mid-run checkpoint")
    parser.add_argument("--trace-out", default=None,
                        help="write the resumed run's JSONL span trace "
                             "here (e.g. for a CI artifact)")
    parser.add_argument("--fleet", action="store_true",
                        help="kill one worker of a device fleet "
                             "mid-batch, resume the fleet, and compare "
                             "against the baseline (serial for a uniform "
                             "gtx1080ti pool, an uninterrupted fleet run "
                             "otherwise)")
    parser.add_argument("--compile", action="store_true",
                        help="kill a two-task compile without a fleet "
                             "(checkpoints directly in the directory) "
                             "mid-batch, resume it, and compare against "
                             "an uninterrupted serial compile")
    parser.add_argument("--devices", default="gtx1080ti,gtx1080ti",
                        help="fleet spec for --fleet (comma-separated "
                             "presets, optional :fault_rate suffixes)")
    parser.add_argument("--pipeline", action="store_true",
                        help="hand the killed child (and the resume) an "
                             "executor, so they speculate; the baseline "
                             "stays serial, so the comparison also pins "
                             "cross-mode bit-identity (metrics, which "
                             "count speculations, compare with an "
                             "uninterrupted speculating run)")
    parser.add_argument("--service", action="store_true",
                        help="SIGKILL the whole tuning service (`repro "
                             "serve`) mid-job, restart it on the same "
                             "data dir, and verify the recovered job's "
                             "records are bit-identical to a direct "
                             "serial tune")
    parser.add_argument("--keep-db", default=None,
                        help="--service only: copy the final jobs.sqlite "
                             "here (e.g. for a CI artifact)")
    args = parser.parse_args()
    if args.service and (args.fleet or args.pipeline or args.compile):
        parser.error(
            "--service is its own mode; drop --fleet/--pipeline/--compile"
        )
    if args.service:
        return _service_main(args)
    if args.compile and args.fleet:
        parser.error("--compile runs without a fleet; drop --fleet")
    if (args.fleet or args.compile) and args.pipeline:
        parser.error("--pipeline is a single-run mode; drop --fleet/--compile")
    if args.fleet or args.compile:
        return _fleet_main(args)
    kwargs = ARM_KWARGS[args.arm]

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "run.ckpt")

        print(f"[1/4] uninterrupted {args.arm} baseline "
              f"({args.n_trial} trials)")
        baseline = _run_trace(args.arm, kwargs, args.n_trial, ckpt,
                              resume=False)
        if args.pipeline:
            # the serial baseline pins records, summary and spans across
            # modes; the metrics count speculations, so they compare
            # with an uninterrupted speculating run
            baseline["metrics"] = _run_trace(
                args.arm, kwargs, args.n_trial, ckpt, resume=False,
                speculate=True,
            )["metrics"]

        mode = "speculating " if args.pipeline else ""
        print(f"[2/4] starting {mode}child with per-batch checkpointing")
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD.format(
                src=str(SRC), arm=args.arm, kwargs=kwargs,
                n_trial=args.n_trial, ckpt=ckpt,
                executor=_executor(args.pipeline),
            )],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # wait for a *mid-run* checkpoint (the step-0 snapshot is
        # written immediately; any later mtime bump means a measured
        # batch has been checkpointed)
        deadline = time.monotonic() + args.timeout
        first_mtime = None
        while time.monotonic() < deadline:
            if os.path.exists(ckpt):
                mtime = os.stat(ckpt).st_mtime_ns
                if first_mtime is None:
                    first_mtime = mtime
                elif mtime != first_mtime:
                    break
            if child.poll() is not None:
                break
            time.sleep(0.02)
        if child.poll() is not None:
            print("child finished before it could be killed; "
                  "increase --n-trial", file=sys.stderr)
            return 1

        print("[3/4] delivering SIGKILL mid-run")
        child.send_signal(signal.SIGKILL)
        child.wait()
        if not os.path.exists(ckpt):
            print("no checkpoint survived the kill", file=sys.stderr)
            return 1

        print("[4/4] resuming in a fresh process and comparing")
        resumed = _run_trace(args.arm, kwargs, args.n_trial, ckpt,
                             resume=True, trace_out=args.trace_out or "",
                             speculate=args.pipeline)

        if resumed != baseline:
            print("MISMATCH: resumed run diverged from the baseline",
                  file=sys.stderr)
            print(f"  baseline best: {baseline['best_index']} "
                  f"@ {baseline['best_gflops']}", file=sys.stderr)
            print(f"  resumed  best: {resumed['best_index']} "
                  f"@ {resumed['best_gflops']}", file=sys.stderr)
            for i, (b, r) in enumerate(
                zip(baseline["records"], resumed["records"])
            ):
                if b != r:
                    print(f"  first divergence at record {i}: {b} != {r}",
                          file=sys.stderr)
                    break
            if resumed["summary"] != baseline["summary"]:
                print("  run summaries differ", file=sys.stderr)
            if resumed["spans"] != baseline["spans"]:
                print("  trace skeletons differ", file=sys.stderr)
            before, after = baseline["metrics"], resumed["metrics"]
            for name in sorted(set(before) | set(after)):
                if before.get(name) != after.get(name):
                    print(f"  metric {name}: {before.get(name)} != "
                          f"{after.get(name)}", file=sys.stderr)
            return 1

        if args.trace_out:
            print(f"resumed trace written to {args.trace_out}")
        print(f"OK: SIGKILL + resume reproduced all "
              f"{len(baseline['records'])} records, the incumbent "
              f"(best config {baseline['best_index']}), the run summary, "
              f"all {len(baseline['spans'])} trace span skeletons and "
              f"{len(baseline['metrics'])} metrics")
        return 0


if __name__ == "__main__":
    sys.exit(main())
