"""Command-line interface.

Exposes the main workflows without writing Python::

    python -m repro models                         # list the zoo
    python -m repro tasks --model mobilenet-v1     # list tuning tasks
    python -m repro tune --model squeezenet-v1.1 --arm bted+bao \
        --budget 256 --records out.jsonl           # tune + deploy
    python -m repro experiment fig4 --scale 0.1    # regenerate a figure
    python -m repro fleet --model squeezenet-v1.1 \
        --devices gtx1080ti,gtx1080ti,titanv       # multi-device tuning
    python -m repro tune --model squeezenet-v1.1 \
        --tlog-dir tlog --warm-start               # cross-run transfer
    python -m repro compile --model squeezenet-v1.1 \
        --tlog-dir tlog                            # deploy from the log
    python -m repro serve --data-dir service-data  # tuning-as-a-service
    python -m repro submit --url http://127.0.0.1:8100 \
        --model alexnet --arm bted --wait          # submit a job
    python -m repro jobs --url http://127.0.0.1:8100  # job browser
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro.core import INCREMENTAL_REFIT_ARMS, TUNER_REGISTRY
from repro.experiments.settings import ExperimentSettings
from repro.hardware.faults import FaultModel, RetryPolicy
from repro.nn.zoo import MODEL_BUILDERS, PAPER_MODELS, build_model
from repro.pipeline.compiler import DeploymentCompiler
from repro.pipeline.records import RecordStore
from repro.pipeline.tasks import extract_tasks
from repro.space.templates import build_space
from repro.utils.log import enable_console_logging


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.nn.zoo import EXTENSION_MODELS

    print(f"{'model':<18} {'nodes':>6} {'GFLOPs':>8} {'Mparams':>8} {'tasks':>6}")
    for name in PAPER_MODELS + EXTENSION_MODELS:
        graph = build_model(name)
        tasks = extract_tasks(graph)
        tag = "" if name in PAPER_MODELS else "  (extension)"
        print(
            f"{name:<18} {len(graph):>6} "
            f"{graph.total_flops() / 1e9:>8.3f} "
            f"{graph.total_params() / 1e6:>8.3f} {len(tasks):>6}{tag}"
        )
    return 0


def _cmd_tasks(args: argparse.Namespace) -> int:
    graph = build_model(args.model)
    tasks = extract_tasks(graph)
    print(f"{len(tasks)} tuning tasks in {args.model}:")
    for task in tasks:
        size = len(build_space(task.workload))
        print(
            f"  T{task.task_id + 1:<3d} {task.workload.kind:<18s} "
            f"x{task.occurrences}  |space|={size:,}  {task.workload}"
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    enable_console_logging()
    graph = build_model(args.model)
    compiler = DeploymentCompiler(
        graph, env_seed=args.env_seed, include_winograd=args.winograd
    )
    store = RecordStore() if args.records else None

    def progress(spec, result):
        print(
            f"T{spec.task_id + 1:<3d} {spec.workload.kind:<12s} "
            f"{spec.template:<9s} best {result.best_gflops:9.1f} GFLOPS "
            f"in {result.num_measurements} measurements"
        )

    faults = None
    if args.fault_rate > 0:
        faults = FaultModel(rate=args.fault_rate, seed=args.fault_seed)
    retry = (
        RetryPolicy(max_retries=args.max_retries)
        if args.max_retries is not None
        else None
    )
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    tuner_kwargs = _refit_kwargs(args)
    if tuner_kwargs is None:
        return 2
    observation = None
    if args.metrics_out or args.trace_out or args.summary:
        from repro.obs import RunObservation

        observation = RunObservation(
            enable_metrics=bool(args.metrics_out),
            enable_trace=bool(args.trace_out),
        )
    compiled = compiler.tune(
        args.arm,
        n_trial=args.budget,
        early_stopping=args.early_stop,
        trial_seed=args.seed,
        tuner_kwargs=tuner_kwargs,
        record_store=store,
        progress=progress,
        faults=faults,
        retry=retry,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        observation=observation,
        tlog=args.tlog_dir,
        warm_start=args.warm_start,
        warm_k=args.warm_k,
        warm_device=args.warm_device,
    )
    # the records of a finished tune are saved before anything that
    # could still fail (exports, the latency measurement)
    if store is not None:
        store.save(args.records)
    if observation is not None:
        if args.metrics_out:
            observation.write_metrics(args.metrics_out)
            print(f"  metrics  : {args.metrics_out}")
        if args.trace_out:
            observation.write_trace_jsonl(args.trace_out)
            print(f"  trace    : {args.trace_out}")
        if args.summary:
            observation.write_summary(args.summary)
            print(f"  summary  : {args.summary}")
    sample = compiled.measure_latency(num_runs=args.runs, seed=args.seed)
    print()
    print(f"{args.model} via {args.arm}:")
    print(f"  latency  : {sample.mean_ms:.4f} ms (mean of {args.runs} runs)")
    print(f"  variance : {sample.variance:.6f}")
    if args.tlog_dir:
        counts = compiled.tlog_counts()
        print(
            f"  tlog     : {counts['hit']} hits / {counts['warm']} warm / "
            f"{counts['cold']} cold -> {args.tlog_dir}"
        )
    if store is not None:
        print(f"  records  : {len(store)} -> {args.records}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    enable_console_logging()
    graph = build_model(args.model)
    compiler = DeploymentCompiler(graph, env_seed=args.env_seed)
    compiled = compiler.compile_from_tlog(args.tlog_dir)
    counts = compiled.tlog_counts()
    sample = compiled.measure_latency(num_runs=args.runs, seed=args.seed)
    print(f"{args.model} from tuning log {args.tlog_dir}:")
    print(
        f"  tasks    : {counts['hit']} from log, "
        f"{counts['cold']} default schedule"
    )
    print(f"  latency  : {sample.mean_ms:.4f} ms (mean of {args.runs} runs)")
    print(f"  variance : {sample.variance:.6f}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    enable_console_logging()
    from repro.fleet import (
        FleetError,
        parse_fleet,
        write_device_summaries,
        write_fleet_report,
    )

    fleet = parse_fleet(args.devices)
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    tuner_kwargs = _refit_kwargs(args)
    if tuner_kwargs is None:
        return 2
    graph = build_model(args.model)
    compiler = DeploymentCompiler(graph, env_seed=args.env_seed)
    store = RecordStore() if args.records else None
    faults = None
    if args.fault_rate > 0:
        faults = FaultModel(rate=args.fault_rate, seed=args.fault_seed)
    retry = (
        RetryPolicy(max_retries=args.max_retries)
        if args.max_retries is not None
        else None
    )
    observation = None
    if args.summary_dir:
        from repro.obs import RunObservation

        observation = RunObservation(
            enable_metrics=False, enable_trace=False
        )

    print(f"{args.model} via {args.arm} on a fleet of {len(fleet)}:")
    for line in fleet.describe():
        print(f"  {line}")
    try:
        compiled = compiler.tune(
            args.arm,
            n_trial=args.budget,
            early_stopping=args.early_stop,
            trial_seed=args.seed,
            tuner_kwargs=tuner_kwargs,
            record_store=store,
            faults=faults,
            retry=retry,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            observation=observation,
            fleet=fleet,
            fleet_jobs=args.jobs,
            tlog=args.tlog_dir,
            warm_start=args.warm_start,
            warm_k=args.warm_k,
            warm_device=args.warm_device,
        )
    except FleetError as exc:
        print(f"fleet aborted: {exc}", file=sys.stderr)
        if args.checkpoint_dir:
            print(
                "rerun with --resume and the same --devices / "
                "--checkpoint-dir to finish the survivors",
                file=sys.stderr,
            )
        return 1
    # saved before the report, summary and latency steps can fail
    if store is not None:
        store.save(args.records)

    result = compiled.fleet
    print()
    print(f"{'device':<12} {'homed':>6} {'executed':>9} "
          f"{'stolen in/out':>14} {'measurements':>13}")
    for report in result.reports:
        print(
            f"{report.index:02d} {report.name:<12.12s} "
            f"{len(report.homed):>3d} {len(report.executed):>9d} "
            f"{report.stolen_in:>6d}/{report.stolen_out:<4d} "
            f"{report.measurements:>13d}"
        )
    if result.steals:
        print(f"  steals   : {len(result.steals)}")
    if args.report:
        measurements = {
            key: res.num_measurements
            for key, res in result.results.items()
        }
        write_fleet_report(args.report, result, measurements)
        print(f"  report   : {args.report}")
    if observation is not None and args.summary_dir:
        summaries = {}
        for key in observation.keys():
            summary = observation.observer(key).summary()
            summary.task = summary.task or key
            summaries[key] = summary
        write_device_summaries(args.summary_dir, result, summaries)
        print(f"  summaries: {args.summary_dir}/summary.json")
    sample = compiled.measure_latency(num_runs=args.runs, seed=args.seed)
    print(f"  latency  : {sample.mean_ms:.4f} ms (mean of {args.runs} runs)")
    print(f"  variance : {sample.variance:.6f}")
    if args.tlog_dir:
        counts = compiled.tlog_counts()
        print(
            f"  tlog     : {counts['hit']} hits / {counts['warm']} warm / "
            f"{counts['cold']} cold -> {args.tlog_dir}"
        )
    if store is not None:
        print(f"  records  : {len(store)} -> {args.records}")
    return 0


def _parse_arms(spec: Optional[str]) -> Optional[tuple]:
    """Validate a comma-separated ``--arms`` list against the registry."""
    if not spec:
        return None
    arms = tuple(a.strip() for a in spec.split(",") if a.strip())
    unknown = [a for a in arms if a.lower() not in TUNER_REGISTRY]
    if unknown:
        raise SystemExit(
            f"unknown arm(s) {unknown}; available: {sorted(TUNER_REGISTRY)}"
        )
    return arms


def _cmd_experiment(args: argparse.Namespace) -> int:
    enable_console_logging()
    settings = ExperimentSettings().scaled(args.scale)
    arms = _parse_arms(args.arms)
    arms_kwargs = {} if arms is None else {"arms": arms}
    if args.which == "fig4":
        from repro.experiments.fig4 import run_fig4

        result = run_fig4(
            settings=settings,
            num_measurements=max(128, int(1024 * args.scale)),
            num_trials=settings.num_trials,
            jobs=args.jobs,
            checkpoint_dir=args.checkpoint_dir,
            summary_dir=args.summary,
            **arms_kwargs,
        )
        print(result.report())
    elif args.which == "fig5":
        from repro.experiments.fig5 import run_fig5

        result = run_fig5(
            settings=settings,
            max_tasks=args.max_tasks,
            jobs=args.jobs,
            checkpoint_dir=args.checkpoint_dir,
            summary_dir=args.summary,
            **arms_kwargs,
        )
        print(result.report())
    elif args.which == "adaptive":
        from repro.experiments.adaptive import run_adaptive_study

        if arms is not None and len(arms) != 2:
            raise SystemExit(
                "experiment adaptive takes --arms baseline,adaptive"
            )
        baseline, adaptive = arms if arms is not None else ("bted", "bted+as")
        result = run_adaptive_study(
            model_name=args.model,
            baseline_arm=baseline,
            adaptive_arm=adaptive,
            settings=settings,
            num_trials=settings.num_trials,
            jobs=args.jobs,
            checkpoint_dir=args.checkpoint_dir,
            summary_dir=args.summary,
        )
        print(result.report())
    elif args.which == "warmcold":
        from repro.experiments.transfer import run_warm_cold

        result = run_warm_cold(
            model_name=args.model,
            tuner_name=args.arm,
            n_trial=max(64, settings.n_trial),
            env_seed=settings.env_seed,
            max_tasks=args.max_tasks,
            tlog_dir=args.tlog_dir,
            warm_k=args.warm_k,
        )
        print(result.report())
    elif args.which == "crossdevice":
        import json as _json

        from repro.experiments.crossdevice import run_cross_device

        result = run_cross_device(
            model_name=args.model,
            tuner_name=args.arm,
            n_trial=max(64, settings.n_trial),
            env_seed=settings.env_seed,
            devices=[
                d.strip() for d in args.devices.split(",") if d.strip()
            ],
            max_tasks=args.max_tasks,
            tlog_dir=args.tlog_dir,
            warm_k=args.warm_k,
        )
        print(result.report())
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                _json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"crossdevice digest written to {args.json_out}")
    else:
        from repro.experiments.table1 import run_table1

        result = run_table1(
            settings=settings, jobs=args.jobs, summary_dir=args.summary,
            **arms_kwargs,
        )
        print(result.report())
    if args.summary:
        print(f"summaries written to {args.summary}/summary.json")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    enable_console_logging()
    from repro.service import TuningService

    quotas = {}
    for item in args.quota or []:
        tenant, _, limit = item.partition("=")
        if not tenant or not limit.isdigit():
            print(
                f"--quota takes TENANT=N, got {item!r}", file=sys.stderr
            )
            return 2
        quotas[tenant] = int(limit)
    service = TuningService(
        args.data_dir,
        host=args.host,
        port=args.port,
        devices=args.devices,
        fleet_jobs=args.jobs,
        quotas=quotas or None,
        default_quota=args.default_quota,
        tlog=not args.no_tlog,
        warm_start=args.warm_start,
    )
    with service:
        # scripts parse this line to find an ephemeral (--port 0) port
        print(f"serving on {service.url}", flush=True)
        print(f"  data dir : {service.data_dir}", flush=True)
        print(f"  devices  : {args.devices}", flush=True)
        try:
            while True:
                import time as _time

                _time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    spec = {
        "model": args.model,
        "arm": args.arm,
        "n_trial": args.budget,
        "early_stopping": args.early_stop,
        "trial_seed": args.seed,
        "env_seed": args.env_seed,
        "tenant": args.tenant,
        "priority": args.priority,
    }
    if args.devices:
        spec["devices"] = args.devices
    if args.max_tasks is not None:
        spec["max_tasks"] = args.max_tasks
    if args.tuner_kwargs:
        spec["tuner_kwargs"] = _json.loads(args.tuner_kwargs)
    try:
        job = client.submit(**spec)
    except ServiceClientError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        print(
            _json.dumps(exc.body, indent=2, sort_keys=True),
            file=sys.stderr,
        )
        return 1
    print(f"{job['job_id']} queued (tenant={job['tenant']} "
          f"priority={job['priority']})")
    if not args.wait:
        return 0

    def on_progress(point):
        if point.get("kind") == "task_done":
            print(
                f"  task-{point['task_id']:03d} done: "
                f"{point['best_gflops']:.1f} GFLOPS in "
                f"{point['measurements']} measurements"
            )

    done = client.wait(
        job["job_id"], timeout_s=args.timeout, on_progress=on_progress
    )
    print(f"{done['job_id']} {done['state']}: "
          f"{done['tasks_done']} task(s), "
          f"best {done['best_gflops']:.1f} GFLOPS")
    if done["state"] == "failed":
        print(f"  error: {done['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    try:
        if args.job_id:
            job = client.job(args.job_id)
            print(f"{job['job_id']}: {job['state']} "
                  f"(tenant={job['tenant']} priority={job['priority']})")
            if job["error"]:
                print(f"  error: {job['error']}")
            for task in job["tasks"]:
                print(
                    f"  task-{task['task_id']:03d} via {task['tuner']:<8s}"
                    f" best {task['best_gflops']:9.1f} GFLOPS in "
                    f"{task['num_measurements']} measurements"
                )
            return 0
        rows = client.jobs(tenant=args.tenant, state=args.state)
    except ServiceClientError as exc:
        print(f"request failed: {exc}", file=sys.stderr)
        return 1
    print(f"{'job':<12} {'tenant':<10} {'prio':>4} {'state':<10} "
          f"{'tasks':>5} {'best GFLOPS':>12}")
    for row in rows:
        print(
            f"{row['job_id']:<12} {row['tenant']:<10.10s} "
            f"{row['priority']:>4d} {row['state']:<10} "
            f"{row['tasks_done']:>5d} {row['best_gflops']:>12.1f}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report, write_report

    if args.output:
        path = write_report(args.results, args.output)
        print(f"report written to {path}")
    else:
        print(build_report(args.results))
    return 0


def _add_refit_arg(parser: argparse.ArgumentParser) -> None:
    """The ``--refit`` flag shared by tuning subcommands."""
    parser.add_argument("--refit", choices=("full", "incremental"),
                        default="full",
                        help="surrogate-model refit strategy: 'full' "
                             "rebuilds from scratch each round "
                             "(historical default), 'incremental' keeps "
                             "grown trees and appends boosting rounds "
                             "(model-based arms only)")


def _refit_kwargs(args: argparse.Namespace) -> Optional[dict]:
    """Validate --refit against the arm; None means 'print usage error'."""
    if args.refit == "full":
        return {}
    if args.arm.lower() not in INCREMENTAL_REFIT_ARMS:
        print(
            f"--refit incremental is not supported by arm {args.arm!r}; "
            f"supported arms: {sorted(INCREMENTAL_REFIT_ARMS)}",
            file=sys.stderr,
        )
        return None
    return {"refit": args.refit}


def _add_tlog_args(parser: argparse.ArgumentParser) -> None:
    """The cross-run tuning-log flags shared by tuning subcommands."""
    parser.add_argument("--tlog-dir", default=None,
                        help="consult and grow a cross-run tuning-log "
                             "database in this directory: exact-signature "
                             "tasks are served with zero measurements and "
                             "finished tasks are recorded for later runs")
    parser.add_argument("--warm-start", action="store_true",
                        help="seed each task's search from the nearest "
                             "transferable tasks in --tlog-dir "
                             "(no effect without --tlog-dir)")
    parser.add_argument("--warm-k", type=int, default=16,
                        help="prior configurations injected per "
                             "warm-started task (default: 16)")
    parser.add_argument("--warm-device", default="any",
                        choices=("any", "same", "cross"),
                        help="device classes eligible as warm-start "
                             "sources: any (default), same (the task's "
                             "own class), or cross (other classes only)")


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _unit_scale(text: str) -> float:
    """An argparse type: a budget scale in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


_unit_scale.__name__ = "float"  # argparse names the type in its messages


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Advanced active learning for DNN hardware deployment "
        "(DATE 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(
        func=_cmd_models
    )

    p_tasks = sub.add_parser("tasks", help="list a model's tuning tasks")
    p_tasks.add_argument("--model", required=True,
                         choices=sorted(MODEL_BUILDERS))
    p_tasks.set_defaults(func=_cmd_tasks)

    p_tune = sub.add_parser("tune", help="tune and deploy a zoo model")
    p_tune.add_argument("--model", required=True,
                        choices=sorted(MODEL_BUILDERS))
    p_tune.add_argument(
        "--arm", default="bted+bao", choices=sorted(TUNER_REGISTRY)
    )
    p_tune.add_argument("--budget", type=_at_least(1), default=256,
                        help="measurements per task")
    p_tune.add_argument("--early-stop", type=int, default=None)
    p_tune.add_argument("--runs", type=_at_least(2), default=600,
                        help="timed end-to-end runs")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--env-seed", type=int, default=2021)
    p_tune.add_argument("--records", default=None,
                        help="save tuning records to this JSON-lines file")
    p_tune.add_argument("--winograd", action="store_true",
                        help="also tune Winograd templates for eligible "
                             "convs and deploy the faster one per kernel")
    p_tune.add_argument("--checkpoint-dir", default=None,
                        help="write per-task tuning checkpoints here")
    p_tune.add_argument("--resume", action="store_true",
                        help="continue an interrupted run from "
                             "--checkpoint-dir (bit-identical to an "
                             "uninterrupted run)")
    p_tune.add_argument("--fault-rate", type=float, default=0.0,
                        help="inject deterministic transient measurement "
                             "faults at this rate (0 disables)")
    p_tune.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault-injection schedule")
    p_tune.add_argument("--max-retries", type=int, default=None,
                        help="retries per faulted measurement before it is "
                             "recorded as failed (default: 3)")
    p_tune.add_argument("--metrics-out", default=None,
                        help="write a Prometheus-style metrics snapshot of "
                             "the tuning run to this file")
    p_tune.add_argument("--trace-out", default=None,
                        help="write a JSONL span trace "
                             "(tune/step/propose/measure/refit) here")
    p_tune.add_argument("--summary", default=None,
                        help="write the per-run RunSummary JSON (best curve, "
                             "time breakdown, fault counts) here")
    _add_tlog_args(p_tune)
    _add_refit_arg(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_compile = sub.add_parser(
        "compile",
        help="deploy a model straight from a tuning-log database "
             "(no tuning, no measurements)",
    )
    p_compile.add_argument("--model", required=True,
                           choices=sorted(MODEL_BUILDERS))
    p_compile.add_argument("--tlog-dir", required=True,
                           help="tuning-log database to deploy from")
    p_compile.add_argument("--runs", type=_at_least(2), default=600,
                           help="timed end-to-end runs")
    p_compile.add_argument("--seed", type=int, default=0)
    p_compile.add_argument("--env-seed", type=int, default=2021)
    p_compile.set_defaults(func=_cmd_compile)

    p_fleet = sub.add_parser(
        "fleet",
        help="tune a model on a simulated multi-device fleet "
             "(bit-identical to a serial run)",
    )
    p_fleet.add_argument("--model", required=True,
                         choices=sorted(MODEL_BUILDERS))
    p_fleet.add_argument(
        "--arm", default="bted+bao", choices=sorted(TUNER_REGISTRY)
    )
    p_fleet.add_argument("--devices", default="gtx1080ti,gtx1080ti",
                         help="comma-separated device presets, each "
                              "optionally suffixed :fault_rate "
                              "(e.g. gtx1080ti,gtx1080ti:0.1,titanv)")
    p_fleet.add_argument("--jobs", type=_at_least(1), default=None,
                         help="worker threads draining the fleet "
                              "(default: one per device)")
    p_fleet.add_argument("--budget", type=_at_least(1), default=256,
                         help="measurements per task")
    p_fleet.add_argument("--early-stop", type=int, default=None)
    p_fleet.add_argument("--runs", type=_at_least(2), default=600,
                         help="timed end-to-end runs")
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--env-seed", type=int, default=2021)
    p_fleet.add_argument("--records", default=None,
                         help="save tuning records to this JSON-lines file")
    p_fleet.add_argument("--checkpoint-dir", default=None,
                         help="write per-device task checkpoints here "
                              "(device-NN/task-MMM.ckpt)")
    p_fleet.add_argument("--resume", action="store_true",
                         help="continue an interrupted fleet run from "
                              "--checkpoint-dir with the same --devices "
                              "(bit-identical to an uninterrupted run)")
    p_fleet.add_argument("--fault-rate", type=float, default=0.0,
                         help="fleet-level deterministic fault rate; "
                              "per-device :rate suffixes override it")
    p_fleet.add_argument("--fault-seed", type=int, default=0)
    p_fleet.add_argument("--max-retries", type=int, default=None,
                         help="retries per faulted measurement")
    p_fleet.add_argument("--report", default=None,
                         help="write the fleet scheduling report "
                              "(assignments, steals, ordinal spans) to "
                              "this JSON file")
    p_fleet.add_argument("--summary-dir", default=None,
                         help="write one RunSummary file per device plus "
                              "the fleet-aggregated summary.json here")
    _add_tlog_args(p_fleet)
    _add_refit_arg(p_fleet)
    p_fleet.set_defaults(func=_cmd_fleet)

    p_exp = sub.add_parser("experiment", help="regenerate a paper result")
    p_exp.add_argument(
        "which",
        choices=[
            "fig4", "fig5", "table1", "warmcold", "adaptive", "crossdevice",
        ],
    )
    p_exp.add_argument("--scale", type=_unit_scale, default=0.1,
                       help="budget scale in (0, 1]; 1.0 = paper protocol")
    p_exp.add_argument("--arms", default=None,
                       help="fig4/fig5/table1: comma-separated arm list "
                            "to compare (default: the paper arms; see "
                            "docs/ARMS.md for the full registry); "
                            "adaptive: baseline,adaptive arm pair")
    p_exp.add_argument("--max-tasks", type=int, default=None,
                       help="fig5/warmcold/crossdevice: limit the number "
                            "of tasks")
    p_exp.add_argument("--jobs", type=_at_least(1), default=1,
                       help="fan experiment cells over N worker processes "
                            "(results are identical to --jobs 1)")
    p_exp.add_argument("--checkpoint-dir", default=None,
                       help="fig4/fig5: persist finished cells here; "
                            "rerunning skips them")
    p_exp.add_argument("--summary", default=None,
                       help="collect per-cell RunSummary files and an "
                            "aggregated summary.json in this directory")
    p_exp.add_argument("--model", default="mobilenet-v1",
                       choices=sorted(MODEL_BUILDERS),
                       help="warmcold/adaptive/crossdevice: model to study")
    p_exp.add_argument("--arm", default="bted",
                       choices=sorted(TUNER_REGISTRY),
                       help="warmcold/crossdevice: tuning arm")
    p_exp.add_argument("--tlog-dir", default=None,
                       help="warmcold/crossdevice: persist the study's "
                            "tuning log here (default: temporary)")
    p_exp.add_argument("--warm-k", type=int, default=16,
                       help="warmcold/crossdevice: prior configurations "
                            "injected per warm-started task")
    p_exp.add_argument("--devices", default="gtx1080ti,titanv,jetsontx2",
                       help="crossdevice only: comma-separated device "
                            "presets (at least two distinct classes)")
    p_exp.add_argument("--json-out", default=None,
                       help="crossdevice only: also write the study "
                            "digest to this JSON file")
    p_exp.set_defaults(func=_cmd_experiment)

    p_serve = sub.add_parser(
        "serve",
        help="run the tuning service: HTTP job API + persistent job "
             "store + fleet queue (see docs/SERVICE.md)",
    )
    p_serve.add_argument("--data-dir", required=True,
                         help="service state root: jobs.sqlite, per-job "
                              "checkpoints, and the shared tuning log")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8100,
                         help="listening port (0 binds an ephemeral "
                              "port and prints it)")
    p_serve.add_argument("--devices", default="gtx1080ti,gtx1080ti",
                         help="the service fleet (comma-separated device "
                              "presets, as in `repro fleet --devices`)")
    p_serve.add_argument("--jobs", type=_at_least(1), default=None,
                         help="worker threads draining the fleet "
                              "(default: one per device)")
    p_serve.add_argument("--quota", action="append", metavar="TENANT=N",
                         help="per-tenant active-job quota override "
                              "(repeatable)")
    p_serve.add_argument("--default-quota", type=int, default=8,
                         help="active-job quota for tenants without an "
                              "explicit --quota (default: 8)")
    p_serve.add_argument("--no-tlog", action="store_true",
                         help="disable the shared cross-job tuning log "
                              "(every job tunes from scratch)")
    p_serve.add_argument("--warm-start", action="store_true",
                         help="warm-start each job's tasks from the "
                              "shared tuning log")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a tuning job to a running service"
    )
    p_submit.add_argument("--url", required=True,
                          help="service base URL (from `repro serve`)")
    p_submit.add_argument("--model", required=True,
                          choices=sorted(MODEL_BUILDERS))
    p_submit.add_argument("--arm", default="bted+bao",
                          choices=sorted(TUNER_REGISTRY))
    p_submit.add_argument("--budget", type=int, default=64,
                          help="measurements per task")
    p_submit.add_argument("--early-stop", type=int, default=None)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--env-seed", type=int, default=2021)
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher dequeues first (FIFO within a "
                               "level)")
    p_submit.add_argument("--devices", default=None,
                          help="override the service fleet for this job")
    p_submit.add_argument("--max-tasks", type=int, default=None,
                          help="limit the number of tuned tasks")
    p_submit.add_argument("--tuner-kwargs", default=None,
                          help="JSON object of extra tuner arguments")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll progress until the job finishes")
    p_submit.add_argument("--timeout", type=float, default=3600.0,
                          help="--wait timeout in seconds")
    p_submit.set_defaults(func=_cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list a service's jobs, or show one job's tasks"
    )
    p_jobs.add_argument("--url", required=True,
                        help="service base URL (from `repro serve`)")
    p_jobs.add_argument("job_id", nargs="?", default=None,
                        help="show this job's per-task results")
    p_jobs.add_argument("--tenant", default=None,
                        help="filter the listing by tenant")
    p_jobs.add_argument("--state", default=None,
                        choices=("queued", "running", "done", "failed",
                                 "cancelled"),
                        help="filter the listing by state")
    p_jobs.set_defaults(func=_cmd_jobs)

    p_report = sub.add_parser(
        "report", help="aggregate benchmark artifacts into one document"
    )
    p_report.add_argument("--results", default="benchmarks/results",
                          help="benchmark results directory")
    p_report.add_argument("--output", default=None,
                          help="write markdown here instead of stdout")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
