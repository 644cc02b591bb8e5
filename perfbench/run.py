#!/usr/bin/env python3
"""Run the repository benchmark.

One workload, as the benchmark contract calls it::

    python3 perfbench/run.py --workload compile-resnet18 --seed 1 --seconds 25 --trace 0

prints human-readable lines and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, untraced then traced, each in a fresh process::

    python3 perfbench/run.py [--seed 1] [--seconds 25] [--baseline OLD_SUMMARY.json]

prints every end-to-end and per-layer metric by name with its unit, the
unattributed share of traced wall time and the tracing overhead, checks
that the traced and untraced runs produced the same outputs, and exits
non-zero when any output check fails.  Results, spans and a summary are
written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
HOST_KEYS = ("python", "numpy", "machine", "cpu_count", "affinity")


def host_metadata() -> dict:
    """Where a result was measured; results are comparable only within a host."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():  # never search directories above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def cpu_steal() -> float:
    """Host-wide CPU seconds stolen by the hypervisor so far (0 where unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _window_s(episode: dict) -> float:
    start, end = episode["window"]
    return end - start


def _emit(name: str, value: float, unit: str) -> None:
    print(f"  {name:<32} {value:>14.6g} {unit}")


# ----------------------------------------------------------------------
# one workload, in this process


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import metrics, tracing
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.prepare()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix=f"{name}-")
    failures = []
    attempted = failed = 0
    episodes, spans_all, layer_rows = [], [], []
    reference = None
    steal_before, wall_before = cpu_steal(), time.perf_counter()
    try:
        # set-up samples come in blocks spread over the run (before the
        # warm-up, at the end of every untraced episode and, on the
        # compile workloads, after every tuned task), each block on every
        # CPU in turn, so the figure does not hang on how fast the host
        # was at one moment or on which CPU the process ran
        setup = workload.setup_samples(seed, scratch)
        workload.warmup(seed, scratch)
        deadline = time.perf_counter() + seconds
        tracer = None
        if trace:
            # an untraced episode first: the outputs the traced ones must
            # reproduce, and the wall time the tracing overhead is taken from
            try:
                reference = workload.episode(seed, scratch, 0)
            except Exception:  # noqa: BLE001 - counted and reported
                traceback.print_exc()
                failures.append("the untraced reference episode raised")
            tracer = tracing.install(tracing.Tracer())
        try:
            while True:
                try:
                    episode = workload.episode(
                        seed, scratch, len(episodes), sample_setup=tracer is None
                    )
                except Exception:  # noqa: BLE001 - counted and reported
                    traceback.print_exc()
                    attempted += 1
                    failed += 1
                    failures.append(f"episode {len(episodes)} raised")
                    episode = None
                if episode is not None:
                    episodes.append(episode)
                    attempted += episode["attempted"]
                    failed += episode["failed"]
                    failures.extend(episode["check_failures"])
                    if tracer is not None:
                        spans = tracer.take()
                        spans_all.extend(spans)
                        layer_rows.append(metrics.per_layer(spans, episode))
                if time.perf_counter() >= deadline:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for episode in episodes[1:] + ([reference] if reference else []):
        for key in ("deployed_latency_ms", "deployed_latency_std_ms", "best_configs"):
            if episode[key] != episodes[0][key]:
                failures.append(f"{key} differs between episodes of one seed")
    # share of the host's CPU time the hypervisor gave to others during
    # this run: a run with a high share is slow for reasons outside the code
    steal_share = (cpu_steal() - steal_before) / (
        (time.perf_counter() - wall_before) * (os.cpu_count() or 1)
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = metrics.end_to_end(episodes, setup, peak_rss_mb, workload.faster_half)
    layers = {}
    if trace:
        layers = {
            key: metrics.median([row[key] for row in layer_rows])
            for key in metrics.PER_LAYER
        }
        if reference is not None and episodes:
            layers["trace.overhead_s"] = metrics.median(
                [_window_s(e) for e in episodes]
            ) - _window_s(reference)
    correct = not failures and failed == 0 and bool(episodes)

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        tracing.write_spans(str(OUT / f"spans-{tag}.jsonl"), spans_all)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_metadata(),
        "cpu_steal_share": steal_share,
        "episodes": len(episodes),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "check_failures": failures,
        "end_to_end": e2e,
        "per_layer": layers,
        "episode_compile_times": [e["compile_times"] for e in episodes],
        "episode_wall_s": [e["wall_s"] for e in episodes],
        "best_configs": episodes[0]["best_configs"] if episodes else {},
    }
    shares = [e["first_wait_share"] for e in episodes if "first_wait_share" in e]
    if shares:
        # how the clients' waiting splits between the two job populations
        result["first_wait_share"] = metrics.median(shares)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    print(f"{name}: seed {seed}, {len(episodes)} episode(s), "
          f"{attempted} attempted, {failed} failed "
          f"(failed_ratio {result['failed_ratio']:.4f}); "
          f"CPU steal {steal_share:.1%} of host CPU time")
    if "first_wait_share" in result:
        print(f"  first submissions take {result['first_wait_share']:.1%} of the "
              f"clients' waiting time, repeats the rest")
    for problem in failures:
        print(f"  CHECK FAILED: {problem}")
    shown, units = (layers, metrics.PER_LAYER) if trace else (e2e, metrics.END_TO_END)
    for key, unit in units.items():
        _emit(key, shown[key], unit)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": shown[key], "unit": unit} for key, unit in units.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, each in a fresh process


def _host_mismatch(a: dict, b: dict) -> list:
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]


def run_all(seed: int, seconds: float, baseline: str = None) -> int:
    from perfbench import metrics
    from perfbench.workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    problems = []
    summary = {"seed": seed, "seconds": seconds, "host": host_metadata(), "workloads": {}}
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            tag = f"{name}-seed{seed}-trace{trace}"
            path = OUT / f"result-{tag}.json"
            if proc.returncode != 0 or not path.exists():
                problems.append(f"{tag}: exited {proc.returncode}")
                continue
            runs[trace] = json.loads(path.read_text())
            problems.extend(f"{tag}: {p}" for p in runs[trace]["check_failures"])
            if runs[trace]["failed"]:
                problems.append(f"{tag}: {runs[trace]['failed']} failed operation(s)")
        if len(runs) < 2:
            continue
        plain, traced = runs[0], runs[1]
        for key in ("deployed_latency_ms", "deployed_latency_std_ms"):
            if plain["end_to_end"][key] != traced["end_to_end"][key]:
                problems.append(f"{name}: traced and untraced {key} differ")
        if plain["best_configs"] != traced["best_configs"]:
            problems.append(f"{name}: traced and untraced best configs differ")
        summary["workloads"][name] = {
            "end_to_end": plain["end_to_end"], "per_layer": traced["per_layer"],
            "failed_ratio": plain["failed_ratio"],
        }
        print(f"\n== {name} (seed {seed}; {plain['episodes']} untraced, "
              f"{traced['episodes']} traced episode(s))")
        print(f"  {'failed_ratio':<32} {plain['failed_ratio']:>14.6g} ratio")
        if "first_wait_share" in plain:
            print(f"  {'first_wait_share':<32} {plain['first_wait_share']:>14.6g} ratio")
        for key, unit in metrics.END_TO_END.items():
            _emit(key, plain["end_to_end"][key], unit)
        print("  -- per layer (traced run) --")
        for key, unit in metrics.PER_LAYER.items():
            _emit(key, traced["per_layer"][key], unit)
        wall = traced["per_layer"]["trace.unattributed_share"]
        print(f"  unattributed share of traced wall time: {wall:.1%}; tracing "
              f"overhead (traced minus untraced episode wall): "
              f"{traced['per_layer']['trace.overhead_s']:+.4f} s")
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))

    if baseline:
        old = json.loads(Path(baseline).read_text())
        mismatch = _host_mismatch(old.get("host", {}), summary["host"])
        if mismatch:
            print(f"\nWARNING: baseline measured on another host ({', '.join(mismatch)} "
                  "differ); the comparison below is not like for like")
        print(f"\n== change against {baseline} (new / old)")
        for name, new in summary["workloads"].items():
            before = old.get("workloads", {}).get(name)
            if before is None:
                continue
            for key in metrics.END_TO_END:
                a, b = new["end_to_end"][key], before["end_to_end"].get(key)
                if b:
                    print(f"  {name:<22} {key:<28} {a / b:8.3f}x")

    print()
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("all output checks passed" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="summary JSON of an earlier all-workload run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no repro sources under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload is None:
        return run_all(args.seed, args.seconds, args.baseline)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
