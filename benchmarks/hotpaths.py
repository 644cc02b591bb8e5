#!/usr/bin/env python
"""Hot-path microbenchmarks and the perf-regression harness.

Times the tuning loop's Python-side hot paths — histogram-tree
prediction, TED / BTED selection, bootstrap-ensemble fit/predict, and
a full BTED+BAO tuning step — against the preserved reference
implementations (the per-node tree walk in ``tests/tree_oracle.py``
and the in-place TED loop in ``tests/ted_oracle.py``), and writes the
numbers to a JSON artifact (``BENCH_hotpaths.json`` at the repo root
by default).

Three gates are built in:

* **speedup floor** — the vectorized tree predict and the incremental
  TED path must each beat their reference by ``--min-speedup`` (3x by
  default, the PR acceptance bar); disable with ``--no-assert``.
* **regression check** — ``--check BASELINE.json`` compares each
  benchmark's ``wall_s`` against a committed baseline and fails when
  any hot path slowed down by more than ``--threshold`` (2x default).
* **observability overhead** — ``--max-obs-overhead FRAC`` fails when
  attaching a ``TuningObserver`` slows a full tuning run by more than
  ``FRAC`` (CI passes 0.03); omitted, the overhead is report-only.

Run:  PYTHONPATH=src python benchmarks/hotpaths.py --arm bted_bao
"""

import argparse
import json
import os
import platform
import sys
import time
from unittest import mock

import numpy as np

from repro.core import bted
from repro.core.bao import BaoSettings
from repro.core.bootstrap import BootstrapEnsemble
from repro.core.bted import bted_select
from repro.core.events import BatchMeasured, BatchProposed, EventLog
from repro.core.ted import ted_select
from repro.core.tuners.btedbao import BTEDBAOTuner
from repro.hardware.measure import SimulatedTask
from repro.learning.tree import BinnedRegressionTree, apply_bins, bin_features
from repro.nn.workloads import Conv2DWorkload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_hotpaths.json")

# the reference tree walk and TED loop live with the tests, at the repo root
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)
from tests import ted_oracle, tree_oracle  # noqa: E402


def _best_of(fn, repeats):
    """Run ``fn`` ``repeats`` times; return (best wall seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _task():
    """A mid-size conv task (the Fig. 4-style workload family)."""
    workload = Conv2DWorkload(
        batch=1, in_channels=32, out_channels=64, height=28, width=28,
        kernel_h=3, kernel_w=3, pad_h=1, pad_w=1,
    )
    return SimulatedTask(workload, seed=0)


def bench_tree_predict(repeats, scale):
    """Vectorized histogram-tree predict vs the per-node reference loop."""
    rng = np.random.default_rng(0)
    n_train, n_test = int(1200 * scale), int(4000 * scale)
    X = rng.random((max(n_train, 16), 14))
    y = rng.random(len(X))
    codes, edges = bin_features(X, n_bins=16)
    X_test = apply_bins(rng.random((max(n_test, 16), 14)), edges)
    tree = BinnedRegressionTree(n_bins=16, max_depth=8, min_samples_leaf=2)
    tree.fit(codes, y)

    fast_s, fast = _best_of(lambda: tree.predict(X_test), repeats)
    ref_s, ref = _best_of(lambda: tree_oracle.predict(tree, X_test), repeats)
    assert np.array_equal(fast, ref), "vectorized predict diverged"
    return {
        "wall_s": fast_s,
        "reference_s": ref_s,
        "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
        "rows": len(X_test),
        "nodes": tree.node_count,
    }


def bench_binned_predict(repeats, scale):
    """Histogram-tree fit + predict (the BAO ensemble's default learner)."""
    rng = np.random.default_rng(1)
    n = int(2000 * scale)
    X = rng.random((max(n, 32), 16))
    y = rng.random(len(X))
    codes, _ = bin_features(X, n_bins=16)
    tree = BinnedRegressionTree(n_bins=16, max_depth=6)

    fit_s, _ = _best_of(lambda: tree.fit(codes, y), repeats)
    predict_s, _ = _best_of(lambda: tree.predict(codes), repeats)
    return {"wall_s": fit_s + predict_s, "fit_s": fit_s, "predict_s": predict_s}


def bench_ted(repeats, scale):
    """Incremental TED vs the in-place reference loop."""
    rng = np.random.default_rng(2)
    n = int(1600 * scale)
    features = rng.random((max(n, 64), 12))
    m = 64

    fast_s, fast = _best_of(
        lambda: ted_select(features, m=m, mu=0.1), repeats
    )
    ref_s, ref = _best_of(
        lambda: ted_oracle.ted_select(features, m=m, mu=0.1), repeats
    )
    return {
        "wall_s": fast_s,
        "reference_s": ref_s,
        "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
        "n": len(features),
        "m": m,
        "selection_matches_exact": list(fast) == list(ref),
    }


def bench_bted(repeats, scale):
    """Full BTED (Alg. 2) over a real config space, library vs oracle TED."""
    space = _task().space
    kwargs = dict(
        m=32, batch_candidates=max(int(200 * scale), 48), num_batches=4,
        seed=7,
    )
    fast_s, fast = _best_of(lambda: bted_select(space, **kwargs), repeats)
    with mock.patch.object(bted, "ted_select", ted_oracle.ted_select):
        exact_s, exact = _best_of(
            lambda: bted_select(space, **kwargs), repeats
        )
    return {
        "wall_s": fast_s,
        "reference_s": exact_s,
        "speedup": exact_s / fast_s if fast_s > 0 else float("inf"),
        "selection_matches_exact": list(fast) == list(exact),
    }


def bench_ensemble(repeats, scale):
    """Bootstrap-ensemble refit + neighborhood scoring (one BAO step's cost)."""
    rng = np.random.default_rng(3)
    n, d, candidates = int(320 * scale), 16, int(512 * scale)
    X = rng.random((max(n, 32), d))
    y = rng.random(len(X))
    C = rng.random((max(candidates, 32), d))

    ensemble = BootstrapEnsemble(gamma=2, seed=5)
    fit_s, _ = _best_of(lambda: ensemble.fit(X, y), repeats)
    predict_s, _ = _best_of(lambda: ensemble.predict_sum(C), repeats)
    return {"wall_s": fit_s + predict_s, "fit_s": fit_s, "predict_s": predict_s}


def bench_arm(arm, repeats, scale):
    """A full tuning run of the default-config BAO arm, phase-resolved."""
    if arm != "bted_bao":
        raise ValueError(f"unknown arm {arm!r}")

    def run():
        log = EventLog()
        tuner = BTEDBAOTuner(
            _task(),
            seed=11,
            init_size=16,
            batch_candidates=max(int(100 * scale), 32),
            num_batches=2,
            bao_settings=BaoSettings(neighborhood_size=256),
        )
        tuner.tune(n_trial=28, early_stopping=None, on_event=[log])
        return log

    wall_s, log = _best_of(run, max(1, repeats // 2))
    proposal_s = sum(e.proposal_s for e in log.of_type(BatchProposed))
    measure_s = sum(e.measure_s for e in log.of_type(BatchMeasured))
    steps = len(log.of_type(BatchProposed))
    return {
        "wall_s": wall_s,
        "proposal_s": proposal_s,
        "measure_s": measure_s,
        "steps": steps,
        "proposal_s_per_step": proposal_s / steps if steps else 0.0,
    }


def bench_obs_overhead(repeats, scale):
    """Full-arm wall time with a TuningObserver attached vs without.

    The observer drives metrics, spans, and the hook bus, so this is
    the end-to-end cost of the observability layer on a real run.
    ``obs_overhead`` is the fractional slowdown (0.02 = 2%).
    """
    from repro.obs import TuningObserver

    def run(observe):
        tuner = BTEDBAOTuner(
            _task(),
            seed=11,
            init_size=16,
            batch_candidates=max(int(100 * scale), 32),
            num_batches=2,
            bao_settings=BaoSettings(neighborhood_size=256),
        )
        sinks = [TuningObserver()] if observe else []
        tuner.tune(n_trial=28, early_stopping=None, on_event=sinks)

    reps = max(3, repeats)
    base_s, _ = _best_of(lambda: run(False), reps)
    obs_s, _ = _best_of(lambda: run(True), reps)
    overhead = obs_s / base_s - 1.0 if base_s > 0 else 0.0
    return {
        "wall_s": obs_s,
        "baseline_s": base_s,
        "obs_overhead": overhead,
    }


def run_suite(arm, repeats, scale):
    """Run every benchmark; returns the result document."""
    benchmarks = {}
    for name, fn in (
        ("tree_predict", bench_tree_predict),
        ("binned_predict", bench_binned_predict),
        ("ted", bench_ted),
        ("bted", bench_bted),
        ("ensemble", bench_ensemble),
        ("obs_overhead", bench_obs_overhead),
    ):
        benchmarks[name] = fn(repeats, scale)
        print(f"{name}: {json.dumps(benchmarks[name])}")
    if arm != "none":
        key = f"arm_{arm}"
        benchmarks[key] = bench_arm(arm, repeats, scale)
        print(f"{key}: {json.dumps(benchmarks[key])}")
    return {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "repeats": repeats,
            "scale": scale,
            "arm": arm,
        },
        "benchmarks": benchmarks,
    }


def check_regression(current, baseline_path, threshold):
    """Compare ``wall_s`` per benchmark against a baseline; list offenders."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    base_cpu = baseline.get("meta", {}).get("cpu_count")
    cur_cpu = current["meta"]["cpu_count"]
    if base_cpu is not None and base_cpu != cur_cpu:
        print(
            f"WARNING: baseline {baseline_path} was recorded with "
            f"cpu_count={base_cpu} but this host has cpu_count={cur_cpu}; "
            "cross-host wall-clock ratios are indicative only"
        )
    offenders = []
    for name, entry in current["benchmarks"].items():
        base = baseline.get("benchmarks", {}).get(name)
        if base is None or "wall_s" not in base or "wall_s" not in entry:
            continue
        ratio = entry["wall_s"] / base["wall_s"] if base["wall_s"] > 0 else 1.0
        status = "OK" if ratio <= threshold else "REGRESSION"
        print(
            f"check {name}: {entry['wall_s']:.4f}s vs baseline "
            f"{base['wall_s']:.4f}s ({ratio:.2f}x) {status}"
        )
        if ratio > threshold:
            offenders.append((name, ratio))
    return offenders


def main():
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--arm", default="bted_bao", choices=("bted_bao", "none"),
        help="which full tuning arm to time ('none' skips it)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="problem-size multiplier for quick local runs",
    )
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="baseline JSON to compare against (fail on slowdown)",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="max tolerated wall_s ratio vs the baseline",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required tree-predict and TED speedup vs reference paths",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="report speedups without enforcing --min-speedup",
    )
    parser.add_argument(
        "--max-obs-overhead", type=float, default=None, metavar="FRAC",
        help="fail when the observability layer slows a full tuning "
             "run by more than this fraction (e.g. 0.03 = 3%%); "
             "default: report only",
    )
    args = parser.parse_args()

    results = run_suite(args.arm, args.repeats, args.scale)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    code = 0
    if not args.no_assert:
        for name in ("tree_predict", "ted"):
            speedup = results["benchmarks"][name]["speedup"]
            if speedup < args.min_speedup:
                print(
                    f"FAIL: {name} speedup {speedup:.2f}x is below the "
                    f"{args.min_speedup:.1f}x bar"
                )
                code = 1
            else:
                print(f"PASS: {name} speedup {speedup:.2f}x")

    if args.max_obs_overhead is not None:
        overhead = results["benchmarks"]["obs_overhead"]["obs_overhead"]
        if overhead > args.max_obs_overhead:
            print(
                f"FAIL: observability overhead {overhead:.2%} exceeds "
                f"the {args.max_obs_overhead:.2%} bar"
            )
            code = 1
        else:
            print(f"PASS: observability overhead {overhead:.2%}")

    if args.check is not None:
        offenders = check_regression(results, args.check, args.threshold)
        if offenders:
            print(f"FAIL: perf regressions: {offenders}")
            code = 1
        else:
            print("PASS: no perf regression vs baseline")
    return code


if __name__ == "__main__":
    sys.exit(main())
