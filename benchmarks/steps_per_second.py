#!/usr/bin/env python
"""End-to-end steps-per-second benchmark for the pipelined tuning loop.

Times a full ``arm_bted_bao`` tuning run twice over the same budget and
reports measurements per wall-second (steps/sec):

* **serial** — the default configuration: no executor, so no
  speculation, with from-scratch ensemble refits (``refit="full"``);
* **pipelined** — measurement through a supplied executor, which makes
  the tuner speculate (proposal of batch ``k+1`` overlapped with the
  measurement of batch ``k``), combined with warm-started refits
  (``refit="incremental"``).

Because the simulated device answers in microseconds, measurement
latency is emulated with a fixed ``--latency-ms`` per deployed
configuration (real boards take tens of milliseconds to seconds per
config).  The serial side sleeps in its measurer
(:class:`HardwareEmulator`); the pipelined side sleeps in its executor
(:class:`EmulatedBoard`, as the repo benchmark's board does), while the
measurer clone used by the speculation thread predicts for free —
exactly the asymmetry speculation exploits on hardware.  The sleep
never touches results, so the measurement stream stays bit-identical to
the plain measurer's.

The cost model uses ``--rounds`` boosting rounds per ensemble member
(48 by default — production cost models run far more rounds than the
repo's test-size default of 24); both modes share the same factory, so
the comparison is apples to apples.

Gates:

* **speedup floor** — the pipelined mode must reach ``--min-speedup``
  times the serial steps/sec (2x by default, the PR acceptance bar; CI
  gates at 1.5x to absorb runner noise); disable with ``--no-assert``.
* **conformance** — unless ``--no-verify``, a third run (serial but
  incremental) must reproduce the pipelined run's record stream bit
  for bit, pinning the speculate-validate-or-roll-back contract inside
  the benchmark itself.
* **regression check** — ``--check BASELINE.json`` fails when the
  pipelined steps/sec fell below ``baseline / --threshold``.

Run:  PYTHONPATH=src python benchmarks/steps_per_second.py
"""

import argparse
import json
import os
import platform
import sys
import time
from functools import partial

import numpy as np

from repro.core.bao import BaoSettings
from repro.core.events import EventLog, SpeculationResolved
from repro.core.tuners.btedbao import BTEDBAOTuner
from repro.hardware.executor import SerialExecutor
from repro.hardware.measure import Measurer, SimulatedTask
from repro.learning.gbt import GradientBoostedTrees
from repro.nn.workloads import Conv2DWorkload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_steps.json")


class HardwareEmulator(Measurer):
    """A :class:`Measurer` that charges a per-configuration latency.

    Wraps an existing measurer's state and sleeps ``latency_s`` before
    each deployment, emulating a real board's round-trip time for a
    tuner that measures through its own measurer (and so never
    speculates).
    """

    def __init__(self, base: Measurer, latency_s: float):
        self.__dict__.update(base.__dict__)
        self.latency_s = float(latency_s)

    def measure_at(self, ordinal: int, config_index: int):
        if self.latency_s:
            time.sleep(self.latency_s)
        return super().measure_at(ordinal, config_index)


class EmulatedBoard(SerialExecutor):
    """A serial executor that charges a fixed round-trip per configuration.

    Handing a tuner an executor makes it speculate; the speculation
    predicts with a clone of the plain measurer, so it pays no latency.
    """

    def __init__(self, measurer: Measurer, latency_s: float):
        super().__init__(measurer)
        self.latency_s = float(latency_s)

    def measure_batch(self, config_indices):
        time.sleep(self.latency_s * len(config_indices))
        return super().measure_batch(config_indices)


class ProductionScaleModels:
    """Boosted-tree factory with a configurable round count.

    Mirrors the ensemble's default factory but lets the benchmark dial
    the per-member boosting rounds up to production scale.  Must stay a
    module-level class: the speculating tuning loop pickles the tuner
    (factory included) every batch for its rollback snapshot.
    """

    def __init__(self, rounds: int, seed: int = 2024):
        self.rounds = int(rounds)
        self._rng = np.random.default_rng(seed)

    def __call__(self) -> GradientBoostedTrees:
        return GradientBoostedTrees(
            n_estimators=self.rounds,
            learning_rate=0.28,
            max_depth=4,
            subsample=0.9,
            seed=self._rng,
        )


def _task():
    """The same mid-size conv task hotpaths.py times (Fig. 4 family)."""
    workload = Conv2DWorkload(
        batch=1, in_channels=32, out_channels=64, height=28, width=28,
        kernel_h=3, kernel_w=3, pad_h=1, pad_w=1,
    )
    return SimulatedTask(workload, seed=0)


def _run_arm(n_trial, latency_s, rounds, *, speculate, refit):
    """One full tuning run; returns (wall seconds, result, event log).

    ``speculate`` puts the latency in an executor, which makes the tuner
    speculate; otherwise it sits in the tuner's own measurer.
    """
    log = EventLog()
    board = partial(EmulatedBoard, latency_s=latency_s) if speculate else None
    tuner = BTEDBAOTuner(
        _task(),
        seed=11,
        init_size=16,
        batch_candidates=100,
        num_batches=2,
        model_factory=ProductionScaleModels(rounds),
        refit=refit,
        bao_settings=BaoSettings(neighborhood_size=256),
        executor=board,
    )
    if not speculate:
        tuner.measurer = HardwareEmulator(tuner.measurer, latency_s)
    start = time.perf_counter()
    result = tuner.tune(n_trial=n_trial, early_stopping=None, on_event=[log])
    return time.perf_counter() - start, result, log


def _trace(result):
    """The deterministic record stream, for conformance comparison."""
    return [
        (r.step, r.config_index, round(r.gflops, 6), r.error)
        for r in result.records
    ]


def bench_steps(n_trial, latency_s, rounds, repeats, verify):
    """Serial vs pipelined steps/sec over the same tuning budget."""
    serial_s = float("inf")
    for _ in range(repeats):
        wall, _, _ = _run_arm(
            n_trial, latency_s, rounds, speculate=False, refit="full"
        )
        serial_s = min(serial_s, wall)

    pipelined_s = float("inf")
    pipe_result = pipe_log = None
    for _ in range(repeats):
        wall, pipe_result, pipe_log = _run_arm(
            n_trial, latency_s, rounds, speculate=True, refit="incremental"
        )
        pipelined_s = min(pipelined_s, wall)

    resolved = pipe_log.of_type(SpeculationResolved)
    entry = {
        "n_trial": n_trial,
        "latency_ms": latency_s * 1e3,
        "rounds": rounds,
        "serial_s": serial_s,
        "pipelined_s": pipelined_s,
        "steps_per_s_serial": n_trial / serial_s,
        "steps_per_s_pipelined": n_trial / pipelined_s,
        "speedup": serial_s / pipelined_s if pipelined_s > 0 else float("inf"),
        "speculations": len(resolved),
        "speculations_adopted": sum(1 for e in resolved if e.adopted),
        "overlap_s": sum(e.overlap_s for e in resolved),
        "wall_s": pipelined_s,
    }

    if verify:
        # the speculate-validate-or-roll-back contract: pipelined and
        # serial runs of the *same* refit mode share one record stream
        _, check_result, _ = _run_arm(
            n_trial, latency_s, rounds, speculate=False, refit="incremental"
        )
        matches = _trace(check_result) == _trace(pipe_result)
        entry["pipelined_matches_serial"] = matches
        if not matches:
            raise AssertionError(
                "pipelined run diverged from the serial incremental run"
            )
    return entry


def check_regression(current, baseline_path, threshold):
    """Fail when pipelined steps/sec fell below baseline / threshold."""
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
        if base is None or "steps_per_s_pipelined" not in base:
            continue
        floor = base["steps_per_s_pipelined"] / threshold
        rate = entry["steps_per_s_pipelined"]
        status = "OK" if rate >= floor else "REGRESSION"
        print(
            f"check {name}: {rate:.1f} steps/s vs baseline "
            f"{base['steps_per_s_pipelined']:.1f} (floor {floor:.1f}) {status}"
        )
        if rate < floor:
            offenders.append((name, rate))
    return offenders


def main():
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n-trial", type=int, default=96,
        help="measurement budget per run",
    )
    parser.add_argument(
        "--latency-ms", type=float, default=20.0,
        help="emulated per-configuration measurement latency",
    )
    parser.add_argument(
        "--rounds", type=int, default=48,
        help="boosting rounds per ensemble member (production scale)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="baseline JSON to compare against (fail on slowdown)",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="max tolerated pipelined steps/sec drop vs the baseline",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="required pipelined-vs-serial steps/sec ratio",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="report the speedup without enforcing --min-speedup",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the pipelined-vs-serial record-stream conformance run",
    )
    args = parser.parse_args()

    entry = bench_steps(
        args.n_trial, args.latency_ms / 1e3, args.rounds, args.repeats,
        verify=not args.no_verify,
    )
    results = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "repeats": args.repeats,
        },
        "benchmarks": {"arm_bted_bao": entry},
    }
    print(f"arm_bted_bao: {json.dumps(entry)}")

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    code = 0
    if not args.no_assert:
        speedup = entry["speedup"]
        if speedup < args.min_speedup:
            print(
                f"FAIL: pipelined speedup {speedup:.2f}x is below the "
                f"{args.min_speedup:.1f}x bar"
            )
            code = 1
        else:
            print(f"PASS: pipelined speedup {speedup:.2f}x")

    if args.check is not None:
        offenders = check_regression(results, args.check, args.threshold)
        if offenders:
            print(f"FAIL: steps/sec regressions: {offenders}")
            code = 1
        else:
            print("PASS: no steps/sec regression vs baseline")
    return code


if __name__ == "__main__":
    sys.exit(main())
