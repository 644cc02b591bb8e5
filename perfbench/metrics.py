"""Metric definitions: end-to-end numbers from episodes, per-layer from spans.

``END_TO_END`` and ``PER_LAYER`` fix the names and units the runner
prints; ``BENCHMARK.json`` lists the same names (a test keeps the two
in step).  Every workload reports every metric: a layer a workload
leaves idle reports 0 on the per-layer side.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from perfbench.tracing import Span, covered_share, layer_stats

END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "deployed_latency_ms": "ms",
    "deployed_latency_std_ms": "ms",
    "jobs_per_s": "1/s",
    "first_turnaround_p50_s": "s",
    "repeat_turnaround_p50_s": "s",
    "repeat_turnaround_p90_s": "s",
    "peak_rss_mb": "MB",
}

STORE_OPS = ("submit", "claim_next", "transition", "add_task_result", "get")

#: per-layer metric -> (unit, span name, statistic); statistics other
#: than busy_s/self_s/calls are span attributes summed over a layer
_FROM_SPANS = {
    "nn.build_model_s": ("s", "nn.build_model", "busy_s"),
    "tasks.extract_s": ("s", "tasks.extract", "busy_s"),
    "tasks.count": ("count", "tasks.extract", "tasks"),
    "bted.select_s": ("s", "bted.select", "busy_s"),
    "bted.calls": ("count", "bted.select", "calls"),
    "ted.select_s": ("s", "ted.select", "busy_s"),
    "bootstrap.fit_s": ("s", "bootstrap.fit", "busy_s"),
    "bootstrap.fits": ("count", "bootstrap.fit", "calls"),
    "bootstrap.predict_s": ("s", "bootstrap.predict", "busy_s"),
    "bootstrap.predict_rows": ("count", "bootstrap.predict", "rows"),
    "bao.propose_s": ("s", "bao.propose", "busy_s"),
    "bao.propose_self_s": ("s", "bao.propose", "self_s"),
    "bao.proposals": ("count", "bao.propose", "calls"),
    "bao.scope_widenings": ("count", "bao.propose", "widened"),
    "space.neighborhood_s": ("s", "space.neighborhood", "busy_s"),
    "space.neighborhood_configs": ("count", "space.neighborhood", "configs"),
    "space.feature_rows": ("count", "space.features", "rows"),
    "tuner.tune_s": ("s", "tuner.tune", "busy_s"),
    "tuner.self_s": ("s", "tuner.tune", "self_s"),
    "tuner.batches": ("count", "tuner.propose", "calls"),
    "measure.batch_s": ("s", "measure.batch", "busy_s"),
    "measure.configs": ("count", "measure.batch", "configs"),
    "checkpoint.save_s": ("s", "checkpoint.save", "busy_s"),
    "checkpoint.saves": ("count", "checkpoint.save", "calls"),
    "io.atomic_write_s": ("s", "io.atomic_write", "busy_s"),
    "io.atomic_writes": ("count", "io.atomic_write", "calls"),
    "io.bytes_written": ("bytes", "io.atomic_write", "bytes"),
    "tlog.open_s": ("s", "tlog.open", "busy_s"),
    "tlog.lookup_s": ("s", "tlog.lookup", "busy_s"),
    "tlog.lookups": ("count", "tlog.lookup", "calls"),
    "tlog.record_s": ("s", "tlog.record", "busy_s"),
    "tlog.records_written": ("count", "tlog.record", "records"),
    "fleet.run_s": ("s", "fleet.run", "busy_s"),
    "fleet.self_s": ("s", "fleet.run", "self_s"),
    "fleet.tasks": ("count", "fleet.run", "tasks"),
    "fleet.steals": ("count", "fleet.run", "steals"),
    "compiler.tune_s": ("s", "compiler.tune", "busy_s"),
    "compiler.self_s": ("s", "compiler.tune", "self_s"),
    "http.requests": ("count", "http.request", "calls"),
    "http.errors": ("count", "http.request", "error"),
}
for _op in STORE_OPS:
    _FROM_SPANS[f"store.{_op}_s"] = ("s", f"store.{_op}", "busy_s")
    _FROM_SPANS[f"store.{_op}_calls"] = ("count", f"store.{_op}", "calls")

#: metrics that need more than one span statistic
_DERIVED = {
    "bootstrap.fit_rows_mean": "count",
    "tuner.proposal_share": "ratio",
    "measure.valid_ratio": "ratio",
    "tlog.hit_ratio": "ratio",
    "http.request_p50_s": "s",
    "http.request_p90_s": "s",
    "queue.wait_p50_s": "s",
    "runner.job_p50_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_s": "s",
}

PER_LAYER = {name: spec[0] for name, spec in _FROM_SPANS.items()}
PER_LAYER.update(_DERIVED)


def median(values: List[float]) -> float:
    """Median, or 0 for no samples (a run whose every sample failed)."""
    return float(np.median(values)) if len(values) else 0.0


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_time(samples: Dict[str, List[float]]) -> float:
    """Mean over CPUs of the median set-up sample taken on each.

    A median over all samples pooled would land between two CPUs of
    different speed and flip with small changes in their counts.
    """
    medians = [median(values) for values in samples.values() if values]
    return float(np.mean(medians)) if medians else 0.0


def least_disturbed(episodes: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The faster half of a run's episodes by wall time (at least one).

    Every service episode of a run does the same amount of work, so an
    episode slower than its siblings was slowed from outside: on a
    shared host, other machines' bursts of CPU and disk load last
    seconds, and a run's median over all its two-second episodes moved
    with how many bursts it caught.  Interference only adds time, so
    the faster half is the part of the run that measured the program.
    """
    ranked = sorted(episodes, key=lambda e: e["wall_s"])
    return ranked[: (len(ranked) + 1) // 2]


def end_to_end(
    episodes: List[Dict[str, Any]],
    setup: Dict[str, List[float]],
    peak_rss_mb: float,
    faster_half: bool = False,
) -> Dict[str, float]:
    """Pool the run's episodes into the end-to-end metrics.

    ``setup`` holds the set-up samples per CPU (see
    :func:`perfbench.workloads.on_each_cpu`) taken before the warm-up;
    each episode carries the block taken at its end.  With
    ``faster_half`` the timings and set-up blocks pool only
    :func:`least_disturbed` episodes.  The deployed latency is the first
    episode's; every episode of a seed deploys the same compile.

    ``compile_s`` is the median over episodes of each episode's mean
    compile time.  A compile episode holds one compile; a service
    episode holds the same ten first jobs every time, whose compile
    times fall into clusters near 0.08 s and 0.10 s by model and arm,
    so a median pooled over jobs flipped between the clusters from
    run to run (ten runs: 0.078-0.085 s three times, 0.097-0.110 s
    seven times).  The mean over one episode's fixed set of jobs does
    not.
    """
    head = episodes[0] if episodes else {}
    if faster_half:
        episodes = least_disturbed(episodes)
    setup = {cpu: list(values) for cpu, values in setup.items()}
    for episode in episodes:
        for cpu, values in episode["setup_samples"].items():
            setup.setdefault(cpu, []).extend(values)
    firsts = [t for e in episodes for t in e["first_turnarounds"]]
    repeats = [t for e in episodes for t in e["repeat_turnarounds"]]
    return {
        "setup_s": setup_time(setup),
        "compile_s": median(
            [float(np.mean(e["compile_times"])) for e in episodes if e["compile_times"]]
        ),
        "deployed_latency_ms": head.get("deployed_latency_ms", 0.0),
        "deployed_latency_std_ms": head.get("deployed_latency_std_ms", 0.0),
        "jobs_per_s": median(
            [_ratio(e["requests"], e["wall_s"]) for e in episodes]
        ),
        "first_turnaround_p50_s": median(firsts),
        "repeat_turnaround_p50_s": median(repeats),
        "repeat_turnaround_p90_s": percentile(repeats, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans: List[Span], episode: Dict[str, Any]) -> Dict[str, float]:
    """One traced episode's per-layer metrics, from the spans in its window."""
    lo, hi = episode["window"]
    spans = [s for s in spans if lo <= s.t0 <= hi]
    stats = layer_stats(spans)

    def stat(name: str, key: str) -> float:
        return float(stats.get(name, {}).get(key, 0))

    out = {
        metric: stat(name, key) for metric, (_, name, key) in _FROM_SPANS.items()
    }
    out["bootstrap.fit_rows_mean"] = _ratio(
        stat("bootstrap.fit", "rows"), stat("bootstrap.fit", "calls")
    )
    out["tuner.proposal_share"] = _ratio(
        stat("tuner.propose", "busy_s"), stat("tuner.tune", "busy_s")
    )
    out["measure.valid_ratio"] = _ratio(
        stat("measure.batch", "valid"), stat("measure.batch", "configs")
    )
    out["tlog.hit_ratio"] = _ratio(stat("tlog.lookup", "hit"), stat("tlog.lookup", "calls"))
    requests = [s.duration for s in spans if s.name == "http.request"]
    out["http.request_p50_s"] = median(requests)
    out["http.request_p90_s"] = percentile(requests, 90)
    out["queue.wait_p50_s"] = median(episode.get("queue_waits", []))
    out["runner.job_p50_s"] = median(
        [s.duration for s in spans if s.name == "runner.job"]
    )
    out["trace.unattributed_share"] = 1.0 - covered_share(spans, lo, hi)
    out["trace.overhead_s"] = 0.0
    return out
