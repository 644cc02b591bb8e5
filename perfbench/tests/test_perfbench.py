"""The benchmark's own tests: span arithmetic, metric names, tiny workloads.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from perfbench import metrics, tracing
from perfbench.tracing import Span, Tracer, layer_stats, self_times
from perfbench.workloads import (
    INIT_SIZE,
    REFERENCE_JOB,
    SERVICE_FLEET,
    WORKLOADS,
    CompileWorkload,
    ServiceWorkload,
    _Caller,
    client_jobs,
)
from repro.nn import zoo
from repro.service import TuningService

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(sid, name, t0, t1, parent=None):
    span = Span(sid, parent, "t", name, t0, "main")
    span.t1 = t1
    return span


class TestSpanArithmetic:
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            _span(1, "parent", 0.0, 10.0),
            _span(2, "a", 1.0, 3.0, parent=1),
            _span(3, "b", 2.0, 5.0, parent=1),  # overlaps a (another thread)
            _span(4, "c", 8.0, 12.0, parent=1),  # runs past the parent
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(10.0 - (4.0 + 2.0))
        assert selfs[2] == pytest.approx(2.0)

    def test_nested_same_name_spans_count_once(self):
        spans = [
            _span(1, "propose", 0.0, 10.0),
            _span(2, "propose", 2.0, 4.0, parent=1),
            _span(3, "fit", 4.0, 7.0, parent=1),
        ]
        stats = layer_stats(spans)
        assert stats["propose"]["busy_s"] == pytest.approx(10.0)
        assert stats["propose"]["calls"] == 1
        assert stats["propose"]["self_s"] == pytest.approx(7.0)
        assert stats["fit"]["self_s"] == pytest.approx(3.0)

    def test_setup_time_averages_the_per_cpu_medians(self):
        samples = {"0": [1.0, 1.0, 5.0], "1": [2.0, 3.0, 3.0], "2": []}
        assert metrics.setup_time(samples) == pytest.approx(2.0)
        assert metrics.setup_time({}) == 0.0

    def test_covered_share(self):
        spans = [_span(1, "a", 1.0, 3.0), _span(2, "b", 2.0, 4.0)]
        assert tracing.covered_share(spans, 0.0, 10.0) == pytest.approx(0.3)


class _Box:
    def work(self, n):
        return list(range(n))

    def outer(self):
        return self.work(3)


class TestTracer:
    def test_wrap_records_parent_links_and_restores(self):
        tracer = Tracer()
        tracer.wrap(_Box, "outer", "outer")
        tracer.wrap(_Box, "work", "work", after=tracing._count("n", lambda a, k, r: len(r)))
        try:
            assert _Box().outer() == [0, 1, 2]
        finally:
            tracer.uninstall()
        outer, = [s for s in tracer.spans if s.name == "outer"]
        work, = [s for s in tracer.spans if s.name == "work"]
        assert work.parent == outer.sid and work.trace == outer.trace
        assert work.attrs == {"n": 3}
        assert "wrapper" not in repr(_Box.__dict__["work"])
        _Box().outer()
        assert len(tracer.spans) == 2

    def test_spans_from_threads_are_kept(self):
        tracer = Tracer()
        root = tracer.open("root")
        threads = [
            threading.Thread(target=lambda: tracer.close(tracer.open("child", parent=root)))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        tracer.close(root)
        assert all(not t.is_alive() for t in threads)
        children = [s for s in tracer.spans if s.name == "child"]
        assert len(children) == 4
        assert {s.parent for s in children} == {root.sid}


class TestContract:
    def test_metric_names_and_units_match_benchmark_json(self):
        assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER

    def test_workload_names_match(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    def test_compile_budget_exceeds_bted_initial_batch(self):
        for workload in WORKLOADS.values():
            if isinstance(workload, CompileWorkload):
                assert workload.n_trial > INIT_SIZE

    def test_service_job_lists_are_seeded(self):
        assert client_jobs(3, 0, 0) == client_jobs(3, 0, 0)
        assert client_jobs(3, 0, 0) != client_jobs(4, 0, 0)
        for client in (0, 1):
            seen = []
            for kind, spec in client_jobs(5, 1, client):
                assert (kind == "repeat") == (spec in seen)
                seen.append(spec)

    def test_service_episodes_hold_a_fixed_job_mix(self):
        for seed in range(1, 6):
            for client in (0, 1):
                firsts = [spec for kind, spec in client_jobs(seed, 2, client)
                          if kind == "first"]
                assert sorted(s["model"] for s in firsts) == sorted(zoo.PAPER_MODELS)
                assert Counter(s["arm"] for s in firsts) == {"autotvm": 3, "random": 2}
            head = client_jobs(seed, 2, 0)[0][1]
            assert {k: head[k] for k in REFERENCE_JOB} == REFERENCE_JOB

    def test_timings_pool_the_faster_half_of_the_episodes(self):
        episodes = [
            {"wall_s": wall, "requests": 1, "compile_times": [wall],
             "first_turnarounds": [wall], "repeat_turnarounds": [wall],
             "setup_samples": {"0": [wall / 10]}}
            for wall in (5.0, 1.0, 3.0, 2.0, 4.0)
        ]
        assert [e["wall_s"] for e in metrics.least_disturbed(episodes)] == [1.0, 2.0, 3.0]
        before_warmup = {"0": [0.1]}
        pooled = metrics.end_to_end(episodes, before_warmup, 1.0, faster_half=True)
        assert pooled["compile_s"] == 2.0 and pooled["jobs_per_s"] == 0.5
        assert pooled["setup_s"] == pytest.approx(0.15)  # 0.1, 0.1, 0.2, 0.3
        assert before_warmup == {"0": [0.1]}
        every = metrics.end_to_end(episodes, before_warmup, 1.0)
        assert every["compile_s"] == 3.0
        assert every["setup_s"] == pytest.approx(0.25)

    def test_skipping_durable_syncs_keeps_the_writes(self, tmp_path):
        script = (
            "import os, sys\n"
            "from perfbench.workloads import skip_durable_syncs\n"
            "from repro.service.store import JobStore\n"
            "from repro.utils.io import atomic_write_text\n"
            "skip_durable_syncs(); skip_durable_syncs()\n"
            "assert os.fsync(-1) is None\n"
            "atomic_write_text(sys.argv[1] + '/f.txt', 'x')\n"
            "store = JobStore(sys.argv[1] + '/jobs.sqlite')\n"
            "print(store._conn.execute('PRAGMA synchronous').fetchone()[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"
        assert (tmp_path / "f.txt").read_text() == "x"

    def test_fails_without_the_program(self, tmp_path):
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "service-mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


TINY_COMPILE = CompileWorkload(
    "tiny", n_trial=INIT_SIZE + 1, max_tasks=1, latency_s=0.001, setup_trials=2
)


class TestTinyWorkloads:
    def test_compile_episode_traced_matches_untraced(self, tmp_path):
        plain = TINY_COMPILE.episode(1, str(tmp_path), sample_setup=True)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert len(plain["setup_samples"]) == cpus
        # one block after the task, one after the deployment
        assert all(len(v) == TINY_COMPILE.task_setup_trials + TINY_COMPILE.setup_trials
                   for v in plain["setup_samples"].values())
        tracer = tracing.install(Tracer())
        try:
            traced = TINY_COMPILE.episode(1, str(tmp_path))
        finally:
            tracer.uninstall()
        assert plain["check_failures"] == [] == traced["check_failures"]
        assert plain["best_configs"] == traced["best_configs"]
        assert plain["deployed_latency_ms"] == traced["deployed_latency_ms"]
        layers = metrics.per_layer(tracer.take(), traced)
        assert set(layers) == set(metrics.PER_LAYER)
        assert layers["bted.calls"] == 1
        assert layers["bao.proposals"] >= 1 and layers["bootstrap.fits"] >= 1
        assert layers["measure.configs"] == INIT_SIZE + 1
        assert layers["http.requests"] == 0

    def test_service_episode(self, tmp_path):
        workload = ServiceWorkload(firsts=1, repeats=1, setup_trials=1)
        tracer = tracing.install(Tracer())
        try:
            episode = workload.episode(1, str(tmp_path))
        finally:
            tracer.uninstall()
        assert episode["check_failures"] == []
        assert episode["failed"] == 0 and episode["attempted"] == 4
        assert len(episode["repeat_turnarounds"]) == 2
        assert len(episode["compile_times"]) == 2
        assert 0 < episode["first_wait_share"] < 1
        layers = metrics.per_layer(tracer.take(), episode)
        assert layers["tlog.hit_ratio"] > 0
        assert layers["store.submit_calls"] == 4
        assert layers["bao.proposals"] == 0

    def test_service_episode_ends_with_a_setup_block(self, tmp_path):
        workload = ServiceWorkload(firsts=1, repeats=1, setup_trials=2)
        episode = workload.episode(1, str(tmp_path), sample_setup=True)
        assert episode["check_failures"] == []
        samples = episode["setup_samples"]
        assert samples and all(len(v) == 2 for v in samples.values())
        # the episode's service and the block's are all stopped and removed
        assert list(tmp_path.iterdir()) == []

    def test_a_compile_without_bao_refits_fails_its_check(self, tmp_path):
        workload = CompileWorkload("tiny", n_trial=INIT_SIZE, max_tasks=1)
        episode = workload.episode(1, str(tmp_path))
        assert len(episode["check_failures"]) == 1
        assert "ran no BAO refit" in episode["check_failures"][0]

    def test_a_service_gone_mid_episode_counts_every_job_as_failed(self, tmp_path):
        service = TuningService(str(tmp_path / "svc"), port=0, devices=SERVICE_FLEET)
        service.start().stop()
        jobs = client_jobs(1, 0, 0, firsts=1, repeats=1)
        # connection refused: a transport error, not an HTTP status
        caller = _Caller(service.url, jobs, "refused")
        caller.run()
        assert [r["state"] for r in caller.results] == ["error", "error"]
        # a client whose thread died before recording anything
        lost = _Caller(service.url, jobs, "lost")
        episode = ServiceWorkload()._settle(service, [caller, lost], 1)
        assert episode["attempted"] == 4 and episode["failed"] == 4
        assert episode["check_failures"] == ["the reference job did not finish"]

    def test_run_prints_the_contract_line(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "service-mixed",
             "--seed", "2", "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert set(line["metrics"]) == set(metrics.END_TO_END)
        assert all(m["value"] > 0 for m in line["metrics"].values())
