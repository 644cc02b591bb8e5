"""Service-level test harness: the full HTTP lifecycle, locked down.

An in-process :class:`~repro.service.TuningService` binds an ephemeral
port and runs real jobs on a two-device fleet.  The headline contract
is *bit-identity*: records fetched over HTTP after submit → queue →
fleet run → poll must equal a direct serial
:meth:`~repro.pipeline.compiler.DeploymentCompiler.tune` with the same
spec, byte for byte.  Around that sit the API behaviours: progress
streaming, the best-curve feed, fleet utilization, the dashboard, the
structured 400/404/409/429 rejections, tuning-log reuse on a
repeat submit, and the runner: it wakes on submit, stops promptly,
backs off after a failed claim, and reports itself to the health
check (a 503 once its thread has died).
"""

import json
import sqlite3
import threading
import time
import urllib.request

import pytest

from repro.service import (
    JobQueue,
    JobRunner,
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceClientError,
    TuningService,
)

#: the verified fast recipe: ~0.6 s per job on two simulated devices
SPEC = {
    "model": "alexnet",
    "arm": "bted",
    "n_trial": 16,
    "max_tasks": 2,
    "trial_seed": 3,
    "env_seed": 7,
    "tuner_kwargs": {
        "batch_size": 8,
        "init_size": 8,
        "batch_candidates": 32,
    },
}
DEVICES = "gtx1080ti,gtx1080ti"


def direct_records():
    """The ground truth: a serial tune of the same spec, no service."""
    from repro.nn.zoo import build_model
    from repro.pipeline.compiler import DeploymentCompiler

    compiler = DeploymentCompiler(
        build_model(SPEC["model"]), env_seed=SPEC["env_seed"]
    )
    compiler.tasks = compiler.tasks[: SPEC["max_tasks"]]
    collected = []

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

    compiler.tune(
        SPEC["arm"],
        n_trial=SPEC["n_trial"],
        trial_seed=SPEC["trial_seed"],
        tuner_kwargs=dict(SPEC["tuner_kwargs"]),
        progress=collect,
    )
    return sorted(collected, key=lambda r: (r["task_id"], r["step"]))


@pytest.fixture(scope="module")
def baseline():
    return direct_records()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One live service shared by the module (jobs accumulate)."""
    data_dir = tmp_path_factory.mktemp("service")
    with TuningService(data_dir, port=0, devices=DEVICES) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url, timeout_s=30.0)


@pytest.fixture(scope="module")
def finished_job(client):
    """Submit the canonical job once and wait for it to finish."""
    job = client.submit(**SPEC)
    assert job["state"] == "queued"
    assert job["job_id"].startswith("job-")
    return client.wait(job["job_id"], timeout_s=120.0)


class TestLifecycle:
    def test_health_before_anything(self, client):
        body = client.health()
        assert body["status"] == "ok"

    def test_job_reaches_done_with_all_tasks(self, finished_job):
        assert finished_job["state"] == "done"
        assert finished_job["error"] == ""
        assert finished_job["tasks_done"] == SPEC["max_tasks"]
        assert finished_job["best_gflops"] > 0
        assert finished_job["started_s"] is not None
        assert finished_job["finished_s"] is not None
        for task in finished_job["tasks"]:
            assert task["tuner"] == SPEC["arm"]
            assert task["num_measurements"] > 0
            assert task["summary"]  # deterministic RunSummary snapshot

    def test_records_bit_identical_to_direct_tune(
        self, client, finished_job, baseline
    ):
        """The tentpole acceptance check: HTTP records == serial tune."""
        body = client.records(finished_job["job_id"])
        assert body["state"] == "done"
        assert body["records"] == baseline

    def test_progress_stream_covers_the_run(self, client, finished_job):
        progress = client.progress(finished_job["job_id"], since=0)
        kinds = [p["kind"] for p in progress["points"]]
        assert "batch" in kinds  # best-curve points from events
        assert kinds.count("task_done") == SPEC["max_tasks"]
        assert kinds[-1] == "done"
        # cursor polling: re-reading past the end returns nothing new
        again = client.progress(
            finished_job["job_id"], since=progress["next"]
        )
        assert again["points"] == []
        assert again["next"] == progress["next"]
        # per-task RunSummary snapshots rode along
        assert len(progress["summaries"]) == SPEC["max_tasks"]
        for summary in progress["summaries"].values():
            assert summary["best_gflops"] > 0

    def test_curve_feed_is_monotone_best_so_far(
        self, client, finished_job, baseline
    ):
        body = client.curve(finished_job["job_id"])
        assert len(body["curves"]) == SPEC["max_tasks"]
        for series in body["curves"].values():
            assert series == sorted(series)  # best-so-far never drops
        # the curve tip matches the baseline's per-task best
        best = {}
        for rec in baseline:
            if not rec["error"]:
                best[rec["task_id"]] = max(
                    best.get(rec["task_id"], 0.0), rec["gflops"]
                )
        for task_id, series in sorted(body["curves"].items()):
            task_best = best[int(task_id.split("-")[1])]
            assert series[-1] == pytest.approx(task_best, rel=1e-6)

    def test_fleet_report_attached_and_aggregated(
        self, client, finished_job
    ):
        detail = client.job(finished_job["job_id"])
        report = detail["fleet_report"]
        assert len(report["devices"]) == 2
        [device_class] = report["by_class"]
        assert report["by_class"][device_class]["devices"] == 2
        fleet = client.fleet()
        assert fleet["devices"] == DEVICES
        by_class = fleet["by_class"][device_class]
        assert by_class["measurements"] > 0
        assert by_class["utilization"] == 1.0  # single-class fleet

    def test_jobs_listing_and_filters(self, client, finished_job):
        rows = client.jobs()
        assert any(r["job_id"] == finished_job["job_id"] for r in rows)
        assert client.jobs(state="done")
        assert client.jobs(tenant="nobody-ever") == []

    def test_second_submit_served_from_tuning_log(
        self, client, finished_job, baseline
    ):
        """An identical spec re-submitted is a tlog exact hit: every
        task answered from the log with zero fresh measurements, at the
        same best performance the measured run found."""
        repeat = client.submit(**SPEC)
        done = client.wait(repeat["job_id"], timeout_s=120.0)
        assert done["state"] == "done"
        best = {}
        for rec in baseline:
            if not rec["error"]:
                best[rec["task_id"]] = max(
                    best.get(rec["task_id"], 0.0), rec["gflops"]
                )
        for task in done["tasks"]:
            assert task["tuner"] == "tlog"
            assert task["num_measurements"] == 0
            assert task["best_gflops"] == pytest.approx(
                best[task["task_id"]], rel=1e-6
            )
        # zero measurements means zero fresh records — by design
        assert client.records(repeat["job_id"])["records"] == []


class TestDashboard:
    def test_dashboard_serves_html(self, service):
        with urllib.request.urlopen(service.url + "/") as response:
            assert response.status == 200
            assert "text/html" in response.headers["Content-Type"]
            html = response.read().decode("utf-8")
        assert "repro tuning service" in html
        # the dashboard is a client of the public API, not a side door
        for endpoint in ("/api/jobs", "/api/fleet"):
            assert endpoint in html


class TestStructuredErrors:
    def test_unknown_model_is_a_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(**{**SPEC, "model": "not-a-model"})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_job"

    def test_unknown_field_is_a_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(**SPEC, frobnicate=True)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_job"

    @pytest.mark.parametrize(
        "field",
        [
            "n_trial", "early_stopping", "max_tasks", "priority",
            "trial_seed", "env_seed",
        ],
    )
    def test_boolean_for_an_integer_is_a_400(self, client, field):
        # JSON true parses to Python's True, an int subclass, but it is
        # never a budget, a priority or a seed
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(**{**SPEC, field: True})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_job"
        assert excinfo.value.body["error"]["field"] == field

    @pytest.mark.parametrize(
        "field,value",
        [
            ("arm", 5), ("arm", True), ("arm", None), ("arm", ["random"]),
            ("devices", 5), ("devices", True), ("devices", {"a": 1}),
            ("devices", ["gtx1080ti"]),
            ("model", []), ("model", {}), ("model", ["alexnet"]),
            ("model", {"a": 1}),
        ],
    )
    def test_non_string_name_is_a_400(self, client, field, value):
        # a JSON number, boolean, null, object or list where a model or
        # arm name or a fleet spec belongs is the client's error, never a
        # 500 (a list or object model is unhashable: the type check must
        # come before the registry lookup)
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(**{**SPEC, field: value})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_job"
        assert excinfo.value.body["error"]["field"] == field

    def test_malformed_json_body_is_a_400(self, service):
        request = urllib.request.Request(
            service.url + "/api/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"]["code"] == "invalid_job"

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "job_not_found"
        assert excinfo.value.body["error"]["job_id"] == "job-999999"

    def test_unknown_endpoint_is_a_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/api/nonsense")
        assert excinfo.value.status == 404

    def test_cancel_finished_job_is_a_409(self, client, finished_job):
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel(finished_job["job_id"])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "invalid_transition"

    def test_nonpositive_mu_fails_the_job_naming_mu(self, client):
        # tuner_kwargs reach the tuner constructor, which refuses a TED
        # regularizer that would divide by zero; a model no other test
        # tunes keeps the tuning log from answering the job instead
        kwargs = {**SPEC["tuner_kwargs"], "mu": 0.0}
        job = client.submit(
            **{**SPEC, "model": "squeezenet-v1.1", "tuner_kwargs": kwargs}
        )
        done = client.wait(job["job_id"], timeout_s=60.0)
        assert done["state"] == "failed"
        assert "mu must be positive" in done["error"]


class TestRunnerSupervision:
    def test_failed_claim_does_not_stop_the_runner(self, tmp_path):
        svc = TuningService(tmp_path / "flaky", port=0, devices=DEVICES)
        claim_next = svc.queue.claim_next
        failed = threading.Event()

        def flaky_claim():
            if not failed.is_set():
                failed.set()
                raise sqlite3.OperationalError("database is locked")
            return claim_next()

        svc.queue.claim_next = flaky_claim
        with svc:
            assert failed.wait(timeout=10.0)
            client = ServiceClient(svc.url, timeout_s=10.0)
            job = client.submit(**SPEC)
            done = client.wait(job["job_id"], timeout_s=60.0)
        assert done["state"] == "done"

    def test_failed_claim_backs_off_even_when_a_job_arrives(self, tmp_path):
        back_off_s = 0.5
        store = JobStore(tmp_path / "jobs.sqlite")
        queue = JobQueue(store)
        runner = JobRunner(store, queue, tmp_path, poll_interval_s=back_off_s)
        runner._execute = lambda job, resume: None
        claim_next = queue.claim_next
        claims = []
        failed = threading.Event()

        def claim_failing_once():
            claims.append(time.monotonic())
            if not failed.is_set():
                failed.set()
                raise sqlite3.OperationalError("database is locked")
            return claim_next()

        queue.claim_next = claim_failing_once
        try:
            runner.start()
            assert failed.wait(timeout=10.0)
            queue.submit(JobSpec(model="alexnet", arm="bted"))
            deadline = time.monotonic() + 10.0
            while store.counts_by_state().get("done", 0) < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            runner.stop(timeout=10.0)
            store.close()
        assert claims[1] - claims[0] >= 0.9 * back_off_s


#: a runner poll interval no test may wait out
LONG_POLL_S = 30.0


def watch_idle(queue):
    """An event set whenever ``queue.claim_next`` finds nothing to run."""
    idle = threading.Event()
    claim_next = queue.claim_next

    def watched_claim():
        job = claim_next()
        if job is None:
            idle.set()
        return job

    queue.claim_next = watched_claim
    return idle


def idle_service(data_dir, **kwargs):
    """An unstarted service whose runner polls every ``LONG_POLL_S``."""
    svc = TuningService(data_dir, port=0, devices=DEVICES, **kwargs)
    svc.runner.poll_interval_s = LONG_POLL_S
    return svc, watch_idle(svc.queue)


class TestWakeOnSubmit:
    def test_idle_runner_starts_a_submitted_job_at_once(self, tmp_path):
        svc, idle = idle_service(tmp_path / "wake")
        with svc:
            assert idle.wait(timeout=10.0)
            client = ServiceClient(svc.url, timeout_s=10.0)
            start = time.monotonic()
            job = client.submit(**SPEC)
            done = client.wait(job["job_id"], timeout_s=10.0, poll_s=0.05)
            elapsed = time.monotonic() - start
        assert done["state"] == "done"
        assert elapsed < 5.0
        # the claim followed the submit, not the poll interval
        assert done["started_s"] - done["created_s"] < 2.0


class TestStopWakesTheRunner:
    def test_runner_stop_returns_at_once(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        queue = JobQueue(store)
        runner = JobRunner(
            store, queue, tmp_path, poll_interval_s=LONG_POLL_S
        )
        idle = watch_idle(queue)
        try:
            runner.start()
            assert idle.wait(timeout=10.0)
            start = time.monotonic()
            runner.stop(timeout=2 * LONG_POLL_S)
            elapsed = time.monotonic() - start
            assert elapsed < 1.0
            assert runner.health()["state"] == "stopped"
        finally:
            runner.stop(timeout=2 * LONG_POLL_S)
            store.close()

    def test_stop_cuts_a_claim_back_off_short(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        queue = JobQueue(store)
        runner = JobRunner(
            store, queue, tmp_path, poll_interval_s=LONG_POLL_S
        )
        failed = threading.Event()

        def failing_claim():
            failed.set()
            raise sqlite3.OperationalError("database is locked")

        queue.claim_next = failing_claim
        try:
            runner.start()
            assert failed.wait(timeout=10.0)
            start = time.monotonic()
            runner.stop(timeout=2 * LONG_POLL_S)
            assert time.monotonic() - start < 1.0
            assert runner.health()["state"] == "stopped"
        finally:
            runner.stop(timeout=2 * LONG_POLL_S)
            store.close()

    def test_service_stop_returns_at_once(self, tmp_path):
        svc, idle = idle_service(tmp_path / "stop")
        svc.start()
        try:
            assert idle.wait(timeout=10.0)
        finally:
            start = time.monotonic()
            svc.stop()
            elapsed = time.monotonic() - start
        # the HTTP loop checks for shutdown every 0.5 s; the runner
        # used to add up to its whole poll interval on top
        assert elapsed < 2.0


class TestConstruction:
    """Bad service settings fail at construction, before any job."""

    @pytest.mark.parametrize("fleet_jobs", [0, -2])
    def test_nonpositive_fleet_jobs_rejected(self, tmp_path, fleet_jobs):
        with pytest.raises(ValueError, match="fleet_jobs must be >= 1"):
            TuningService(
                tmp_path / "svc", port=0, devices=DEVICES,
                fleet_jobs=fleet_jobs,
            )
        assert not (tmp_path / "svc").exists()

    def test_bad_device_spec_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TuningService(tmp_path / "svc", port=0, devices="")
        assert not (tmp_path / "svc").exists()


class TestHealth:
    def test_live_runner_reports_itself(self, client):
        deadline = time.monotonic() + 10.0
        body = client.health()
        while body["runner"]["last_claim_age_s"] is None:
            assert time.monotonic() < deadline
            time.sleep(0.05)
            body = client.health()
        assert body["status"] == "ok"
        runner = body["runner"]
        assert runner["state"] == "running"
        assert runner["alive"] is True
        assert "current_job" in runner
        assert runner["last_claim_age_s"] >= 0
        assert "error" not in body
        assert "counts" in body

    def test_disabled_runner_is_a_200(self, tmp_path):
        svc = TuningService(
            tmp_path / "parked", port=0, devices=DEVICES,
            start_runner=False,
        )
        with svc:
            body = ServiceClient(svc.url, timeout_s=10.0).health()
        assert body["status"] == "ok"
        assert body["runner"] == {
            "state": "disabled",
            "alive": False,
            "current_job": None,
            "last_claim_age_s": None,
        }

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_runner_is_a_503(self, tmp_path):
        svc = TuningService(tmp_path / "dying", port=0, devices=DEVICES)
        transition = svc.store.transition

        def execute(job, resume):
            raise RuntimeError("tuning blew up")

        def transition_failing_on_failed(job_id, state, **kwargs):
            # settling the failed job raises inside _run_job's own
            # except clause, which ends the runner thread
            if state == "failed":
                raise sqlite3.OperationalError("disk I/O error")
            return transition(job_id, state, **kwargs)

        svc.runner._execute = execute
        svc.store.transition = transition_failing_on_failed
        with svc:
            client = ServiceClient(svc.url, timeout_s=10.0)
            client.submit(**SPEC)
            deadline = time.monotonic() + 10.0
            while svc.runner.health()["state"] != "dead":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            with pytest.raises(ServiceClientError) as excinfo:
                client.health()
        assert excinfo.value.status == 503
        assert excinfo.value.code == "runner_dead"
        body = excinfo.value.body
        assert body["status"] == "unavailable"
        assert body["runner"]["state"] == "dead"
        assert body["runner"]["alive"] is False
        assert body["runner"]["last_claim_age_s"] >= 0
        # the job the runner died on is stranded in running
        assert body["counts"]["running"] == 1
        assert "will not run" in body["error"]["message"]


class TestAdmissionOverHTTP:
    """Quota/priority/cancel behaviour through the HTTP surface.

    A runner-less service keeps jobs queued, so admission decisions
    are observable without racing job execution.
    """

    @pytest.fixture()
    def parked(self, tmp_path):
        svc = TuningService(
            tmp_path / "parked",
            port=0,
            devices=DEVICES,
            quotas={"capped": 1},
            start_runner=False,
        )
        with svc:
            yield ServiceClient(svc.url, timeout_s=10.0)

    def test_over_quota_submit_is_a_429(self, parked):
        parked.submit(**SPEC, tenant="capped")
        with pytest.raises(ServiceClientError) as excinfo:
            parked.submit(**SPEC, tenant="capped")
        assert excinfo.value.status == 429
        error = excinfo.value.body["error"]
        assert error["code"] == "quota_exceeded"
        assert error["tenant"] == "capped"
        assert error["limit"] == 1
        assert error["active"] == 1

    def test_cancel_frees_the_quota_slot(self, parked):
        job = parked.submit(**SPEC, tenant="capped")
        cancelled = parked.cancel(job["job_id"])
        assert cancelled["state"] == "cancelled"
        parked.submit(**SPEC, tenant="capped")  # admitted again

    def test_priority_orders_the_queue(self, parked):
        low = parked.submit(**SPEC, priority=0)
        high = parked.submit(**SPEC, priority=9)
        fleet = parked.fleet()
        assert fleet["queue_depth"] >= 2
        # the store *is* the queue: peek via the jobs listing
        queued = parked.jobs(state="queued")
        by_id = {j["job_id"]: j["priority"] for j in queued}
        assert by_id[high["job_id"]] > by_id[low["job_id"]]
