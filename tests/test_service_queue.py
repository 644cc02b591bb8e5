"""Admission-control tests: per-tenant quotas and priority dequeue.

The :class:`~repro.service.JobQueue` sits between the HTTP API and the
job store.  These tests pin the two satellite contracts: an over-quota
submit is rejected with a structured error body (tenant, limit, active
count), and a higher-priority job submitted *later* is dequeued first
— deterministic because the service drains with a single runner.
Every admitted job also wakes that runner, and no wake-up is lost.
"""

import os
import random
import sys
import threading
import time

import pytest

from repro.service import (
    DEFAULT_QUOTA,
    InvalidTransitionError,
    JobQueue,
    JobRunner,
    JobSpec,
    JobStore,
    QuotaExceededError,
)


def _spec(tenant="default", priority=0, model="alexnet"):
    return JobSpec(
        model=model, arm="bted", n_trial=8, tenant=tenant,
        priority=priority,
    )


@pytest.fixture()
def store(tmp_path):
    store = JobStore(tmp_path / "jobs.sqlite")
    yield store
    store.close()


class TestQuotas:
    def test_over_quota_submit_rejected_with_structured_body(self, store):
        queue = JobQueue(store, quotas={"acme": 2})
        queue.submit(_spec(tenant="acme"))
        queue.submit(_spec(tenant="acme"))
        with pytest.raises(QuotaExceededError) as excinfo:
            queue.submit(_spec(tenant="acme"))
        err = excinfo.value
        assert err.http_status == 429
        body = err.to_dict()["error"]
        assert body["code"] == "quota_exceeded"
        assert body["tenant"] == "acme"
        assert body["limit"] == 2
        assert body["active"] == 2
        assert "quota" in body["message"]

    def test_quota_counts_only_active_jobs(self, store):
        """Settled jobs release their quota slot."""
        queue = JobQueue(store, quotas={"acme": 1})
        job = queue.submit(_spec(tenant="acme"))
        with pytest.raises(QuotaExceededError):
            queue.submit(_spec(tenant="acme"))
        # running still holds the slot ...
        assert queue.claim_next().job_id == job.job_id
        with pytest.raises(QuotaExceededError):
            queue.submit(_spec(tenant="acme"))
        # ... done releases it
        store.transition(job.job_id, "done")
        queue.submit(_spec(tenant="acme"))

    def test_quotas_are_per_tenant(self, store):
        queue = JobQueue(store, quotas={"acme": 1}, default_quota=2)
        queue.submit(_spec(tenant="acme"))
        with pytest.raises(QuotaExceededError):
            queue.submit(_spec(tenant="acme"))
        # other tenants use the default quota, independently
        queue.submit(_spec(tenant="zenith"))
        queue.submit(_spec(tenant="zenith"))
        with pytest.raises(QuotaExceededError) as excinfo:
            queue.submit(_spec(tenant="zenith"))
        assert excinfo.value.to_dict()["error"]["limit"] == 2

    def test_zero_quota_blocks_a_tenant_entirely(self, store):
        queue = JobQueue(store, quotas={"banned": 0})
        with pytest.raises(QuotaExceededError):
            queue.submit(_spec(tenant="banned"))

    def test_default_quota_applies_to_unknown_tenants(self, store):
        queue = JobQueue(store)
        assert queue.quota_for("anyone") == DEFAULT_QUOTA
        for _ in range(DEFAULT_QUOTA):
            queue.submit(_spec(tenant="anyone"))
        with pytest.raises(QuotaExceededError):
            queue.submit(_spec(tenant="anyone"))

    def test_invalid_quota_config_rejected(self, store):
        with pytest.raises(ValueError):
            JobQueue(store, default_quota=0)
        with pytest.raises(ValueError):
            JobQueue(store, quotas={"acme": -1})

    def test_concurrent_submits_cannot_race_past_quota(self, store):
        """Parallel HTTP handlers must not over-admit a tenant."""
        queue = JobQueue(store, quotas={"acme": 4})
        admitted, rejected = [], []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            try:
                admitted.append(queue.submit(_spec(tenant="acme")))
            except QuotaExceededError:
                rejected.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 4
        assert len(rejected) == 4
        assert store.active_count("acme") == 4


class TestPriorities:
    def test_later_higher_priority_job_dequeues_first(self, store):
        """The satellite contract, verbatim: submit low then high."""
        queue = JobQueue(store)
        low = queue.submit(_spec(priority=0))
        high = queue.submit(_spec(priority=5))
        assert queue.claim_next().job_id == high.job_id
        assert queue.claim_next().job_id == low.job_id
        assert queue.claim_next() is None

    def test_fifo_within_a_priority_level(self, store):
        queue = JobQueue(store)
        first = queue.submit(_spec(priority=1))
        second = queue.submit(_spec(priority=1))
        assert queue.claim_next().job_id == first.job_id
        assert queue.claim_next().job_id == second.job_id

    def test_negative_priorities_sink_below_default(self, store):
        queue = JobQueue(store)
        background = queue.submit(_spec(priority=-3))
        normal = queue.submit(_spec(priority=0))
        assert queue.claim_next().job_id == normal.job_id
        assert queue.claim_next().job_id == background.job_id

    def test_drain_order_is_fully_deterministic(self, store):
        queue = JobQueue(store)
        jobs = [
            queue.submit(_spec(priority=p))
            for p in (0, 2, -1, 2, 1, 0)
        ]
        expected = [jobs[1], jobs[3], jobs[4], jobs[0], jobs[5], jobs[2]]
        drained = []
        while True:
            job = queue.claim_next()
            if job is None:
                break
            drained.append(job.job_id)
            store.transition(job.job_id, "done")
        assert drained == [j.job_id for j in expected]


class TestCancel:
    def test_cancel_removes_a_queued_job(self, store):
        queue = JobQueue(store)
        job = queue.submit(_spec())
        assert queue.depth() == 1
        cancelled = queue.cancel(job.job_id)
        assert cancelled.state == "cancelled"
        assert queue.depth() == 0
        assert queue.claim_next() is None

    def test_cancel_running_job_raises_conflict(self, store):
        queue = JobQueue(store)
        job = queue.submit(_spec())
        queue.claim_next()
        with pytest.raises(InvalidTransitionError) as excinfo:
            queue.cancel(job.job_id)
        assert excinfo.value.http_status == 409
        assert excinfo.value.to_dict()["error"]["code"] == (
            "invalid_transition"
        )

    def test_cancelled_job_releases_quota(self, store):
        queue = JobQueue(store, quotas={"acme": 1})
        job = queue.submit(_spec(tenant="acme"))
        with pytest.raises(QuotaExceededError):
            queue.submit(_spec(tenant="acme"))
        queue.cancel(job.job_id)
        queue.submit(_spec(tenant="acme"))


class TestWakeUp:
    """Every admitted job wakes an idle runner; none is lost."""

    def test_submit_raises_the_wakeup_after_the_row_commits(self, store):
        queue = JobQueue(store)
        raised_during_insert = []
        insert = store.submit

        def submit(spec):
            job = insert(spec)
            raised_during_insert.append(queue.wakeup.is_set())
            return job

        store.submit = submit
        assert not queue.wakeup.is_set()
        queue.submit(_spec())
        assert raised_during_insert == [False]
        assert queue.wakeup.is_set()

    def test_rejected_submit_does_not_wake(self, store):
        queue = JobQueue(store, quotas={"capped": 0})
        with pytest.raises(QuotaExceededError):
            queue.submit(_spec(tenant="capped"))
        assert not queue.wakeup.is_set()

    def test_no_wakeup_is_lost_under_thread_pressure(self, store, tmp_path):
        """Rounds of simultaneous submits, frequent thread switches.

        The runner only claims and settles (``_execute`` is a no-op),
        so it goes idle between rounds and often within one, and it
        lingers after every empty claim.  Its poll interval is 60 s: a
        wake-up lost between its claim and its wait strands the round's
        last job for a minute and misses the round's deadline.
        """
        poll_s, round_deadline_s, rounds = 60.0, 5.0, 50
        queue = JobQueue(store, default_quota=10_000)
        runner = JobRunner(store, queue, tmp_path, poll_interval_s=poll_s)
        runner._execute = lambda job, resume: None
        claim_next = queue.claim_next

        def claim_then_linger():
            # widen the gap between the runner's look at the queue and
            # its wait, where a submit's wake-up could fall through
            job = claim_next()
            if job is None:
                time.sleep(0.005)
            return job

        queue.claim_next = claim_then_linger
        submitters = (os.cpu_count() or 1) + 2
        go = threading.Barrier(submitters + 1)
        errors = []

        def submit_each_round(seed):
            rng = random.Random(seed)
            try:
                for _ in range(rounds):
                    go.wait(timeout=2 * round_deadline_s)
                    time.sleep(rng.uniform(0.0, 0.001))
                    queue.submit(_spec(tenant=f"t{seed}"))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_each_round, args=(seed,))
            for seed in range(submitters)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        runner.start()
        try:
            for thread in threads:
                thread.start()
            for done_round in range(1, rounds + 1):
                go.wait(timeout=round_deadline_s)
                start = time.monotonic()
                while (
                    store.counts_by_state().get("done", 0)
                    < done_round * submitters
                ):
                    assert errors == []
                    assert time.monotonic() - start < round_deadline_s, (
                        done_round, store.counts_by_state()
                    )
                    time.sleep(0.001)
        finally:
            sys.setswitchinterval(interval)
            go.abort()
            for thread in threads:
                thread.join(timeout=round_deadline_s)
            runner.stop(timeout=2 * poll_s)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.counts_by_state() == {"done": rounds * submitters}
        assert runner.health()["state"] == "stopped"
