"""Admission control: per-tenant quotas and priority ordering.

:class:`JobQueue` is the thin policy layer between the HTTP API and
the :class:`~repro.service.store.JobStore`.  The store *is* the queue
(state ``queued`` ordered by priority, then submission sequence — so
the queue survives restarts for free); this layer decides who may
join it:

* **Quotas** bound each tenant's *active* jobs (queued + running).
  An over-quota submit is rejected with a structured
  :class:`~repro.service.jobs.QuotaExceededError` carrying the
  tenant, its limit, and its current active count — admission
  control, not silent queue growth, is what keeps one tenant from
  starving the fleet ("millions of users" implies some of them
  submit loops).
* **Priorities** are plain integers (higher first; FIFO within a
  level).  A higher-priority job submitted later is dequeued first —
  deterministic with a single runner.

The admission check and the insert run under the store's lock via
:meth:`JobStore.submit`, so a tenant cannot race itself past its
quota from concurrent HTTP handler threads.

Every admitted job raises :attr:`JobQueue.wakeup` once its row has
committed, so an idle :class:`~repro.service.runner.JobRunner` claims
it at once instead of on its next poll.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.service.jobs import Job, JobSpec, QuotaExceededError
from repro.service.store import JobStore
from repro.utils.log import get_logger

logger = get_logger("service.queue")

#: active jobs a tenant may hold unless configured otherwise
DEFAULT_QUOTA = 8


class JobQueue:
    """Quota-checked, priority-ordered admission over a job store."""

    def __init__(
        self,
        store: JobStore,
        quotas: Optional[Dict[str, int]] = None,
        default_quota: int = DEFAULT_QUOTA,
    ):
        if default_quota < 1:
            raise ValueError("default_quota must be >= 1")
        for tenant, limit in (quotas or {}).items():
            if limit < 0:
                raise ValueError(
                    f"quota for tenant {tenant!r} must be >= 0"
                )
        self.store = store
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        # serializes the check-then-insert of concurrent submits
        self._admit_lock = threading.Lock()
        #: set after every committed submit; an idle runner waits on it
        self.wakeup = threading.Event()

    def quota_for(self, tenant: str) -> int:
        """The active-job limit for one tenant."""
        return self.quotas.get(tenant, self.default_quota)

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job and wake the runner, or raise a quota rejection."""
        limit = self.quota_for(spec.tenant)
        with self._admit_lock:
            active = self.store.active_count(spec.tenant)
            if active >= limit:
                raise QuotaExceededError(
                    f"tenant {spec.tenant!r} already has {active} active "
                    f"job(s); quota is {limit}",
                    tenant=spec.tenant,
                    limit=limit,
                    active=active,
                )
            job = self.store.submit(spec)
        self.wakeup.set()
        return job

    def claim_next(self) -> Optional[Job]:
        """Dequeue the next job: highest priority, FIFO within it."""
        return self.store.claim_next()

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (running jobs must finish or fail).

        Raises :class:`~repro.service.jobs.InvalidTransitionError`
        when the job already left the queue — the caller learns the
        actual state from the structured error instead of a silent
        no-op on a job that is already consuming fleet time.
        """
        job = self.store.transition(job_id, "cancelled")
        logger.info("cancelled %s", job_id)
        return job

    def depth(self) -> int:
        """Jobs currently waiting in the queue."""
        return self.store.counts_by_state().get("queued", 0)
