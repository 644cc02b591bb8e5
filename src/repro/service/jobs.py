"""Job model of the tuning service: specs, states, structured errors.

A *job* is one tuning request — "tune model M with arm A under budget
N" — submitted by a tenant and executed asynchronously on the service
fleet.  The lifecycle is a small explicit state machine::

    queued ──> running ──> done
       │           └─────> failed
       └──> cancelled

Transitions outside :data:`VALID_TRANSITIONS` are rejected at the
store layer, so a job can never be double-run or resurrected: the
``queued -> running`` edge is claimed atomically (compare-and-swap on
the state column) and a crashed service finds its ``running`` jobs
again on restart and *resumes* them from their checkpoints instead of
re-queueing them.

Errors that cross the HTTP boundary are structured
(:class:`ServiceError` and subclasses): every rejection carries a
machine-readable ``code`` plus the fields a client needs to react
(tenant, quota, active count, ...), not just prose.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

#: every state a job can be in
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: terminal states — no edge leaves them
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: the legal state machine edges (``from -> to``)
VALID_TRANSITIONS = frozenset(
    {
        ("queued", "running"),
        ("queued", "cancelled"),
        ("running", "done"),
        ("running", "failed"),
    }
)

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _is_int(value: Any) -> bool:
    """Whether ``value`` is an integer (JSON ``true``/``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


class ServiceError(Exception):
    """Base class of structured service rejections.

    ``code`` is the machine-readable error identifier;
    ``http_status`` the status an HTTP front end should answer with;
    ``details`` the structured payload (merged into the JSON body).
    """

    code = "service_error"
    http_status = 500

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.details = details

    def to_dict(self) -> Dict[str, Any]:
        """JSON body of this rejection (the ``error`` envelope)."""
        body: Dict[str, Any] = {"code": self.code, "message": str(self)}
        body.update(self.details)
        return {"error": body}


class ValidationError(ServiceError):
    """A submitted job spec is malformed."""

    code = "invalid_job"
    http_status = 400


class QuotaExceededError(ServiceError):
    """The tenant already has its full quota of active jobs."""

    code = "quota_exceeded"
    http_status = 429


class JobNotFoundError(ServiceError):
    """No job with the requested id exists."""

    code = "job_not_found"
    http_status = 404


class InvalidTransitionError(ServiceError):
    """The requested state change is not a legal state-machine edge."""

    code = "invalid_transition"
    http_status = 409


@dataclass(frozen=True)
class JobSpec:
    """What to tune: the validated, immutable submission payload.

    The spec pins everything that determines the tuning outcome —
    model, arm, budget, seeds — so re-running the same spec reproduces
    the same records (the service's crash-recovery contract builds on
    this).  ``devices`` optionally overrides the service fleet for
    this job; ``max_tasks`` truncates the task list (the same knob the
    experiment runners use for scaled-down studies).
    """

    model: str
    arm: str
    n_trial: int = 64
    early_stopping: Optional[int] = None
    trial_seed: int = 0
    env_seed: int = 2021
    tenant: str = "default"
    priority: int = 0
    devices: Optional[str] = None
    max_tasks: Optional[int] = None
    tuner_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.core import TUNER_REGISTRY
        from repro.nn.zoo import MODEL_BUILDERS

        if (
            not isinstance(self.model, str)
            or self.model not in MODEL_BUILDERS
        ):
            raise ValidationError(
                f"unknown model {self.model!r}",
                field="model",
                choices=sorted(MODEL_BUILDERS),
            )
        if (
            not isinstance(self.arm, str)
            or self.arm.lower() not in TUNER_REGISTRY
        ):
            raise ValidationError(
                f"unknown arm {self.arm!r}",
                field="arm",
                choices=sorted(TUNER_REGISTRY),
            )
        if not _is_int(self.n_trial) or self.n_trial < 1:
            raise ValidationError(
                "n_trial must be a positive integer", field="n_trial"
            )
        if self.early_stopping is not None and (
            not _is_int(self.early_stopping) or self.early_stopping < 1
        ):
            raise ValidationError(
                "early_stopping must be a positive integer or null",
                field="early_stopping",
            )
        for name in ("trial_seed", "env_seed", "priority"):
            if not _is_int(getattr(self, name)):
                raise ValidationError(
                    f"{name} must be an integer", field=name
                )
        if not isinstance(self.tenant, str) or not _TENANT_RE.match(
            self.tenant
        ):
            raise ValidationError(
                "tenant must match [A-Za-z0-9][A-Za-z0-9._-]{0,63}",
                field="tenant",
            )
        if self.max_tasks is not None and (
            not _is_int(self.max_tasks) or self.max_tasks < 1
        ):
            raise ValidationError(
                "max_tasks must be a positive integer or null",
                field="max_tasks",
            )
        if self.devices is not None:
            from repro.fleet.devices import parse_fleet

            if not isinstance(self.devices, str):
                raise ValidationError(
                    "devices must be a fleet spec string or null",
                    field="devices",
                )
            try:
                parse_fleet(self.devices)
            except (ValueError, KeyError) as exc:
                raise ValidationError(
                    f"bad devices spec {self.devices!r}: {exc}",
                    field="devices",
                ) from exc
        if not isinstance(self.tuner_kwargs, dict) or any(
            not isinstance(k, str) for k in self.tuner_kwargs
        ):
            raise ValidationError(
                "tuner_kwargs must be an object with string keys",
                field="tuner_kwargs",
            )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Build a spec from an untrusted JSON payload.

        Unknown keys are a :class:`ValidationError` (a misspelled
        option must not be silently ignored on a paid tuning budget).
        """
        if not isinstance(data, dict):
            raise ValidationError("job spec must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(
                f"unknown job spec field(s): {', '.join(unknown)}",
                fields=unknown,
                known=sorted(known),
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"malformed job spec: {exc}") from exc


@dataclass
class Job:
    """One job as persisted: its spec plus lifecycle bookkeeping.

    ``seq`` is the monotonically increasing submission position (the
    FIFO tiebreaker within a priority level); wall-clock timestamps
    are service metadata and never feed into tuning decisions.
    """

    job_id: str
    seq: int
    spec: JobSpec
    state: str = "queued"
    error: str = ""
    attempts: int = 0
    created_s: float = 0.0
    started_s: Optional[float] = None
    finished_s: Optional[float] = None

    @property
    def active(self) -> bool:
        """True while the job holds quota (queued or running)."""
        return self.state not in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view (the ``/api/jobs`` row shape)."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "error": self.error,
            "attempts": self.attempts,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "spec": self.spec.to_dict(),
        }


def check_transition(from_state: str, to_state: str) -> None:
    """Raise :class:`InvalidTransitionError` for an illegal edge."""
    if (from_state, to_state) not in VALID_TRANSITIONS:
        raise InvalidTransitionError(
            f"cannot move a job from {from_state!r} to {to_state!r}",
            from_state=from_state,
            to_state=to_state,
        )


def valid_sources(to_state: str) -> Tuple[str, ...]:
    """Every state with a legal edge into ``to_state``."""
    return tuple(
        src for src, dst in sorted(VALID_TRANSITIONS) if dst == to_state
    )
