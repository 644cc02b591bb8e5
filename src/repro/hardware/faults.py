"""Deterministic fault injection for the measurement loop.

Real-hardware auto-tuning is dominated by partial failures: compilation
errors, device timeouts, boards dropping off the RPC tracker.  AutoTVM
copes by tagging every measurement with a ``MeasureErrorNo`` and moving
on; this module reproduces that failure surface on the simulator so the
tuning loop's fault handling can be exercised — and, critically, keeps
it *deterministic*.

Faults follow the same discipline as measurement noise
(:class:`repro.hardware.noise.MeasurementNoise`): whether the ``k``-th
measurement of a run faults, how many consecutive attempts fault, and
which :class:`FaultKind` each attempt raises are all a pure function of
``(fault seed, measurement ordinal)``.  Two consequences fall out for
free:

* a task injects the same faults whichever fleet worker thread tunes
  it (the ordinal, not the thread, decides), and
* a crashed-and-resumed run replays the *remaining* fault schedule
  bit-for-bit, because resuming restores the ordinal counter.

:class:`RetryPolicy` bounds how many times a faulted measurement is
re-attempted and how long to back off between attempts.  Retries
re-deploy the same measurement slot; the simulated device is pure, so a
measurement that eventually succeeds returns the same result it would
have returned without the fault — again mirroring real hardware, where
the retry re-runs the same kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.utils.rng import derive_seed

#: hard cap on modeled consecutive faults per ordinal, so a ``rate``
#: close to 1.0 cannot spin the schedule generator forever
MAX_CONSECUTIVE_FAULTS = 64


class FaultKind(enum.Enum):
    """Transient failure modes of one measurement attempt.

    Mirrors the categories of AutoTVM's ``MeasureErrorNo``: a build
    that fails (``COMPILE_DEVICE``), a kernel that never comes back
    (``RUN_TIMEOUT``), and a board vanishing from the tracker.
    """

    BUILD_ERROR = "build_error"
    TIMEOUT = "timeout"
    DEVICE_LOST = "device_lost"


@dataclass(frozen=True)
class FaultModel:
    """Seeded transient-fault schedule, pure in the measurement ordinal.

    Each attempt at measurement ordinal ``k`` faults independently with
    probability ``rate``; :meth:`faults_at` returns the full run of
    consecutive faulty attempts for that ordinal (empty = first attempt
    succeeds).  ``kinds`` weights which failure mode each faulty
    attempt raises.
    """

    rate: float = 0.05
    seed: int = 0
    kinds: Tuple[FaultKind, ...] = (
        FaultKind.BUILD_ERROR,
        FaultKind.TIMEOUT,
        FaultKind.DEVICE_LOST,
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("fault rate must be in [0, 1)")
        if not self.kinds:
            raise ValueError("fault model needs at least one FaultKind")

    def faults_at(self, ordinal: int) -> Tuple[FaultKind, ...]:
        """The consecutive faulty attempts at measurement ``ordinal``.

        Pure: the same ``(seed, ordinal)`` always yields the same
        schedule, independent of call order, process, or prior faults.
        """
        if self.rate == 0.0:
            return ()
        rng = np.random.default_rng(
            derive_seed(self.seed, "fault", int(ordinal))
        )
        plan = []
        while (
            len(plan) < MAX_CONSECUTIVE_FAULTS
            and float(rng.random()) < self.rate
        ):
            plan.append(self.kinds[int(rng.integers(len(self.kinds)))])
        return tuple(plan)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-attempt a faulted measurement, and how fast.

    ``backoff_s`` is the delay before the first retry; each further
    retry multiplies it by ``multiplier``, capped at ``max_backoff_s``.
    The default ``backoff_s=0`` keeps simulated runs instant while the
    executor still *accounts* the backoff it would have spent (exposed
    for tests and telemetry).
    """

    max_retries: int = 3
    backoff_s: float = 0.0
    multiplier: float = 2.0
    max_backoff_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_backoff_s < 0:
            raise ValueError("max_backoff_s must be non-negative")

    def backoff_for(self, retry: int) -> float:
        """Delay in seconds before retry number ``retry`` (0-based)."""
        if retry < 0:
            raise ValueError("retry must be non-negative")
        return min(
            self.backoff_s * (self.multiplier ** retry), self.max_backoff_s
        )

    def total_backoff(self, retries: int) -> float:
        """Summed delay across the first ``retries`` retries."""
        return sum(self.backoff_for(i) for i in range(retries))


@dataclass(frozen=True)
class FaultOutcome:
    """What fault injection did to one measurement.

    Produced by
    :class:`repro.hardware.executor.FaultInjectingExecutor` for every
    measurement whose first attempt faulted; the tuning loop converts
    these into structured events.
    """

    ordinal: int
    config_index: int
    #: faulty attempts before the final outcome, in order
    faults: Tuple[FaultKind, ...] = field(default=())
    #: True when retries ran out and the measurement was recorded as an
    #: error; False when a retry eventually succeeded
    exhausted: bool = False
    #: backoff the retry policy spent (or accounted) on this measurement
    backoff_s: float = 0.0

    @property
    def attempts(self) -> int:
        """Total attempts made, including the final one."""
        return len(self.faults) if self.exhausted else len(self.faults) + 1
