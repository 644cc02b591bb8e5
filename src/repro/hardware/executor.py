"""Measurement execution: one backend and two decorators, one batch contract.

The tuning loop proposes batches of configurations; *how* a batch gets
deployed is this module's concern.  :class:`MeasureExecutor` is the
interface (AutoTVM's ``measure_batch`` contract), with one backend and
two decorators:

* :class:`SerialExecutor` — deploys the batch in order in-process
  (the default).
* :class:`BuildStage` — a decorator that rejects configurations which
  cannot launch on the host and passes only launchable ones to the
  executor it wraps (a board, a runner, an emulator).
* :class:`FaultInjectingExecutor` — a decorator that subjects each
  measurement to deterministic transient faults with retry/backoff.

Measurements run in parallel across tasks, not within a batch: a
:class:`repro.fleet.FleetScheduler` tunes tasks on a pool of devices.

Executors are cheap to construct around an existing
:class:`~repro.hardware.measure.Measurer`; tuners accept an executor
*spec* (``None``, an instance, or a ``measurer -> executor`` factory)
via their ``executor=`` argument — see :func:`build_executor`.
"""

from __future__ import annotations

import time
from itertools import groupby
from typing import Callable, List, Optional, Sequence, Union

from repro.hardware.faults import (
    FaultKind,
    FaultModel,
    FaultOutcome,
    RetryPolicy,
)
from repro.hardware.measure import (
    MeasureErrorKind,
    Measurer,
    MeasureResult,
)
from repro.utils.log import get_logger

logger = get_logger("hardware.executor")

#: what tuners accept as their ``executor=`` argument
ExecutorSpec = Union[
    None, "MeasureExecutor", Callable[[Measurer], "MeasureExecutor"]
]


class MeasureExecutor:
    """Interface between a search policy and the measurement hardware.

    Implementations own ordinal assignment: the ``k``-th configuration
    ever submitted through an executor is measured at ordinal ``k``,
    whatever backend performs the work.  That single rule is what makes
    every backend produce identical results for identical submission
    sequences.
    """

    def measure_batch(
        self, config_indices: Sequence[int]
    ) -> List[MeasureResult]:
        """Deploy a batch of configurations, preserving order."""
        raise NotImplementedError

    @property
    def measurer(self) -> Measurer:
        """The underlying measurer (noise seed, task, repeat count)."""
        raise NotImplementedError

    @property
    def num_measurements(self) -> int:
        """Configurations deployed through this executor so far."""
        raise NotImplementedError

    def sync_ordinal(self, ordinal: int) -> None:
        """Reset the ordinal counter (checkpoint-resume support).

        After restoring tuner state from a checkpoint, the executor
        must hand out ordinals continuing from the restored measurement
        count so the noise and fault streams pick up exactly where the
        crashed run left off.  Decorator executors forward the call.
        """
        raise NotImplementedError

    def drain_fault_outcomes(self) -> List["FaultOutcome"]:
        """Fault-injection outcomes accumulated since the last drain.

        Non-injecting executors report none; decorators forward to the
        wrapped executor so the tuning loop can call this on whatever
        executor composition it was handed.
        """
        return []

    def close(self) -> None:
        """Release or persist held resources (idempotent)."""

    def __enter__(self) -> "MeasureExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(MeasureExecutor):
    """Deploys each batch in order, in-process — the default backend."""

    def __init__(self, measurer: Measurer):
        self._measurer = measurer

    @property
    def measurer(self) -> Measurer:
        return self._measurer

    @property
    def num_measurements(self) -> int:
        return self._measurer.num_measurements

    def sync_ordinal(self, ordinal: int) -> None:
        """Continue ordinal assignment from ``ordinal``."""
        self._measurer.num_measurements = int(ordinal)

    def measure_batch(
        self, config_indices: Sequence[int]
    ) -> List[MeasureResult]:
        """Deploy the batch sequentially via the wrapped measurer."""
        return self._measurer.measure_batch(config_indices)


# ----------------------------------------------------------------------
# build stage


class BuildStage(MeasureExecutor):
    """Decorator executor that rejects unlaunchable configurations early.

    AutoTVM builds every schedule on the host and checks it against the
    device's thread, shared-memory and register limits, so a
    configuration that cannot launch never reaches the board.  This
    stage does the same with :meth:`~repro.hardware.measure.Measurer.\
build`: each batch's unlaunchable configurations get their
    ``RESOURCE_ERROR`` result on the host, and the wrapped executor
    receives only the maximal runs of launchable ones, each after a
    ``sync_ordinal`` to the run's position in the batch (and one past
    the batch at the end).  Every configuration keeps its ordinal, so
    the results equal the wrapped executor's on the whole batch.
    """

    def __init__(self, inner: MeasureExecutor):
        self.inner = inner

    @property
    def measurer(self) -> Measurer:
        return self.inner.measurer

    @property
    def num_measurements(self) -> int:
        return self.inner.num_measurements

    def sync_ordinal(self, ordinal: int) -> None:
        """Continue the inner ordinal stream from ``ordinal``."""
        self.inner.sync_ordinal(ordinal)

    def drain_fault_outcomes(self) -> List[FaultOutcome]:
        """Forward to the wrapped executor."""
        return self.inner.drain_fault_outcomes()

    def measure_batch(
        self, config_indices: Sequence[int]
    ) -> List[MeasureResult]:
        """Build the batch, deploying only the launchable runs."""
        indices = [int(i) for i in config_indices]
        start = self.inner.num_measurements
        results = [self.measurer.build(i) for i in indices]
        pos = 0
        for launchable, run in groupby([r is None for r in results]):
            end = pos + sum(1 for _ in run)
            if launchable:
                self.inner.sync_ordinal(start + pos)
                results[pos:end] = self.inner.measure_batch(indices[pos:end])
            pos = end
        self.inner.sync_ordinal(start + len(indices))
        return results

    def close(self) -> None:
        """Close the wrapped executor."""
        self.inner.close()


# ----------------------------------------------------------------------
# fault injection

#: how an injected FaultKind is reported when retries run out
_FAULT_ERROR_KINDS = {
    FaultKind.BUILD_ERROR: MeasureErrorKind.BUILD_ERROR,
    FaultKind.TIMEOUT: MeasureErrorKind.TIMEOUT,
    FaultKind.DEVICE_LOST: MeasureErrorKind.DEVICE_LOST,
}


class FaultInjectingExecutor(MeasureExecutor):
    """Decorator executor that subjects measurements to transient faults.

    Wraps any executor composition (it sits outermost, above a
    :class:`BuildStage`, so unlaunchable configurations keep their
    fault ordinals too).  Each
    submitted configuration consumes one fault ordinal; the wrapped
    :class:`~repro.hardware.faults.FaultModel` decides — purely from
    that ordinal — how many consecutive attempts fault and with which
    :class:`~repro.hardware.faults.FaultKind`.  Faults within the
    :class:`~repro.hardware.faults.RetryPolicy` budget are retried
    (with backoff) and the measurement succeeds with its original
    result; when the budget runs out the configuration is *gracefully
    degraded* to a ``MeasureErrorKind`` error record (0 GFLOPS) instead
    of crashing the tuning loop, exactly as AutoTVM records
    ``MeasureErrorNo`` failures.

    Because the fault schedule is pure in the ordinal, a run with fault
    injection is just as deterministic as one without: crash-plus-resume
    equals uninterrupted.
    """

    def __init__(
        self,
        inner: MeasureExecutor,
        faults: FaultModel,
        retry: RetryPolicy = RetryPolicy(),
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.inner = inner
        self.faults = faults
        self.retry = retry
        self._sleep = sleep
        self._count = 0
        self._outcomes: List[FaultOutcome] = []
        #: lifetime telemetry
        self.retries = 0
        self.failures = 0
        self.total_backoff_s = 0.0

    @property
    def measurer(self) -> Measurer:
        return self.inner.measurer

    @property
    def num_measurements(self) -> int:
        return self._count

    def sync_ordinal(self, ordinal: int) -> None:
        """Continue both the fault and the inner ordinal streams."""
        self._count = int(ordinal)
        self.inner.sync_ordinal(ordinal)

    def drain_fault_outcomes(self) -> List[FaultOutcome]:
        """Outcomes since the last drain (the tuner turns these into events)."""
        out = self._outcomes
        self._outcomes = []
        return out

    def measure_batch(
        self, config_indices: Sequence[int]
    ) -> List[MeasureResult]:
        """Deploy the batch, injecting faults per measurement ordinal."""
        indices = [int(i) for i in config_indices]
        start = self._count
        self._count += len(indices)
        results = self.inner.measure_batch(indices)
        out: List[MeasureResult] = []
        for offset, result in enumerate(results):
            out.append(self._apply_faults(start + offset, result))
        return out

    def _apply_faults(
        self, ordinal: int, result: MeasureResult
    ) -> MeasureResult:
        plan = self.faults.faults_at(ordinal)
        if not plan:
            return result
        retries_used = min(len(plan), self.retry.max_retries)
        exhausted = len(plan) > self.retry.max_retries
        backoff = self.retry.total_backoff(retries_used)
        if backoff > 0:
            self._sleep(backoff)
        self.retries += retries_used
        self.total_backoff_s += backoff
        experienced = plan[: retries_used + (1 if exhausted else 0)]
        self._outcomes.append(
            FaultOutcome(
                ordinal=ordinal,
                config_index=result.config_index,
                faults=experienced,
                exhausted=exhausted,
                backoff_s=backoff,
            )
        )
        if not exhausted:
            # a retry re-deployed the same slot; the device is pure, so
            # the surviving attempt returns the original result
            return result
        self.failures += 1
        final = experienced[-1]
        logger.info(
            "measurement %d (config %d) failed after %d attempts: %s",
            ordinal,
            result.config_index,
            len(experienced),
            final.value,
        )
        return MeasureResult(
            config_index=result.config_index,
            gflops=0.0,
            mean_time_s=float("inf"),
            error_kind=_FAULT_ERROR_KINDS[final],
            error_msg=(
                f"injected {final.value} persisted through "
                f"{len(experienced)} attempts "
                f"(max_retries={self.retry.max_retries})"
            ),
        )

    def close(self) -> None:
        """Close the wrapped executor."""
        self.inner.close()


# ----------------------------------------------------------------------
# spec resolution


def check_executor_spec(spec: ExecutorSpec) -> None:
    """Raise :class:`ValueError` unless ``spec`` is ``None``, a
    :class:`MeasureExecutor` or a factory callable."""
    if spec is not None and not (
        isinstance(spec, MeasureExecutor) or callable(spec)
    ):
        raise ValueError(
            f"unknown executor spec {spec!r}; expected None, an executor, "
            "or a factory"
        )


def build_executor(
    measurer: Measurer,
    spec: ExecutorSpec = None,
    faults: Optional[FaultModel] = None,
    retry: Optional[RetryPolicy] = None,
) -> MeasureExecutor:
    """Resolve an executor spec against a measurer.

    ``spec`` may be ``None`` (a :class:`SerialExecutor`), an existing
    :class:`MeasureExecutor`, or a factory callable ``measurer ->
    MeasureExecutor``; anything else raises :class:`ValueError` (see
    :func:`check_executor_spec`).  A handed-in or factory-built
    executor is wrapped in a :class:`BuildStage` unless it already is
    one or a :class:`FaultInjectingExecutor` (a composition built here
    before); the default needs none, since its measurer already is the
    check.
    ``faults`` wraps the result in a :class:`FaultInjectingExecutor`
    with ``retry`` (default policy when omitted), so the composition is
    ``FaultInjectingExecutor(BuildStage(executor))``.
    """
    check_executor_spec(spec)
    if isinstance(spec, MeasureExecutor):
        executor = spec
    elif spec is None:
        executor = SerialExecutor(measurer)
    else:
        executor = spec(measurer)
    if spec is not None and not isinstance(
        executor, (BuildStage, FaultInjectingExecutor)
    ):
        executor = BuildStage(executor)
    if faults is not None and not isinstance(
        executor, FaultInjectingExecutor
    ):
        executor = FaultInjectingExecutor(
            executor, faults, retry=retry if retry is not None else RetryPolicy()
        )
    return executor
