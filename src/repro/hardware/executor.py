"""Measurement execution: one backend and its decorators, one batch contract.

The tuning loop proposes batches of configurations; *how* a batch gets
deployed is this module's concern.  :class:`MeasureExecutor` is the
interface (AutoTVM's ``measure_batch`` contract), with one backend and
two decorators:

* :class:`SerialExecutor` — deploys the batch in order in-process
  (the default).
* :class:`CachingExecutor` — a decorator that memoizes
  ``(task fingerprint, config index) -> MeasureResult`` in memory and
  optionally on disk, so repeated trials/arms never re-simulate a
  configuration they have already deployed.
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

import os
import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.obs.hooks import (
    measure_hooks_active,
    notify_cache,
    notify_measure,
)
from repro.utils.io import atomic_write_bytes
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
        if not measure_hooks_active():
            return self._measurer.measure_batch(config_indices)
        start = time.perf_counter()
        results = self._measurer.measure_batch(config_indices)
        notify_measure("serial", len(results), time.perf_counter() - start)
        return results


# ----------------------------------------------------------------------
# caching

CacheKey = Tuple[str, int]


class MeasureCache:
    """Shared ``(task fingerprint, config index) -> MeasureResult`` store.

    One cache may back many executors across tasks, trials and arms —
    the fingerprint keeps environments apart while letting identical
    configurations share one simulation.  ``path`` enables a disk
    round-trip: existing entries load eagerly, :meth:`save` writes the
    store back atomically.
    """

    def __init__(self, path: Optional[str] = None):
        self._data: Dict[CacheKey, MeasureResult] = {}
        self.path = path
        if path is not None and os.path.exists(path):
            self.load(path)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._data

    def get(self, key: CacheKey) -> Optional[MeasureResult]:
        """Return the cached result for ``key`` (None on a miss)."""
        return self._data.get(key)

    def put(self, key: CacheKey, result: MeasureResult) -> None:
        """Store one measurement under ``key``."""
        self._data[key] = result

    def load(self, path: str) -> int:
        """Merge entries from ``path`` into the store; returns count read."""
        with open(path, "rb") as handle:
            entries: Dict[CacheKey, MeasureResult] = pickle.load(handle)
        self._data.update(entries)
        logger.info("measure cache: loaded %d entries from %s", len(entries), path)
        return len(entries)

    def save(self, path: Optional[str] = None) -> str:
        """Write the store to disk atomically (write-tmp-fsync-rename)."""
        target = path if path is not None else self.path
        if target is None:
            raise ValueError("no path given and cache has no default path")
        return atomic_write_bytes(target, pickle.dumps(self._data))


class CachingExecutor(MeasureExecutor):
    """Decorator executor that memoizes measurements through a cache.

    Hits return the stored :class:`MeasureResult` unchanged (same noise
    draw as the first deployment); only misses reach the wrapped
    executor, in their original relative order.  :attr:`hits` and
    :attr:`misses` expose effectiveness.
    """

    def __init__(
        self,
        inner: MeasureExecutor,
        cache: Optional[MeasureCache] = None,
        path: Optional[str] = None,
    ):
        self.inner = inner
        self.cache = cache if cache is not None else MeasureCache(path=path)
        self._fingerprint = inner.measurer.task.fingerprint
        self.hits = 0
        self.misses = 0

    @property
    def measurer(self) -> Measurer:
        return self.inner.measurer

    @property
    def num_measurements(self) -> int:
        return self.inner.num_measurements

    def sync_ordinal(self, ordinal: int) -> None:
        """Forward the checkpoint-resume ordinal to the wrapped executor."""
        self.inner.sync_ordinal(ordinal)

    def drain_fault_outcomes(self) -> List[FaultOutcome]:
        """Forward to the wrapped executor."""
        return self.inner.drain_fault_outcomes()

    def measure_batch(
        self, config_indices: Sequence[int]
    ) -> List[MeasureResult]:
        """Serve hits from the cache; deploy only the misses."""
        indices = [int(i) for i in config_indices]
        out: List[Optional[MeasureResult]] = [None] * len(indices)
        miss_positions: List[int] = []
        batch_hits = 0
        for pos, idx in enumerate(indices):
            cached = self.cache.get((self._fingerprint, idx))
            if cached is not None:
                out[pos] = cached
                batch_hits += 1
            else:
                miss_positions.append(pos)
        self.hits += batch_hits
        if miss_positions:
            self.misses += len(miss_positions)
            fresh = self.inner.measure_batch(
                [indices[pos] for pos in miss_positions]
            )
            for pos, result in zip(miss_positions, fresh):
                self.cache.put((self._fingerprint, indices[pos]), result)
                out[pos] = result
        if indices:
            notify_cache(batch_hits, len(miss_positions))
        return [r for r in out if r is not None]

    def close(self) -> None:
        """Persist the cache (when it has a path) and close the inner."""
        if self.cache.path is not None:
            self.cache.save()
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

    Wraps any executor composition (it should sit outermost).  Each
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


def build_executor(
    measurer: Measurer,
    spec: ExecutorSpec = None,
    cache: Optional[MeasureCache] = None,
    faults: Optional[FaultModel] = None,
    retry: Optional[RetryPolicy] = None,
) -> MeasureExecutor:
    """Resolve an executor spec against a measurer.

    ``spec`` may be ``None`` (a :class:`SerialExecutor`), an existing
    :class:`MeasureExecutor` (returned as-is), or a factory callable
    ``measurer -> MeasureExecutor``; anything else raises
    :class:`ValueError`.  ``cache`` wraps the result in a
    :class:`CachingExecutor`; ``faults`` wraps it (outermost) in a
    :class:`FaultInjectingExecutor` with ``retry`` (default policy when
    omitted).
    """
    if isinstance(spec, MeasureExecutor):
        executor = spec
    elif callable(spec):
        executor = spec(measurer)
    elif spec is None:
        executor = SerialExecutor(measurer)
    else:
        raise ValueError(
            f"unknown executor spec {spec!r}; expected None, an executor, "
            "or a factory"
        )
    if cache is not None and not isinstance(executor, CachingExecutor):
        executor = CachingExecutor(executor, cache=cache)
    if faults is not None and not isinstance(
        executor, FaultInjectingExecutor
    ):
        executor = FaultInjectingExecutor(
            executor, faults, retry=retry if retry is not None else RetryPolicy()
        )
    return executor
