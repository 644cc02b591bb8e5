"""Tuner base class, trial records, and early stopping.

All experimental arms share one active-learning skeleton (Sec. II-B):
an initialization stage proposes a first batch of configurations, then
an iterative stage alternates proposing and measuring until the trial
budget or the early-stopping criterion (no improvement within a window
of measurements, AutoTVM's default stopping rule) is reached.

Subclasses implement :meth:`Tuner._generate_initial` and
:meth:`Tuner._generate_next`; the base class owns bookkeeping, the
best-so-far curve, and stopping.  Measurement itself goes through a
pluggable :class:`~repro.hardware.executor.MeasureExecutor` (serial by
default, optionally fault-injecting), and every decision point emits a
structured :class:`~repro.core.events.TuningEvent` through the
``on_event`` callbacks.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

if TYPE_CHECKING:  # structural only; core never imports repro.tlog at runtime
    from repro.tlog.warm import WarmStartPlan

import numpy as np

from repro.core.checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    CheckpointSpec,
    TuningCheckpoint,
    as_checkpoint_policy,
)
from repro.core.events import (
    BatchMeasured,
    BatchProposed,
    CheckpointSaved,
    EarlyStopped,
    EventCallback,
    IncumbentImproved,
    MeasurementFailed,
    MeasurementRetried,
    SpaceExhausted,
    SpeculationResolved,
    TuningEvent,
    TuningResumed,
    WarmStarted,
)
from repro.hardware.executor import (
    ExecutorSpec,
    MeasureExecutor,
    SerialExecutor,
    build_executor,
    check_executor_spec,
)
from repro.hardware.measure import Measurer, MeasureResult, SimulatedTask
from repro.obs import hooks
from repro.space.space import FeatureCache
from repro.utils.log import get_logger
from repro.utils.rng import RngPool

logger = get_logger("core.tuner")

Callback = Callable[["Tuner", List[MeasureResult]], None]

#: tuner attributes that are rebuilt from constructor arguments (or are
#: only live inside ``tune``) and therefore stay out of checkpoints
_EPHEMERAL_STATE = (
    "task",
    "measurer",
    "_executor",
    "_executor_spec",
    "_event_sinks",
    "_pending_events",
    "_prepared",
    "on_first_dispatch",
)

#: sentinel distinguishing "argument omitted" from an explicit ``None``
_UNSET = object()


class SpaceSamplingError(RuntimeError):
    """Rejection sampling could not draw enough unvisited configs.

    Raised by :meth:`Tuner._random_unvisited` when its attempt budget
    runs out while unvisited configurations provably remain — the
    previously-silent failure mode that returned a short batch and let
    the loop misreport the space as exhausted.
    """


@dataclass
class _PendingProposal:
    """A batch proposed ahead of its turn, waiting to be consumed.

    Carried across loop iterations with speculation on, from
    :meth:`Tuner.propose_initial` into :meth:`Tuner.tune`, and (via the
    checkpoint ``pending`` payload) across resumes: the batch itself,
    the proposal wall-time to report on its :class:`BatchProposed`
    event, whether the proposal found the space exhausted, the
    observability notifications captured on the proposing thread, to
    be replayed on the driving thread when the proposal is consumed,
    and the policy events it queued (once ``tune`` takes the proposal
    over they live in the tuner's queue instead).
    """

    batch: List[int]
    proposal_s: float
    exhausted: bool
    captured: list
    events: list = field(default_factory=list)


@dataclass
class _Speculation:
    """What a worker-thread speculation did to the live tuner for one batch.

    ``predicted`` is validated against the real measurement results: on
    an exact match the tuner keeps the state the speculation left and
    the loop delivers the buffered events; otherwise it restores the
    snapshot taken before dispatch and absorbs the real results.
    """

    predicted: List[MeasureResult]
    new_records: List[TrialRecord]
    absorb_events: List[TuningEvent]
    policy_events: List[TuningEvent]
    next_batch: List[int]
    exhausted: bool
    captured: list
    proposal_s: float
    wall_s: float


def _observer_states(observers: Sequence[object]) -> List[Optional[dict]]:
    """Snapshot the optional state protocol of callbacks/event sinks.

    One entry per observer, positionally: ``{"type": ..., "state": ...}``
    for observers implementing ``state_dict()``, else ``None``.
    """
    states: List[Optional[dict]] = []
    for obs in observers:
        fn = getattr(obs, "state_dict", None)
        if callable(fn):
            states.append({"type": type(obs).__name__, "state": fn()})
        else:
            states.append(None)
    return states


def _restore_observer_states(
    observers: Sequence[object],
    states: Optional[Sequence[Optional[dict]]],
    num_measured: int,
    seed_counts: bool,
) -> None:
    """Restore checkpointed observer state positionally.

    An observer only loads a state entry recorded by an observer of the
    same type at the same position; otherwise (legacy checkpoint, or
    the resume call passes different observers) the fallback for
    ``seed_counts=True`` is to seed an integer ``_count`` attribute
    from the restored measurement count, which keeps count-based
    callbacks (progress logs/bars) correct even without the protocol.
    """
    saved = list(states or [])
    for i, obs in enumerate(observers):
        entry = saved[i] if i < len(saved) else None
        loader = getattr(obs, "load_state_dict", None)
        if entry is not None and callable(loader):
            if entry.get("type") == type(obs).__name__:
                loader(entry["state"])
                continue
            logger.warning(
                "checkpointed state at position %d was written by %s, "
                "not %s; falling back to count seeding",
                i,
                entry.get("type"),
                type(obs).__name__,
            )
        if seed_counts and isinstance(getattr(obs, "_count", None), int):
            obs._count = num_measured


@dataclass(frozen=True)
class TrialRecord:
    """One measured configuration, in measurement order."""

    step: int
    config_index: int
    gflops: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class TuningResult:
    """Outcome of one tuning run."""

    task_name: str
    tuner_name: str
    records: List[TrialRecord]
    best_index: Optional[int]
    best_gflops: float
    wall_time_s: float = 0.0

    @property
    def num_measurements(self) -> int:
        return len(self.records)

    def best_curve(self) -> np.ndarray:
        """Best-so-far GFLOPS after each measurement (the Fig. 4 series)."""
        if not self.records:
            return np.empty(0)
        series = np.fromiter(
            (r.gflops for r in self.records),
            dtype=np.float64,
            count=len(self.records),
        )
        # running max with a 0.0 floor (errored trials report 0 GFLOPS)
        return np.maximum.accumulate(np.maximum(series, 0.0))

    def gflops_series(self) -> np.ndarray:
        """Raw measured GFLOPS per step (0 for errored trials)."""
        return np.array([r.gflops for r in self.records])

    def __repr__(self) -> str:
        return (
            f"TuningResult({self.tuner_name!r} on {self.task_name!r}: "
            f"best={self.best_gflops:.1f} GFLOPS "
            f"in {self.num_measurements} measurements)"
        )


class EarlyStopper:
    """Stop when the best score has not improved for ``patience`` trials.

    AutoTVM's stopping criterion; the paper sets the threshold to 400
    (Sec. V-A).
    """

    def __init__(self, patience: int, min_delta: float = 0.0):
        if patience <= 0:
            raise ValueError("patience must be positive")
        self.patience = patience
        self.min_delta = min_delta
        self._best = -np.inf
        self._best_step = 0
        self._step = 0

    def update(self, score: float) -> bool:
        """Record one measurement; returns True when tuning should stop."""
        self._step += 1
        if score > self._best + self.min_delta:
            self._best = score
            self._best_step = self._step
        return (self._step - self._best_step) >= self.patience


class Tuner:
    """Base class for all node-wise tuners (one task, one search policy).

    ``executor`` selects the measurement backend: ``None`` (a
    :class:`~repro.hardware.executor.SerialExecutor`, the default), a
    ``measurer -> MeasureExecutor`` factory, or a ready executor
    instance; any other value raises :class:`ValueError`.  Nothing is
    built in the constructor: a handed-in spec is resolved once, when
    :meth:`tune` (or :meth:`resume`) starts, so a tuner built ahead of
    its turn holds no executor; the default is resolved against
    :attr:`measurer` at each :meth:`tune` call, so tests that swap the
    measurer keep working.  A tuner handed an executor speculates (see
    :meth:`tune`); one measuring through its own in-process simulator
    never does.

    ``warm_start`` (a :class:`~repro.tlog.WarmStartPlan`, default off)
    injects prior tuning-log configurations at the head of the
    initialization batch; subclasses with cost models additionally
    pretrain from the plan's :class:`~repro.learning.transfer.\
TransferHistory`.  The injection happens once, inside the
    initialization step, so it is checkpoint/resume-safe by
    construction (a resumed run never regenerates the initial batch).
    With ``warm_start=None`` the tuner is bit-identical to a build
    without warm-start support.
    """

    name = "base"

    def __init__(
        self,
        task: SimulatedTask,
        seed: int = 0,
        batch_size: int = 64,
        measure_repeats: int = 3,
        executor: ExecutorSpec = None,
        warm_start: Optional["WarmStartPlan"] = None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.task = task
        self.seed = int(seed)
        self.batch_size = batch_size
        self.warm_start = warm_start
        self.rng_pool = RngPool(self.seed).child(f"tuner-{self.name}")
        self.measurer = Measurer(
            task, seed=self.rng_pool.seed_for("measure"), repeats=measure_repeats
        )
        check_executor_spec(executor)  # built later, but rejected now
        self._executor_spec = executor
        self._executor: Optional[MeasureExecutor] = None
        #: the first batch :meth:`propose_initial` proposed ahead of tune
        self._prepared: Optional[_PendingProposal] = None
        #: called once, on the driving thread, as :meth:`tune` hands its
        #: first batch to the executor, with the ``submit`` of the run's
        #: worker thread (a compile prepares its next task there)
        self.on_first_dispatch: Optional[
            Callable[[Callable[..., Future]], None]
        ] = None

        # measured state, shared with subclasses
        self.visited: Set[int] = set()
        self.measured_indices: List[int] = []
        self.measured_scores: List[float] = []
        self._features = FeatureCache(task.space)
        self._visited_sorted = np.empty(0, dtype=np.int64)
        self.best_index: Optional[int] = None
        self.best_gflops: float = 0.0

        # event plumbing (active only inside tune())
        self._event_sinks: Sequence[EventCallback] = ()
        self._pending_events: List[TuningEvent] = []
        #: events emitted so far, by kind — checkpointed with the rest
        #: of the tuner state so a resumed run's counters keep climbing
        self.event_counts: Dict[str, int] = {}

    @property
    def executor(self) -> MeasureExecutor:
        """The measurement executor used by :meth:`tune`.

        A handed-in spec is built on first use and kept; without one
        this is a fresh in-process executor over :attr:`measurer`.
        """
        if self._executor is None:
            if self._executor_spec is None:
                return SerialExecutor(self.measurer)
            self._executor = build_executor(self.measurer, self._executor_spec)
        return self._executor

    @property
    def num_measured(self) -> int:
        """Configurations measured so far (restored by :meth:`resume`)."""
        return len(self.measured_indices)

    def shutdown(self) -> None:
        """Close the executor built from the spec (no-op for the default)."""
        if self._executor is not None:
            self._executor.close()

    # ------------------------------------------------------------------
    # subclass contract

    def _generate_initial(self) -> List[int]:
        """Propose the initialization batch of config indices."""
        raise NotImplementedError

    def _generate_next(self) -> List[int]:
        """Propose the next batch given the measured state so far."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # measured-state helpers for subclasses

    @property
    def measured_features(self) -> np.ndarray:
        """Feature matrix of all measured configs, in measurement order.

        Served from an incrementally grown :class:`FeatureCache` — a
        zero-copy read-only view, not a fresh ``np.stack`` per access.
        """
        return self._features.matrix

    @property
    def visited_sorted(self) -> np.ndarray:
        """Measured config indices as a maintained sorted int64 array.

        Lets hot paths (BAO's per-step candidate filtering) use
        ``np.isin`` instead of Python set membership per candidate.
        """
        return self._visited_sorted

    @property
    def measured_scores_array(self) -> np.ndarray:
        return np.asarray(self.measured_scores, dtype=np.float64)

    def _filter_unvisited(self, indices: Sequence[int]) -> List[int]:
        """Drop already-measured indices, preserving order/uniqueness."""
        out: List[int] = []
        seen: Set[int] = set()
        for idx in indices:
            idx = int(idx)
            if idx in self.visited or idx in seen:
                continue
            seen.add(idx)
            out.append(idx)
        return out

    def _inject_warm_start(self, initial: Sequence[int]) -> List[int]:
        """Put warm-start plan configs at the head of the initial batch.

        The batch size stays what the arm proposed: ``k`` seeded configs
        displace the last ``k`` arm proposals, so a warm run spends the
        same initialization budget as a cold one (HW-aware-init style).
        A ``None`` plan returns the batch untouched — the cold path is
        byte-for-byte the pre-warm-start behaviour.
        """
        plan = self.warm_start
        if plan is None:
            return list(initial)
        space_size = len(self.task.space)
        seeds: List[int] = []
        seen: Set[int] = set()
        for idx in plan.configs:
            idx = int(idx)
            if not 0 <= idx < space_size:
                raise ValueError(
                    f"warm-start config {idx} out of range for a space of "
                    f"size {space_size}; was the plan built for a "
                    "different task?"
                )
            if idx not in seen:
                seen.add(idx)
                seeds.append(idx)
        if not seeds:
            return list(initial)
        budget = max(len(initial), len(seeds))
        batch = list(seeds)
        for idx in initial:
            if len(batch) >= budget:
                break
            idx = int(idx)
            if idx not in seen:
                seen.add(idx)
                batch.append(idx)
        self._queue_event(
            WarmStarted(
                step=0,
                injected=len(seeds),
                source=getattr(plan, "source", "similar"),
                history_samples=getattr(plan, "history_samples", 0),
                cross_sources=getattr(plan, "cross_sources", 0),
            )
        )
        return batch

    def _random_unvisited(
        self, n: int, max_attempts: Optional[int] = None
    ) -> List[int]:
        """Fallback proposals: random configs not measured yet.

        Rejection-samples the space.  May legitimately return fewer
        than ``n`` configs when fewer unvisited ones remain — including
        an empty list once the space is fully measured, which is the
        main loop's :class:`~repro.core.events.SpaceExhausted` signal.
        When the attempt budget (``50 * n + 100`` unless overridden)
        runs out while unvisited configs provably remain, raises
        :class:`SpaceSamplingError` instead of silently under-filling
        the batch and misreporting the space as exhausted.
        """
        rng = self.rng_pool.get("fallback")
        space = self.task.space
        budget = 50 * n + 100 if max_attempts is None else max_attempts
        out: List[int] = []
        seen: Set[int] = set()
        attempts = 0
        while len(out) < n and attempts < budget:
            idx = int(rng.integers(0, len(space)))
            attempts += 1
            if idx not in self.visited and idx not in seen:
                seen.add(idx)
                out.append(idx)
        remaining = len(space) - len(self.visited)
        if len(out) < min(n, remaining):
            raise SpaceSamplingError(
                f"{self.name}: rejection sampling exhausted its budget of "
                f"{budget} attempts while drawing {n} fallback configs for "
                f"task {self.task.name!r} (space size {len(space)}, "
                f"{len(self.visited)} visited, {remaining} unvisited "
                f"remain, {len(out)} drawn); the space is too saturated "
                "for random fallback — lower the batch size or stop the run"
            )
        return out

    # ------------------------------------------------------------------
    # events

    def _emit(self, event: TuningEvent) -> None:
        """Deliver one event to every registered sink."""
        self.event_counts[event.kind] = (
            self.event_counts.get(event.kind, 0) + 1
        )
        for sink in self._event_sinks:
            sink(self, event)

    def _emit_fault_events(
        self, executor: MeasureExecutor, step: int
    ) -> None:
        """Convert executor fault outcomes into structured events."""
        drain = getattr(executor, "drain_fault_outcomes", None)
        if drain is None:
            return
        for outcome in drain():
            names = tuple(kind.value for kind in outcome.faults)
            if outcome.exhausted:
                self._emit(
                    MeasurementFailed(
                        step=step,
                        config_index=outcome.config_index,
                        ordinal=outcome.ordinal,
                        attempts=outcome.attempts,
                        fault=names[-1],
                    )
                )
            else:
                self._emit(
                    MeasurementRetried(
                        step=step,
                        config_index=outcome.config_index,
                        ordinal=outcome.ordinal,
                        attempts=outcome.attempts,
                        faults=names,
                        backoff_s=outcome.backoff_s,
                    )
                )

    def _queue_event(self, event: TuningEvent) -> None:
        """Queue a policy-side event (e.g. BAO scope widening).

        Subclasses call this from ``_generate_next``; the main loop
        flushes the queue right after proposal generation.
        """
        self._pending_events.append(event)

    def _flush_policy_events(self) -> None:
        for event in self._pending_events:
            self._emit(event)
        self._pending_events.clear()

    # ------------------------------------------------------------------
    # main loop

    def tune(
        self,
        n_trial: int = 1024,
        early_stopping: Optional[int] = 400,
        callbacks: Sequence[Callback] = (),
        on_event: Sequence[EventCallback] = (),
        checkpoint: CheckpointSpec = None,
        _resume: Optional[dict] = None,
    ) -> TuningResult:
        """Run the active-learning loop and return the result.

        ``n_trial`` bounds total measurements; ``early_stopping`` is the
        no-improvement window (None disables it).  ``callbacks`` receive
        ``(tuner, results)`` after each measured batch (the AutoTVM
        hook); ``on_event`` receives ``(tuner, TuningEvent)`` at every
        decision point.

        ``checkpoint`` (a path or :class:`CheckpointPolicy`) snapshots
        the resumable tuner state at batch boundaries: if the process
        dies at *any* point, :meth:`resume` on a freshly constructed
        tuner continues the run so that its measurement stream, record
        log, and final incumbent are bit-identical to an uninterrupted
        run.  ``_resume`` is internal (restored loop state from
        :meth:`resume`).

        Every batch runs through one loop: propose, measure, absorb,
        emit, run callbacks, early-stop, checkpoint.  A tuner handed an
        ``executor=`` speculates: while batch *k* is measured on this
        thread, a worker thread runs the post-measure sequence on the
        tuner itself — absorb the (predicted) results, refit, propose
        batch *k+1* — predicting the measurement results via the
        ordinal-determinism of :class:`~repro.hardware.measure.Measurer`
        (``measure_at`` is pure in ``(ordinal, config_index)``).  Events,
        policy events and hook notifications are buffered meanwhile.
        When the real results come back they are compared against the
        prediction: an exact match keeps the speculated state and its
        proposal and delivers the buffered events; any mismatch (fault
        injection, a foreign executor), a speculation that raised, or a
        ``measure_batch`` that raised restores the state pickled before
        dispatch, and the loop proposes from the real results.  Records,
        RNG streams, events and checkpoints are bit-identical with
        speculation on or off; the only additions are
        :class:`~repro.core.events.SpeculationResolved` events, the
        overlap wall-time they report, and the ``pending`` payload
        speculative checkpoints carry.  A tuner measuring through its
        own in-process simulator has nothing to overlap and never
        speculates; the worker thread starts at the first dispatch.  An
        :attr:`on_first_dispatch` callback gets that thread too, behind
        the first speculation; a tuner that does not speculate starts
        the thread for the callback alone.

        A first batch proposed ahead by :meth:`propose_initial` is
        consumed first, as a checkpoint's pending proposal is: the
        step-0 snapshot carries it as ``pending``, and its policy events
        and hook notifications are delivered here, where proposing it
        would have fired them.
        """
        if n_trial <= 0:
            raise ValueError("n_trial must be positive")
        start = time.perf_counter()
        policy = as_checkpoint_policy(checkpoint)
        # a batch proposed before this call — ahead of the run, or by a
        # speculation a checkpoint carries — is consumed first
        current, self._prepared = self._prepared, None
        resume_pending = _resume.get("pending") if _resume is not None else None
        if resume_pending is not None:
            current = _PendingProposal(
                batch=[int(i) for i in resume_pending["batch"]],
                proposal_s=float(resume_pending["proposal_s"]),
                exhausted=bool(resume_pending["exhausted"]),
                captured=list(resume_pending["captured"]),
                events=list(resume_pending.get("events") or ()),
            )
        if _resume is not None:
            records: List[TrialRecord] = list(_resume["records"])
            stopper = self._restore_stopper(
                early_stopping, _resume.get("stopper")
            )
            initialized: bool = _resume["initialized"]
        else:
            records = []
            stopper = (
                EarlyStopper(early_stopping)
                if early_stopping is not None
                else None
            )
            initialized = False
        stop = False
        executor = self.executor
        speculate = self._executor_spec is not None
        self._event_sinks = tuple(on_event)
        self._pending_events.clear()
        if current is not None:
            self._pending_events.extend(current.events)
            initialized = True
        batches_since_checkpoint = 0
        pool: Optional[ThreadPoolExecutor] = None
        spec_measurer: Optional[Measurer] = None
        for sink in self._event_sinks:
            begin = getattr(sink, "on_tune_begin", None)
            if callable(begin):
                begin(self, n_trial=n_trial, resumed=_resume is not None)

        try:
            if _resume is not None:
                self._emit(
                    TuningResumed(
                        step=len(records), restored_records=len(records)
                    )
                )
            elif policy is not None:
                # step-0 snapshot: a crash inside the very first batch
                # is resumable too (resuming it replays the whole run,
                # or consumes the first batch proposed ahead)
                self._save_checkpoint(
                    policy, records, stopper, n_trial, early_stopping,
                    initialized=initialized, callbacks=callbacks,
                    pending=self._pending_payload(current),
                )
            while not stop and len(records) < n_trial:
                if current is None:
                    proposal_start = time.perf_counter()
                    if not initialized:
                        batch = self._initial_batch()
                        initialized = True
                        self._flush_policy_events()
                        if not batch:
                            break
                    else:
                        batch = self._propose_next()
                        self._flush_policy_events()
                    exhausted = not batch
                    proposal_s = time.perf_counter() - proposal_start
                else:
                    # consume the adopted speculation: its refit
                    # notifications replay *now* because without
                    # speculation they fire while proposing batch k+1 —
                    # after iteration k's checkpoint, not before it
                    hooks.replay_captured(current.captured)
                    self._flush_policy_events()
                    batch = current.batch
                    proposal_s = current.proposal_s
                    exhausted = current.exhausted
                    current = None
                    if not batch and not exhausted:
                        break  # an empty initial batch, proposed ahead
                if exhausted:
                    self._emit(SpaceExhausted(step=len(records)))
                    logger.info("%s: search space exhausted", self.name)
                    break
                batch = batch[: n_trial - len(records)]
                self._emit(
                    BatchProposed(
                        step=len(records),
                        config_indices=tuple(batch),
                        proposal_s=proposal_s,
                    )
                )
                # dispatch the speculative proposal of batch k+1 before
                # measuring batch k; skip it when this batch already
                # fills the budget.  The rollback snapshot is pickled
                # here, on the driving thread, so it is exactly the real
                # state at this point of the loop.
                future = rollback = None
                if speculate and len(records) + len(batch) < n_trial:
                    rollback = self._rollback_snapshot()
                    speculate = rollback is not None
                if pool is None and (
                    rollback is not None or self.on_first_dispatch is not None
                ):
                    pool = ThreadPoolExecutor(
                        max_workers=1,
                        thread_name_prefix=f"{self.name}-speculate",
                    )
                if rollback is not None:
                    if spec_measurer is None:
                        # the prediction measurer is a clone synced to
                        # the executor's pre-batch ordinal each dispatch;
                        # prediction never advances the real stream
                        spec_measurer = pickle.loads(
                            pickle.dumps(
                                self.measurer,
                                protocol=pickle.HIGHEST_PROTOCOL,
                            )
                        )
                    future = pool.submit(
                        self._speculate,
                        spec_measurer,
                        list(records),
                        list(batch),
                        executor.num_measurements,
                        n_trial,
                    )
                if self.on_first_dispatch is not None:
                    # queued behind the first speculation, if any
                    start_next, self.on_first_dispatch = (
                        self.on_first_dispatch, None
                    )
                    start_next(pool.submit)
                measure_start = time.perf_counter()
                try:
                    results = executor.measure_batch(batch)
                except BaseException:
                    if future is not None:
                        # let the speculation finish, then undo it
                        future.exception()
                        self.__dict__.update(pickle.loads(rollback))
                    raise
                measure_s = time.perf_counter() - measure_start
                spec: Optional[_Speculation] = None
                if future is not None:
                    try:
                        spec = future.result()
                    except Exception:
                        logger.exception(
                            "%s: speculative proposal failed; proposing "
                            "from the real state",
                            self.name,
                        )
                adopted = spec is not None and spec.predicted == results
                if adopted:
                    new_records = spec.new_records
                    records.extend(new_records)
                    # already counted by _emit on the worker thread
                    for event in spec.absorb_events:
                        for sink in self._event_sinks:
                            sink(self, event)
                    self._pending_events.extend(spec.policy_events)
                    current = _PendingProposal(
                        batch=spec.next_batch,
                        proposal_s=spec.proposal_s,
                        exhausted=spec.exhausted,
                        captured=spec.captured,
                    )
                else:
                    if future is not None:
                        self.__dict__.update(pickle.loads(rollback))
                    new_records = self._absorb(results, records)
                if spec is not None:
                    self._emit(
                        SpeculationResolved(
                            step=len(records),
                            adopted=adopted,
                            overlap_s=min(measure_s, spec.wall_s),
                        )
                    )
                self._emit_fault_events(executor, step=len(records))
                self._emit(
                    BatchMeasured(
                        step=len(records),
                        results=tuple(results),
                        measure_s=measure_s,
                    )
                )
                for callback in callbacks:
                    callback(self, results)
                for record in new_records:
                    if stopper is not None and stopper.update(record.gflops):
                        stop = True
                        self._emit(
                            EarlyStopped(
                                step=record.step,
                                patience=stopper.patience,
                                best_gflops=self.best_gflops,
                            )
                        )
                        break
                batches_since_checkpoint += 1
                if (
                    policy is not None
                    and not stop
                    and len(records) < n_trial
                    and batches_since_checkpoint >= policy.every
                ):
                    self._save_checkpoint(
                        policy, records, stopper, n_trial, early_stopping,
                        initialized=True, callbacks=callbacks,
                        pending=self._pending_payload(current),
                    )
                    batches_since_checkpoint = 0
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
            # end-of-run notifications are best-effort: a broken sink or
            # callback must not mask the result (or the real exception)
            for sink in self._event_sinks:
                end = getattr(sink, "on_tune_end", None)
                if callable(end):
                    try:
                        end(self)
                    except Exception:
                        logger.exception(
                            "%s: on_tune_end failed for %r", self.name, sink
                        )
            for callback in callbacks:
                closer = getattr(callback, "close", None)
                if callable(closer):
                    try:
                        closer()
                    except Exception:
                        logger.exception(
                            "%s: close failed for %r", self.name, callback
                        )
            self._event_sinks = ()

        wall = time.perf_counter() - start
        return TuningResult(
            task_name=self.task.name,
            tuner_name=self.name,
            records=records,
            best_index=self.best_index,
            best_gflops=self.best_gflops,
            wall_time_s=wall,
        )

    def _initial_batch(self) -> List[int]:
        """The initialization batch: the arm's, warm-started, unvisited."""
        return self._filter_unvisited(
            self._inject_warm_start(self._generate_initial())
        )

    def propose_initial(self) -> None:
        """Propose the first batch now, for the next :meth:`tune` to consume.

        Runs what :meth:`tune` runs before its first dispatch — the
        arm's initial design, warm-start injection, the unvisited
        filter — on the calling thread, so a compile can prepare a task
        on the worker thread of the one before while the board measures
        that task's first batch.
        Policy events stay queued and hook notifications are captured;
        :meth:`tune` delivers both on its own thread, where proposing
        the batch would have fired them.  Touches no executor.
        """
        self._pending_events = []
        captured = hooks.capture_begin()
        start = time.perf_counter()
        try:
            batch = self._initial_batch()
        finally:
            hooks.capture_end(captured)
        # not exhausted: an empty initial batch ends the run quietly
        self._prepared = _PendingProposal(
            batch=batch,
            proposal_s=time.perf_counter() - start,
            exhausted=False,
            captured=captured,
            events=self._pending_events,
        )
        self._pending_events = []

    def _propose_next(self) -> List[int]:
        """Propose the next batch, never revisiting a measured config.

        Drops already-measured proposals and falls back to random
        unvisited configs when none remain; an empty list means the
        space is exhausted.  Policy events stay queued for the caller.
        """
        return self._filter_unvisited(
            self._generate_next()
        ) or self._random_unvisited(self.batch_size)

    def _resumable_state(self) -> dict:
        """The tuner attributes a checkpoint or a rollback restores."""
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in _EPHEMERAL_STATE
        }

    def _rollback_snapshot(self) -> Optional[bytes]:
        """The resumable state pickled, or ``None`` when it won't pickle.

        A tuner built around an unpicklable object (say, a lambda model
        factory) cannot be rolled back, so it measures without
        speculation — with a warning, since it loses the overlap.
        """
        try:
            return pickle.dumps(
                self._resumable_state(), protocol=pickle.HIGHEST_PROTOCOL
            )
        except (pickle.PicklingError, TypeError, AttributeError):
            logger.warning(
                "%s: tuner state does not pickle; measuring without "
                "speculation",
                self.name,
                exc_info=True,
            )
            return None

    def _speculate(
        self,
        spec_measurer: Measurer,
        records: List[TrialRecord],
        batch: List[int],
        ordinal: int,
        n_trial: int,
    ) -> _Speculation:
        """Worker-thread body: predict batch results, absorb, propose next.

        Runs on the live tuner while the driving thread measures
        ``batch``; that thread touches no tuner state until this
        returns.  The prediction comes from the speculation measurer
        resynced to the executor's pre-batch ordinal.  The event sinks
        and the policy-event queue are swapped for buffers, and hook
        notifications fired by the refits are captured (this thread has
        a capture active for its whole body), so nothing reaches an
        observer unless the driving thread adopts the speculation.
        """
        t0 = time.perf_counter()
        absorb_events: List[TuningEvent] = []
        sinks, queued = self._event_sinks, self._pending_events
        self._event_sinks = (
            lambda _tuner, event: absorb_events.append(event),
        )
        self._pending_events = []
        captured = hooks.capture_begin()
        try:
            spec_measurer.num_measurements = ordinal
            predicted = spec_measurer.measure_batch(batch)
            new_records = self._absorb(predicted, records)
            proposal_start = time.perf_counter()
            next_batch = self._propose_next()
            exhausted = not next_batch
            next_batch = next_batch[: n_trial - len(records)]
            proposal_s = time.perf_counter() - proposal_start
            policy_events = self._pending_events
        finally:
            hooks.capture_end(captured)
            self._event_sinks, self._pending_events = sinks, queued
        return _Speculation(
            predicted=predicted,
            new_records=new_records,
            absorb_events=absorb_events,
            policy_events=policy_events,
            next_batch=next_batch,
            exhausted=exhausted,
            captured=captured,
            proposal_s=proposal_s,
            wall_s=time.perf_counter() - t0,
        )

    def _pending_payload(
        self, current: Optional[_PendingProposal]
    ) -> Optional[dict]:
        """Checkpoint payload for a proposed-but-unconsumed batch.

        That is an adopted speculation's proposal, or the first batch
        :meth:`propose_initial` proposed ahead.  ``events`` carries the
        proposal's queued policy events: they are ephemeral on the tuner
        (cleared by :meth:`tune`), so a resumed run restores them from
        here before consuming the pending batch.
        """
        if current is None:
            return None
        return {
            "batch": list(current.batch),
            "proposal_s": current.proposal_s,
            "exhausted": current.exhausted,
            "captured": list(current.captured),
            "events": list(self._pending_events),
        }

    # ------------------------------------------------------------------
    # checkpoint / resume

    def snapshot(
        self,
        records: Sequence[TrialRecord] = (),
        stopper: Optional[EarlyStopper] = None,
        n_trial: int = 0,
        early_stopping: Optional[int] = None,
        initialized: bool = True,
        callbacks: Sequence[Callback] = (),
        pending: Optional[dict] = None,
    ) -> TuningCheckpoint:
        """Capture the resumable state of this tuner as a checkpoint.

        Everything a bit-identical continuation needs is included: the
        measured state, every RNG stream mid-position, subclass policy
        state (captured generically — all tuner attributes are plain
        picklable data), the trial records, the early-stopper counters,
        the measurement ordinal, and the state of any callbacks/event
        sinks implementing the optional ``state_dict`` protocol (see
        :mod:`repro.core.callbacks`).  The task environment and the
        executor are *not* serialized: both are pure functions of
        constructor arguments, so :meth:`resume` rebuilds them from the
        resuming tuner and validates identity via the task fingerprint.

        ``pending`` (speculating runs, and the step-0 snapshot of a run
        whose first batch was proposed ahead) is the proposed-but-
        unconsumed batch from :meth:`Tuner._pending_payload`; a resume
        consumes it first, whether or not the resuming tuner speculates.
        """
        payload_dict = {
            "tuner_state": self._resumable_state(),
            "measured_ordinal": self.executor.num_measurements,
            "records": list(records),
            "stopper": (
                None
                if stopper is None
                else (stopper._best, stopper._best_step, stopper._step)
            ),
            "callback_states": _observer_states(callbacks),
            "sink_states": _observer_states(self._event_sinks),
        }
        if pending is not None:
            # only speculative checkpoints carry the key, so payloads
            # without speculation stay byte-for-byte what they were
            payload_dict["pending"] = pending
        payload = pickle.dumps(payload_dict, protocol=pickle.HIGHEST_PROTOCOL)
        return TuningCheckpoint(
            tuner_name=self.name,
            task_fingerprint=self.task.fingerprint,
            seed=self.seed,
            step=len(records),
            n_trial=n_trial,
            early_stopping=early_stopping,
            initialized=initialized,
            payload=payload,
        )

    def resume(
        self,
        source: Union[str, Path, TuningCheckpoint],
        callbacks: Sequence[Callback] = (),
        on_event: Sequence[EventCallback] = (),
        checkpoint: CheckpointSpec = _UNSET,  # type: ignore[assignment]
        n_trial: Optional[int] = None,
        early_stopping: Union[Optional[int], object] = _UNSET,
    ) -> TuningResult:
        """Continue a checkpointed run as if it had never stopped.

        ``source`` is a checkpoint path (or a loaded
        :class:`TuningCheckpoint`); this tuner must have been
        constructed with the same task, seed, and arm as the one that
        wrote it (validated, :class:`CheckpointError` otherwise).
        ``n_trial``/``early_stopping`` default to the crashed run's
        values; ``checkpoint`` defaults to continuing snapshots at the
        source path, so a run that crashes repeatedly stays resumable.

        The continuation is bit-identical: the resumed result carries
        the full record log (restored prefix plus new measurements) and
        the same final incumbent as an uninterrupted run.  Whether the
        continuation speculates follows this tuner's ``executor=``, as in
        :meth:`tune`; a pending speculative proposal in the checkpoint is
        consumed either way.
        """
        if isinstance(source, TuningCheckpoint):
            ckpt = source
            default_spec: CheckpointSpec = None
            where = f"the {ckpt.tuner_name} checkpoint at step {ckpt.step}"
        else:
            ckpt = TuningCheckpoint.load(source)
            default_spec = source
            where = str(source)
        payload = self._restore_checkpoint(ckpt, where)
        _restore_observer_states(
            callbacks,
            payload.get("callback_states"),
            self.num_measured,
            seed_counts=True,
        )
        _restore_observer_states(
            on_event,
            payload.get("sink_states"),
            self.num_measured,
            seed_counts=False,
        )
        spec = default_spec if checkpoint is _UNSET else checkpoint
        return self.tune(
            n_trial=ckpt.n_trial if n_trial is None else n_trial,
            early_stopping=(
                ckpt.early_stopping
                if early_stopping is _UNSET
                else early_stopping  # type: ignore[arg-type]
            ),
            callbacks=callbacks,
            on_event=on_event,
            checkpoint=spec,
            _resume={
                "records": payload["records"],
                "stopper": payload["stopper"],
                "initialized": ckpt.initialized,
                "pending": payload.get("pending"),
            },
        )

    def _save_checkpoint(
        self,
        policy: CheckpointPolicy,
        records: Sequence[TrialRecord],
        stopper: Optional[EarlyStopper],
        n_trial: int,
        early_stopping: Optional[int],
        initialized: bool,
        callbacks: Sequence[Callback] = (),
        pending: Optional[dict] = None,
    ) -> None:
        ckpt = self.snapshot(
            records=records,
            stopper=stopper,
            n_trial=n_trial,
            early_stopping=early_stopping,
            initialized=initialized,
            callbacks=callbacks,
            pending=pending,
        )
        path = ckpt.save(policy.path)
        self._emit(CheckpointSaved(step=len(records), path=path))

    def _restore_checkpoint(self, ckpt: TuningCheckpoint, where: str) -> dict:
        """Swap this tuner's mutable state for the checkpointed state.

        ``where`` names the checkpoint in the :class:`CheckpointError`
        raised for a payload this build cannot unpickle (one naming a
        class or module that no longer exists, say).
        """
        mismatch = ckpt.matches(self)
        if mismatch is not None:
            raise CheckpointError(mismatch)
        try:
            payload = pickle.loads(ckpt.payload)
        except (AttributeError, ImportError) as exc:  # a missing name
            raise CheckpointError(
                f"{where} holds tuner state this build cannot load: {exc}"
            ) from exc
        for key, value in payload["tuner_state"].items():
            setattr(self, key, value)
        self._prepared = None  # the checkpoint's own state supersedes it
        ordinal = int(payload["measured_ordinal"])
        self.measurer.num_measurements = ordinal
        self.executor.sync_ordinal(ordinal)
        return payload

    @staticmethod
    def _restore_stopper(
        early_stopping: Optional[int], saved: Optional[tuple]
    ) -> Optional[EarlyStopper]:
        if early_stopping is None:
            return None
        stopper = EarlyStopper(early_stopping)
        if saved is not None:
            stopper._best, stopper._best_step, stopper._step = saved
        return stopper

    def _absorb(
        self, results: List[MeasureResult], records: List[TrialRecord]
    ) -> List[TrialRecord]:
        """Fold measurement results into tuner state; returns new records."""
        new_records = []
        batch_indices = np.fromiter(
            (r.config_index for r in results),
            dtype=np.int64,
            count=len(results),
        )
        self._features.extend(batch_indices)
        self._visited_sorted = np.union1d(
            self._visited_sorted, batch_indices
        )
        for result in results:
            idx = result.config_index
            self.visited.add(idx)
            self.measured_indices.append(idx)
            self.measured_scores.append(result.gflops)
            if result.gflops > self.best_gflops:
                self._emit(
                    IncumbentImproved(
                        step=len(records) + 1,
                        config_index=idx,
                        gflops=result.gflops,
                        previous_gflops=self.best_gflops,
                    )
                )
                self.best_gflops = result.gflops
                self.best_index = idx
            record = TrialRecord(
                step=len(records) + 1,
                config_index=idx,
                gflops=result.gflops,
                error=result.error_msg if not result.ok else "",
            )
            records.append(record)
            new_records.append(record)
        return new_records
