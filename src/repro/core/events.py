"""Structured tuning events.

The tuning loop used to be observable only through print-debugging or
by re-deriving state from trial records.  Instead, :meth:`Tuner.tune`
emits typed :class:`TuningEvent` objects through its ``on_event``
callbacks at every decision point: a batch proposed, a batch measured,
the incumbent improved, BAO widening its search scope (the ``r_t``
rule of Alg. 4), early stopping firing, or the space running dry.

Event consumers are callables ``(tuner, event) -> None``; the
:class:`EventLog` collector is the one most tests and analyses need.
``step`` on every event is the number of configurations measured when
the event fired, i.e. the x-coordinate on the paper's Fig. 4 axis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Type, TypeVar

from repro.hardware.measure import MeasureResult

#: word boundaries of a CamelCase name: lower/digit->upper transitions
#: plus the last capital of an acronym run (``BAOScope`` -> ``BAO|Scope``)
_CAMEL_BOUNDARY = re.compile(
    r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])"
)

#: per-class snake-case names; ``kind`` is read in every hot
#: event-consumer loop, so it must not re-derive the name per access
_KIND_CACHE: Dict[type, str] = {}


def _snake_case(name: str) -> str:
    """CamelCase -> snake_case, keeping acronym runs as one word."""
    return _CAMEL_BOUNDARY.sub("_", name).lower()


@dataclass(frozen=True)
class TuningEvent:
    """Base class of all events; ``step`` = measurements completed."""

    step: int

    @property
    def kind(self) -> str:
        """Event type as a lowercase name (``"batch_proposed"`` etc.).

        Computed once per class and cached: acronym runs collapse to a
        single word (``BAOScopeWidened`` -> ``bao_scope_widened``), not
        one underscore per capital.
        """
        cls = type(self)
        kind = _KIND_CACHE.get(cls)
        if kind is None:
            kind = _KIND_CACHE[cls] = _snake_case(cls.__name__)
        return kind


@dataclass(frozen=True)
class BatchProposed(TuningEvent):
    """The search policy committed to measuring these configurations."""

    config_indices: Tuple[int, ...]
    #: wall-clock seconds the policy spent generating this proposal
    #: (BTED/TED selection, ensemble refit, neighborhood scoring)
    proposal_s: float = 0.0


@dataclass(frozen=True)
class BatchMeasured(TuningEvent):
    """A proposed batch came back from the measurement executor."""

    results: Tuple[MeasureResult, ...]
    #: wall-clock seconds the executor spent deploying the batch
    measure_s: float = 0.0

    @property
    def num_ok(self) -> int:
        """How many measurements in the batch succeeded."""
        return sum(1 for r in self.results if r.ok)


@dataclass(frozen=True)
class IncumbentImproved(TuningEvent):
    """A measurement beat the best-so-far configuration."""

    config_index: int
    gflops: float
    previous_gflops: float


@dataclass(frozen=True)
class ScopeWidened(TuningEvent):
    """BAO's ``r_t < eta`` rule widened the neighborhood radius."""

    radius: float
    base_radius: float
    stagnation: int


@dataclass(frozen=True)
class EarlyStopped(TuningEvent):
    """The no-improvement window expired and the loop stopped."""

    patience: int
    best_gflops: float


@dataclass(frozen=True)
class SpaceExhausted(TuningEvent):
    """Every configuration in the space has been measured."""


@dataclass(frozen=True)
class MeasurementRetried(TuningEvent):
    """Transient faults hit a measurement, but a retry recovered it."""

    config_index: int
    ordinal: int
    #: attempts made in total, including the one that succeeded
    attempts: int
    #: fault kind names of the failed attempts, in order
    faults: Tuple[str, ...]
    backoff_s: float


@dataclass(frozen=True)
class MeasurementFailed(TuningEvent):
    """Retries ran out; the config was recorded as an error, not raised."""

    config_index: int
    ordinal: int
    attempts: int
    #: fault kind name of the final failed attempt
    fault: str


@dataclass(frozen=True)
class CheckpointSaved(TuningEvent):
    """The tuning loop snapshotted its resumable state to disk."""

    path: str


@dataclass(frozen=True)
class TuningResumed(TuningEvent):
    """The loop picked up from a checkpoint instead of a fresh start."""

    #: measurements already absorbed when the run resumed
    restored_records: int


@dataclass(frozen=True)
class WarmStarted(TuningEvent):
    """Prior tuning-log configs were injected into the initial batch."""

    #: configs from the warm-start plan that made it into the batch
    injected: int
    #: ``"exact"`` or ``"similar"`` — provenance of the top source
    source: str
    #: prior samples available for cost-model pretraining
    history_samples: int = 0
    #: source segments measured on another device class
    cross_sources: int = 0


@dataclass(frozen=True)
class ExploitStepped(TuningEvent):
    """The coordinate-descent exploit policy swept the incumbent's axes."""

    #: config index the sweep is centered on
    center: int
    #: current line-search step length (doubles when an axis dries up)
    step_size: int
    #: random restarts taken so far (sweep exhausted around a center)
    restarts: int


@dataclass(frozen=True)
class CandidatesPruned(TuningEvent):
    """Adaptive sampling dropped near-duplicate proposals before measuring."""

    #: configs the search policy originally proposed
    proposed: int
    #: configs that survived the k-center pruning
    kept: int

    @property
    def dropped(self) -> int:
        return self.proposed - self.kept


@dataclass(frozen=True)
class FinishPhaseStarted(TuningEvent):
    """A two-phase arm handed the search over to its finishing policy."""

    #: registry-style name of the finishing policy (``"droplet"``)
    policy: str
    #: exploration-policy stagnation count when the handoff fired
    stagnation: int = 0


@dataclass(frozen=True)
class TlogExactHit(TuningEvent):
    """The tuning log served this task without a single measurement."""

    #: signature key of the matching segment
    signature_key: str
    #: records replayed from the log
    records: int
    best_gflops: float = 0.0


@dataclass(frozen=True)
class SpeculationResolved(TuningEvent):
    """The tuning loop resolved one speculative proposal.

    Emitted only by a tuner handed an ``executor=`` (the tuners that
    speculate), after the concurrent measurement lands:
    ``adopted=True`` means the speculation's predicted results matched
    the real ones bit-for-bit and the state and proposal it left on
    the tuner were kept; ``adopted=False`` means the pre-dispatch
    snapshot was restored and the loop proposed from the real results.
    Filtered out when comparing runs with speculation on and off (it is
    the only event they don't share).
    """

    adopted: bool = True
    #: proposal seconds hidden behind the concurrent measurement
    overlap_s: float = 0.0


#: the ``on_event`` callback signature
EventCallback = Callable[[object, TuningEvent], None]

E = TypeVar("E", bound=TuningEvent)


class EventLog:
    """Event callback that records everything it sees, in order.

    >>> log = EventLog()
    >>> tuner.tune(n_trial=64, on_event=[log])       # doctest: +SKIP
    >>> log.of_type(IncumbentImproved)               # doctest: +SKIP
    """

    def __init__(self) -> None:
        self.events: List[TuningEvent] = []

    def __call__(self, tuner: object, event: TuningEvent) -> None:
        """Record one event."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, event_type: Type[E]) -> List[E]:
        """All recorded events of one type, in emission order."""
        return [e for e in self.events if isinstance(e, event_type)]
