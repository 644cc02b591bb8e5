"""Stock event sinks: progress logging, record logging, a progress bar.

Pass them in :meth:`Tuner.tune`'s ``on_event`` list, like any other
sink.  Each acts on :class:`~repro.core.events.BatchMeasured` alone,
reading the batch's measurement results from ``event.results``: progress
logging, record logging to a :class:`~repro.pipeline.records.RecordStore`,
and a measurement-budget progress bar string for interactive use.

Sinks may additionally implement an optional *state protocol*:

* ``state_dict() -> dict`` / ``load_state_dict(dict)`` — the sink's
  resumable state.  :meth:`Tuner.snapshot` captures it into tuning
  checkpoints and :meth:`Tuner.resume` restores it into the sink at the
  same position of the resuming call's ``on_event`` list, so counters
  and elapsed clocks continue instead of restarting at zero.
* ``on_tune_begin(tuner, ...)`` / ``on_tune_end(tuner)`` — called as
  :meth:`Tuner.tune` starts and (from its ``finally`` block) as it ends,
  e.g. for the progress bar's terminal newline.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.core.events import TuningEvent
from repro.pipeline.records import RecordStore, TuningRecord
from repro.utils.log import get_logger

logger = get_logger("core.callbacks")


class LogProgress:
    """Log best-so-far GFLOPS every ``interval`` measurements.

    A batch may span several interval boundaries (a large batch, or a
    small interval); one line is emitted per boundary crossed, so the total
    number of lines after ``n`` measurements is always
    ``n // interval`` regardless of batch sizing.
    """

    def __init__(self, interval: int = 64):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._count = 0
        self._started = time.perf_counter()

    def __call__(self, tuner, event: TuningEvent) -> None:
        if event.kind != "batch_measured":
            return
        previous = self._count
        self._count += len(event.results)
        first = previous // self.interval + 1
        last = self._count // self.interval
        if last < first:
            return
        elapsed = time.perf_counter() - self._started
        for boundary in range(first, last + 1):
            logger.info(
                "[%s] %d measurements, best %.1f GFLOPS, %.1fs elapsed",
                tuner.name,
                boundary * self.interval,
                tuner.best_gflops,
                elapsed,
            )

    def state_dict(self) -> dict:
        """Resumable state: the count and the elapsed wall clock."""
        return {
            "count": self._count,
            "elapsed_s": time.perf_counter() - self._started,
        }

    def load_state_dict(self, state: dict) -> None:
        """Continue counting (and timing) from a checkpointed state."""
        self._count = int(state["count"])
        self._started = time.perf_counter() - float(
            state.get("elapsed_s", 0.0)
        )


class RecordToStore:
    """Append every measurement to a :class:`RecordStore`."""

    def __init__(self, store: RecordStore):
        self.store = store

    def __call__(self, tuner, event: TuningEvent) -> None:
        if event.kind != "batch_measured":
            return
        for result in event.results:
            self.store.add(
                TuningRecord(
                    workload=tuner.task.workload,
                    config_index=result.config_index,
                    gflops=result.gflops,
                    tuner_name=tuner.name,
                    error="" if result.ok else result.error_msg,
                )
            )


class ProgressBar:
    """Single-line text progress bar over the measurement budget.

    The terminating newline is written when the budget fills *or* from
    :meth:`on_tune_end` (called by ``Tuner.tune``'s ``finally`` block),
    so an early-stopped or space-exhausted run does not leave the shell
    prompt glued to the bar.
    """

    def __init__(
        self,
        total: int,
        width: int = 40,
        stream: Optional[TextIO] = None,
    ):
        if total <= 0:
            raise ValueError("total must be positive")
        self.total = total
        self.width = width
        self.stream = stream if stream is not None else sys.stderr
        self._count = 0
        self._line_open = False

    def render(self) -> str:
        """The bar string for the current state."""
        frac = min(1.0, self._count / self.total)
        filled = int(round(frac * self.width))
        bar = "#" * filled + "-" * (self.width - filled)
        return f"[{bar}] {self._count}/{self.total}"

    def __call__(self, tuner, event: TuningEvent) -> None:
        if event.kind != "batch_measured":
            return
        self._count += len(event.results)
        self.stream.write(
            f"\r{self.render()} best={tuner.best_gflops:.1f} GFLOPS"
        )
        self._line_open = True
        if self._count >= self.total:
            self.stream.write("\n")
            self._line_open = False
        self.stream.flush()

    def on_tune_end(self, tuner) -> None:
        """Terminate the bar line if it is still open (idempotent)."""
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    def state_dict(self) -> dict:
        """Resumable state: the measurement count."""
        return {"count": self._count}

    def load_state_dict(self, state: dict) -> None:
        """Continue the bar from a checkpointed count."""
        self._count = int(state["count"])
