"""Thread-local observability hook bus.

Deep subsystems (the bootstrap ensemble's refit, the gradient-boosted
trees) have timing and counters worth exporting, but they sit far
below the tuning loop and must not import the observer — and the
observer must not import them.  This module is the seam: one list of
registered hook callables per instrumentation point named in
:data:`POINTS`, and four functions keyed by that name —
:func:`add_hook`, :func:`remove_hook`, :func:`notify` and
:func:`hooks_active`.  Call sites pay one lookup when nothing is
registered, so observability off is effectively free on the hot paths.

:class:`~repro.obs.observer.TuningObserver` registers its hooks in
``on_tune_begin`` and removes them in ``on_tune_end``; nothing else in
the repository mutates this registry.  The registry is **thread-local**
(and therefore also process-local): a tuning run registers and fires
its hooks on the thread that drives it, so concurrent runs — parallel
experiment cells in separate processes, or fleet workers tuning
different tasks on threads of one process — each observe exactly their
own run, which is the per-run scoping the summaries want and what
keeps fleet-mode summaries bit-identical to serial ones.

This module intentionally imports nothing from :mod:`repro` so that any
layer may depend on it without cycles.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List

#: the instrumentation points and the arguments each one notifies with:
#:
#: * ``refit`` ``(rows, duration_s, kind)`` — a surrogate-model refit
#:   completed (``BootstrapEnsemble.fit``)
#: * ``refit_reuse`` ``(reused_trees,)`` — an incremental refit reused
#:   previously grown trees (``GradientBoostedTrees``)
POINTS = ("refit", "refit_reuse")

_LOCAL = threading.local()


def _hooks(point: str) -> List[Callable]:
    """This thread's hook list for one instrumentation point."""
    table: Dict[str, List[Callable]] = getattr(_LOCAL, "hooks", None)
    if table is None:
        table = _LOCAL.hooks = {name: [] for name in POINTS}
    try:
        return table[point]
    except KeyError:
        raise ValueError(
            f"unknown hook point {point!r}; expected one of {POINTS}"
        ) from None


def _capture_buffer():
    """This thread's active capture buffer, or ``None``."""
    return getattr(_LOCAL, "capture", None)


def capture_begin() -> list:
    """Start buffering this thread's notifications instead of delivering.

    Used by the tuner's speculation step: a speculative proposal runs
    its refits on a worker thread, and the notifications they would
    fire must be (a) recorded even though no hooks are registered on
    that thread, and (b) delivered exactly once — on the driving thread
    if the speculation is adopted, never if it is rolled back.  Returns
    the buffer to pass to :func:`capture_end` / :func:`replay_captured`.
    Nested captures are not supported.
    """
    if _capture_buffer() is not None:
        raise RuntimeError("hook capture is already active on this thread")
    buffer: list = []
    _LOCAL.capture = buffer
    return buffer


def capture_end(buffer: list) -> None:
    """Stop capturing on this thread (pairs with :func:`capture_begin`)."""
    if _capture_buffer() is not buffer:
        raise RuntimeError("mismatched hook capture_end")
    _LOCAL.capture = None


def replay_captured(buffer: list) -> None:
    """Deliver captured notifications to this thread's hooks, in order."""
    for point, args in buffer:
        for hook in tuple(_hooks(point)):
            hook(*args)


def add_hook(point: str, hook: Callable) -> None:
    """Subscribe ``hook`` to one instrumentation point."""
    _hooks(point).append(hook)


def remove_hook(point: str, hook: Callable) -> None:
    """Unsubscribe ``hook`` from a point (no-op when absent)."""
    hooks = _hooks(point)
    if hook in hooks:
        hooks.remove(hook)


def notify(point: str, *args) -> None:
    """Report one occurrence at ``point`` to this thread's hooks."""
    hooks = _hooks(point)
    buffer = _capture_buffer()
    if buffer is not None:
        buffer.append((point, args))
        return
    for hook in tuple(hooks):
        hook(*args)


def hooks_active(point: str) -> bool:
    """True when a hook is registered for ``point`` on this thread.

    Lets instrumented call sites skip even the ``perf_counter`` pair
    when nobody is listening.  Also true while a capture is active, so
    speculative proposals record the same notifications an observed
    serial proposal would fire.
    """
    return bool(_hooks(point)) or _capture_buffer() is not None
