"""Thread-local observability hook bus.

Deep subsystems (the bootstrap ensemble's refit, the measurement
executors) have timing and counters worth exporting, but they sit far
below the tuning loop and must not import the observer — and the
observer must not import them.  This module is the seam: it holds
lists of registered hook callables and a ``notify_*`` function per
instrumentation point.  Call sites pay one truthiness check when
nothing is registered, so observability off is effectively free on
the hot paths.

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
from typing import Callable, List

#: ``(rows, duration_s, kind)`` — a surrogate-model refit completed
RefitHook = Callable[[int, float, str], None]
#: ``(backend, n_configs, duration_s)`` — an executor deployed a batch
MeasureHook = Callable[[str, int, float], None]

#: ``(reused_trees,)`` — an incremental refit reused previously-grown trees
RefitReuseHook = Callable[[int], None]

_LOCAL = threading.local()


def _hooks(name: str) -> List[Callable]:
    """This thread's hook list for one instrumentation point."""
    hooks = getattr(_LOCAL, name, None)
    if hooks is None:
        hooks = []
        setattr(_LOCAL, name, hooks)
    return hooks


def _capture_buffer():
    """This thread's active capture buffer, or ``None``."""
    return getattr(_LOCAL, "capture", None)


def capture_begin() -> list:
    """Start buffering this thread's notifications instead of delivering.

    Used by the tuner's speculation step: a speculative proposal runs
    its refits on a worker thread, and the notifications they would
    fire must be (a) recorded even though no hooks are registered on
    that thread, and (b) delivered exactly once — on the driving thread
    if the speculation is adopted, never if it is rolled back.  Returns the buffer to pass to :func:`capture_end` /
    :func:`replay_captured`.  Nested captures are not supported.
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
    for name, args in buffer:
        for hook in tuple(_hooks(name)):
            hook(*args)


def add_refit_hook(hook: RefitHook) -> None:
    """Subscribe to surrogate-model refit completions."""
    _hooks("refit").append(hook)


def remove_refit_hook(hook: RefitHook) -> None:
    """Unsubscribe a refit hook (no-op when absent)."""
    hooks = _hooks("refit")
    if hook in hooks:
        hooks.remove(hook)


def notify_refit(rows: int, duration_s: float, kind: str = "ensemble") -> None:
    """Report one completed refit of ``rows`` training rows."""
    buffer = _capture_buffer()
    if buffer is not None:
        buffer.append(("refit", (rows, duration_s, kind)))
        return
    for hook in tuple(_hooks("refit")):
        hook(rows, duration_s, kind)


def refit_hooks_active() -> bool:
    """True when at least one refit hook is registered on this thread.

    Lets instrumented call sites skip even the ``perf_counter`` pair
    when nobody is listening.  Also true while a capture is active, so
    speculative proposals record the same notifications an observed
    serial proposal would fire.
    """
    return bool(_hooks("refit")) or _capture_buffer() is not None


def add_measure_hook(hook: MeasureHook) -> None:
    """Subscribe to executor batch deployments."""
    _hooks("measure").append(hook)


def remove_measure_hook(hook: MeasureHook) -> None:
    """Unsubscribe a measure hook (no-op when absent)."""
    hooks = _hooks("measure")
    if hook in hooks:
        hooks.remove(hook)


def notify_measure(backend: str, n_configs: int, duration_s: float) -> None:
    """Report one deployed batch from executor ``backend``."""
    buffer = _capture_buffer()
    if buffer is not None:
        buffer.append(("measure", (backend, n_configs, duration_s)))
        return
    for hook in tuple(_hooks("measure")):
        hook(backend, n_configs, duration_s)


def measure_hooks_active() -> bool:
    """True when at least one measure hook is registered on this thread."""
    return bool(_hooks("measure")) or _capture_buffer() is not None


def add_refit_reuse_hook(hook: RefitReuseHook) -> None:
    """Subscribe to incremental-refit tree reuse reports."""
    _hooks("refit_reuse").append(hook)


def remove_refit_reuse_hook(hook: RefitReuseHook) -> None:
    """Unsubscribe a refit-reuse hook (no-op when absent)."""
    hooks = _hooks("refit_reuse")
    if hook in hooks:
        hooks.remove(hook)


def notify_refit_reuse(reused_trees: int) -> None:
    """Report trees carried over by one warm-started (incremental) refit."""
    buffer = _capture_buffer()
    if buffer is not None:
        buffer.append(("refit_reuse", (reused_trees,)))
        return
    for hook in tuple(_hooks("refit_reuse")):
        hook(reused_trees)


def refit_reuse_hooks_active() -> bool:
    """True when a refit-reuse hook is registered (or capture is on)."""
    return bool(_hooks("refit_reuse")) or _capture_buffer() is not None
