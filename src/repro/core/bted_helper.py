"""The BTED design helper process: ``python -m repro.core.bted_helper``.

Writes :data:`~repro.core.bted.READY` once imported, then reads pickled
``(space, settings, seed)`` requests on stdin and writes, for each, the
pickled ``(True, design)`` of :func:`~repro.core.bted.bted_select` or
``(False, exception)``; exits when stdin closes.
:class:`~repro.core.bted.DesignHelper` starts it and talks to it.
Nothing imports this module, so ``-m`` runs its only copy.
"""

from __future__ import annotations

import pickle
import signal
import sys

from repro.core.bted import READY, bted_select


def main() -> None:
    """Answer design requests until stdin closes."""
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt a reply
    # Ctrl-C reaches the whole process group; the compile stops this
    # process itself
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        replies.write(READY)
        replies.flush()
    except BrokenPipeError:  # the compile is gone
        return
    while True:
        try:
            space, settings, seed = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = (True, bted_select(space, seed=seed, **settings))
        except Exception as exc:  # noqa: BLE001 - raised by the caller
            reply = (False, exc)
        try:
            pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
            replies.flush()
        except BrokenPipeError:  # the compile is gone
            return


if __name__ == "__main__":
    main()
