"""Library-wide logging setup.

The library logs under the ``repro`` namespace and never configures the
root logger; applications decide where output goes.  ``get_logger``
attaches a single NullHandler-protected stream formatter the first time
it is called so that examples and the experiment harness produce
readable progress lines out of the box.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_configured = False


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return a logger in the ``repro`` hierarchy.

    ``get_logger("core.bao")`` returns the ``repro.core.bao`` logger.
    The first call installs a NullHandler on the package root so that
    importing the library never prints anything unless the application
    opts in (e.g. via :func:`enable_console_logging`).
    """
    global _configured
    root = logging.getLogger("repro")
    if not _configured:
        root.addHandler(logging.NullHandler())
        _configured = True
    if not name or name == "repro":
        return root
    if name.startswith("repro."):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


class _StderrHandler(logging.StreamHandler):
    """A stream handler bound to whatever ``sys.stderr`` is at emit time.

    A handler that kept the stream of its creation would write into a
    closed file once a caller (a test harness, an embedding
    application) swaps ``sys.stderr`` out and closes the old one.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def enable_console_logging(level: int = logging.INFO) -> None:
    """Attach a stderr handler to the ``repro`` logger (idempotent)."""
    root = get_logger()
    for handler in root.handlers:
        if isinstance(handler, logging.StreamHandler) and not isinstance(
            handler, logging.NullHandler
        ):
            root.setLevel(level)
            return
    handler = _StderrHandler()
    handler.setFormatter(logging.Formatter(_FORMAT))
    root.addHandler(handler)
    root.setLevel(level)
