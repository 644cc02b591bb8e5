"""Tests for repro.utils.log."""

import io
import logging
import sys

from repro.utils.log import enable_console_logging, get_logger


class TestGetLogger:
    def test_namespace(self):
        assert get_logger("core.bao").name == "repro.core.bao"

    def test_already_qualified(self):
        assert get_logger("repro.space").name == "repro.space"

    def test_root(self):
        assert get_logger().name == "repro"
        assert get_logger("repro").name == "repro"

    def test_null_handler_installed(self):
        root = get_logger()
        assert any(
            isinstance(h, logging.NullHandler) for h in root.handlers
        )


class TestEnableConsoleLogging:
    def test_idempotent(self):
        enable_console_logging()
        root = get_logger()
        stream_handlers = [
            h
            for h in root.handlers
            if isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
        ]
        count_before = len(stream_handlers)
        enable_console_logging()
        stream_handlers = [
            h
            for h in root.handlers
            if isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
        ]
        assert len(stream_handlers) == count_before

    def test_sets_level(self):
        enable_console_logging(logging.WARNING)
        # level change only happens on first attach; verify the logger
        # has *a* concrete level configured
        assert get_logger().level != logging.NOTSET

    def test_writes_to_the_current_stderr(self, monkeypatch):
        # a handler bound to the stderr of its first call fails once
        # that stream is swapped out and closed
        root = get_logger()
        saved = list(root.handlers), root.level
        for handler in saved[0]:
            if type(handler) is not logging.NullHandler:
                root.removeHandler(handler)
        try:
            first = io.StringIO()
            monkeypatch.setattr(sys, "stderr", first)
            enable_console_logging()
            first.close()
            second = io.StringIO()
            monkeypatch.setattr(sys, "stderr", second)
            get_logger("utils.log-test").warning("after the swap")
        finally:
            root.handlers[:] = saved[0]
            root.setLevel(saved[1])
        assert "after the swap" in second.getvalue()
        assert "--- Logging error ---" not in second.getvalue()
