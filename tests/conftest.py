"""Test-session plumbing: one pass/fail line per acceptance criterion, and
the ``pmltk`` logger's handlers reset after every test."""

import logging

import pytest


@pytest.fixture(autouse=True)
def _restore_pmltk_log_handlers():
    """``pmltk.cli.main`` adds a stderr handler to the ``pmltk`` logger for
    the rest of the process; every test starts from the library's own."""
    log = logging.getLogger("pmltk")
    saved = list(log.handlers)
    yield
    log.handlers[:] = saved


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    rows = {}
    for outcome in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(outcome, ()):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion" not in nodeid:
                continue
            when = getattr(rep, "when", "call")
            if when == "call" or (when == "setup" and outcome in ("skipped", "error")):
                rows[nodeid.split("::", 1)[1]] = outcome.upper()
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(f"{rows[name]:<8} {name}")
