"""Test-session plumbing: no test leaves a child process behind, and one
pass/fail line per acceptance criterion."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test the session has no child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
