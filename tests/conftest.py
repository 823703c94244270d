"""Test-session plumbing: one pass/fail line per acceptance criterion."""


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
