"""Suite-wide policy: every test here is required, so a skip fails the run."""

import pytest


def _skipped(config):
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    return len(reporter.stats.get("skipped", [])) if reporter else 0


def pytest_sessionfinish(session, exitstatus):
    if _skipped(session.config) and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    skipped = _skipped(config)
    if skipped:
        terminalreporter.write_sep(
            "=", f"{skipped} skipped: every test in this suite is required", red=True)
