"""Suite-wide policy: every test here is required, so a skip fails the run.
Also holds the scenario fixtures that more than one test module runs."""

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


@pytest.fixture
def traps():
    """Seed 4 of this field walls off the corridor with overlapping critical
    zones spanning the whole water column: the vertical escape descends to
    the depth limit and the run ends trapped."""
    return {
        "schema_version": 1,
        "name": "boxed-in",
        "mode": "advanced",
        "start": [10, 70, 0],
        "goal": [90, 10, 0],
        "max_steps": 1500,
        "seed": 4,
        "random_obstacles": {"count": 30, "radius": [0.5, 7.0],
                             "depth": [0.0, 30.0]},
    }
