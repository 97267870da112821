"""Imports myoarm before any test module imports NumPy, so the test process
runs NumPy with the one BLAS thread that myoarm fixes; reports, at the end
of a run, how test_batch compared batch rollouts with scalar ones: exactly,
or within its stated tolerance."""

import myoarm  # noqa: F401


def pytest_terminal_summary(terminalreporter):
    from test_batch import COMPARISON
    terminalreporter.write_line(f"batch rollouts against scalar rollouts: {COMPARISON}")
