"""Imports myoarm before any test module imports NumPy, so the test process
runs NumPy with the one BLAS thread that myoarm fixes; reports, at the end
of a run, how test_batch compared batch rollouts with scalar ones: exactly,
or within its stated tolerance. If test_batch cannot be imported, the
report says so in one line, and pytest's own summary still ends the run."""

import myoarm  # noqa: F401


def pytest_terminal_summary(terminalreporter):
    try:
        from test_batch import COMPARISON
    except Exception as exc:      # pytest reports the module's error itself
        COMPARISON = f"did not run (test_batch failed to import: {type(exc).__name__})"
    terminalreporter.write_line(f"batch rollouts against scalar rollouts: {COMPARISON}")
