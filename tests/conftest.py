"""Reports, at the end of a run, how test_batch compared batch rollouts with
scalar ones: exactly, or within its stated tolerance."""


def pytest_terminal_summary(terminalreporter):
    from test_batch import COMPARISON
    terminalreporter.write_line(f"batch rollouts against scalar rollouts: {COMPARISON}")
