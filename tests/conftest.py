"""Shared test helpers and the acceptance-criteria summary hook."""
import numpy as np
import pytest

from hetcontour import integrate as hi

ACCEPTANCE_RESULTS = {}


def record_criterion(number, passed, detail):
    """Register an acceptance-criterion outcome for the summary report."""
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[n]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {n:2d}: {status} - {detail}")


@pytest.fixture
def watch_ends(monkeypatch):
    """The sample times at which ``integrate`` calls a watch's check."""
    ends = []
    integrate = hi.integrate

    def watched(*args, watch=None, **kwargs):
        if watch is not None:
            window, check = watch
            watch = (window,
                     lambda run: ends.append(float(run.t[-1])) or check(run))
        return integrate(*args, watch=watch, **kwargs)
    monkeypatch.setattr(hi, "integrate", watched)
    return ends


@pytest.fixture(scope="session")
def rng():
    return np.random.RandomState(20260823)
