"""A per-test time limit, so that a fault sending a check down an exponential
path fails the test that took it instead of hanging the whole suite."""

import signal

import pytest

# The slowest test takes about 1.5 s on a 2-vCPU VM (pytest --durations); a
# slow CI runner gets a wide margin.
TIME_LIMIT_S = 30


class TimeLimitExceeded(BaseException):
    """Raised in the main thread at the limit.  Not an Exception, so neither
    the test nor hypothesis catches it and retries the slow example."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran past its {TIME_LIMIT_S} s limit")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarms on Windows
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
