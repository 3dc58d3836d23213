import sys
import threading
import time
from concurrent.futures import Future

import pytest


@pytest.fixture
def spin_ratio():
    """``ratio(work)``: how much of its pace a spinning main thread keeps beside ``work``.

    The main thread's loop rate while ``work`` runs in a worker thread, over
    its rate during a ``time.sleep`` of the same length.  A call that holds
    the GIL leaves the spinner a few percent; one that releases it, most of
    its rate on a second CPU.  The interpreter's switch interval is 0.1 ms
    while it measures: at the default 5 ms a holder of a few milliseconds
    (``slogdet`` at dim 301 takes 3 ms) still left the spinner about half
    its rate, between calls.
    """
    def spin_rate(work):
        """Main-thread loop iterations per second while ``work`` runs in a thread."""
        worker = threading.Thread(target=work)
        count, t0 = 0, time.perf_counter()
        worker.start()
        while worker.is_alive():
            count += 1
        rate = count / (time.perf_counter() - t0)
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        return rate

    def ratio(work):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            t0 = time.perf_counter()
            busy = spin_rate(work)
            elapsed = time.perf_counter() - t0
            return busy / spin_rate(lambda: time.sleep(elapsed))
        finally:
            sys.setswitchinterval(interval)

    return ratio


@pytest.fixture
def published():
    """``published(value)``: a future that already holds ``value``.

    A run's set-up hands its quadrature's values to the pool tasks through
    such a future (``harness._Setup.classical``); a test that calls a task
    directly gives it one that is already done.
    """
    def publish(value):
        future = Future()
        future.set_result(value)
        return future

    return publish
