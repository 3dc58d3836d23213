import threading
import time

import pytest


@pytest.fixture
def spin_ratio():
    """``ratio(work)``: how much of its pace a spinning main thread keeps beside ``work``.

    The main thread's loop rate while ``work`` runs in a worker thread, over
    its rate during a ``time.sleep`` of the same length.  A call that holds
    the GIL leaves the spinner a few percent; one that releases it, most of
    its rate on a second CPU.
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
        t0 = time.perf_counter()
        busy = spin_rate(work)
        elapsed = time.perf_counter() - t0
        return busy / spin_rate(lambda: time.sleep(elapsed))

    return ratio
