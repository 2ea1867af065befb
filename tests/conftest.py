import os

import pytest

from riplab import linalg, reduction


@pytest.fixture
def set_blas_threads():
    """OpenBLAS's own thread-count setter, which raises the count even under
    OPENBLAS_NUM_THREADS=1; the count in force before the test is restored
    after it.  Skips the test where no OpenBLAS library is found."""
    calls = linalg._openblas()
    if calls is None:
        pytest.skip("no OpenBLAS library found")
    set_threads, get_threads, _ = calls
    before = get_threads()
    yield set_threads
    set_threads(before)


@pytest.fixture
def split_trials(monkeypatch):
    """Call with True to make every experiment split its trials over two
    processes, whatever their work and this host's cores, and with False to
    keep every experiment serial.  Each test that uses it checks at its end
    that no forked worker outlives it."""
    def split(on):
        if on and not linalg.blas_info()["one_thread"]:
            pytest.skip("OpenBLAS cannot be pinned to one thread here, so trials never split")
        monkeypatch.setattr(reduction, "_SPLIT_WORK", 0 if on else float("inf"))
        monkeypatch.setattr(reduction.os, "sched_getaffinity", lambda pid: {0, 1})

    yield split
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
