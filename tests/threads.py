"""Helpers for tests of autodiff.second_thread and its users (row_threads,
train.train_step): numpy's BLAS thread control, real or faked, the
host's cores, and a record of the row worker's jobs."""

import contextlib
import threading

import pytest

from stemsep import autodiff as ad


def two_cores(monkeypatch):
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


# hosts on which second_thread gives no worker: (BLAS threads, None for
# no thread control as with MKL or Accelerate; cores)
ONE_THREAD_HOSTS = {"no BLAS control": (None, 2), "1 BLAS thread": (1, 2), "1 core": (2, 1)}


def fake_host(monkeypatch, threads=2, cores=2):
    """Fake what second_thread reads of the host: numpy's BLAS thread
    control, as a list of thread counts with the last one current, at
    `threads` threads (None: no control), and `cores` cores to run on.
    Returns the list."""
    counts = [threads or 2]
    control = None if threads is None else (lambda: counts[-1], counts.append)
    monkeypatch.setattr(ad, "_blas_threads", lambda: control)
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    return counts


@contextlib.contextmanager
def two_blas_threads(monkeypatch):
    """numpy's BLAS control (get, set) with BLAS at two threads, on a host
    of two cores, so that row_threads splits; the count is reset on exit.
    Skips where numpy's BLAS offers no thread control."""
    blas = ad._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS offers no thread control")
    get, set_ = blas
    before = get()
    two_cores(monkeypatch)
    set_(2)
    try:
        yield blas
    finally:
        set_(before)


@contextlib.contextmanager
def one_blas_thread(blas):
    """The sequential path at one BLAS thread: the reference the split
    forward is bitwise equal to."""
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def record_worker_jobs(monkeypatch):
    """The name of the thread each job given to the row worker runs on,
    appended as the job starts."""
    jobs = []
    worker = ad._row_worker()

    class Recording:
        def submit(self, fn, *args):
            def job():
                jobs.append(threading.current_thread().name)
                return fn(*args)

            return worker.submit(job)

    monkeypatch.setattr(ad, "_row_worker", Recording)
    return jobs
