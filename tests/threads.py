"""Helpers for tests of autodiff.row_threads: numpy's BLAS thread control,
real or faked, two cores, and a record of the row worker's jobs."""

import contextlib
import threading

import pytest

from stemsep import autodiff as ad


def two_cores(monkeypatch):
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def fake_blas(monkeypatch, threads=2):
    """Replace numpy's BLAS thread control by a list of thread counts,
    the last one current, on a host of two cores; returns the list."""
    counts = [threads]
    monkeypatch.setattr(ad, "_blas_threads", lambda: (lambda: counts[-1], counts.append))
    two_cores(monkeypatch)
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
