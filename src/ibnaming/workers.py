"""Work on every CPU: jobs dealt to forked workers, each at one BLAS thread.

``deal`` computes ``fn(job)`` for every job of a list and returns the
results in job order. This process is worker 0 and every other worker is a
forked child (``_Child``). Worker w takes job w first, then the next job
left in a queue, a pipe of job numbers that every worker reads from, until
the queue is empty; so the first jobs of the list start first, and a
worker that finishes early takes more of them. Threads would not help, as
the solver's and the baseline's many small numpy calls hold the GIL. A
child sends its results back in one pickle once the queue is empty, so no
worker waits on a busy parent while work is left.

``one_blas_thread`` caps numpy's bundled OpenBLAS at one thread. The
products of a solve give other bits under one and two OpenBLAS threads
(from about 12 rows of a (k x 113) @ (113 x 757) product on), so a solve
at one thread gives the same bytes on any core count; and workers at one
thread each never oversubscribe the cores, where two processes at two
threads each on two cores slowed each other about tenfold.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import IBNamingError

# one job number in the queue
_JOB = struct.Struct("<I")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (scipy-openblas, with its ``scipy_openblas_``
    symbols), or None for any other BLAS."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            blas = ctypes.CDLL(str(lib))
            signatures = {"scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
                          "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
                          "scipy_openblas_get_corename64_": ([], ctypes.c_char_p)}
            for name, (args, result) in signatures.items():
                getattr(blas, name).argtypes = args
                getattr(blas, name).restype = result
        except (OSError, AttributeError):
            continue
        return blas
    return None


def blas_kernel() -> str | None:
    """The CPU kernel OpenBLAS chose at load, such as ``SkylakeX``; None
    with another BLAS."""
    blas = _openblas()
    return None if blas is None else blas.scipy_openblas_get_corename64_().decode()


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS capped at one thread and restore the
    caller's thread count after it. Yields whether the cap took effect: with
    a BLAS that lacks the scipy-openblas symbols the block runs uncapped.
    Children forked inside the block inherit the cap."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    threads = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(1)
    try:
        yield blas.scipy_openblas_get_num_threads64_() == 1
    finally:
        blas.scipy_openblas_set_num_threads64_(threads)


class _Child:
    """A forked worker. It runs ``work(first, started)`` and sends pickles
    back through a pipe: the number of each job it takes after ``first``,
    then the list of its (job, result) pairs and exit 0, or on an exception
    the message and exit 1. The child always ends with ``os._exit``, so it
    runs no cleanup of the parent's, and ``inherited`` are file objects of
    the parent's that it closes first."""

    def __init__(self, work, first: int, inherited):
        self.taken = [first]
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(read_fd)
                for f in inherited:
                    f.close()
                with open(write_fd, "wb") as out:

                    def started(job: int) -> None:
                        if job != first:
                            pickle.dump(job, out)
                            out.flush()

                    try:
                        pickle.dump(work(first, started), out, pickle.HIGHEST_PROTOCOL)
                        code = 0
                    except Exception as e:
                        pickle.dump(f"{type(e).__name__}: {e}", out)
            finally:
                os._exit(code)
        os.close(write_fd)
        self.reader = open(read_fd, "rb")
        self.exit_code: int | None = None

    def result(self, names: list[str]) -> list:
        """The child's (job, result) pairs, once it has exited; a failed
        child raises an error that names the job it was on."""
        outcome = None
        try:
            while True:
                message = pickle.load(self.reader)
                if isinstance(message, int):
                    self.taken.append(message)
                else:
                    outcome = message
        except (EOFError, pickle.UnpicklingError):
            pass
        code = self.reap()
        if code:
            why = (f"killed by signal {-code}" if code < 0 else
                   outcome if isinstance(outcome, str) else f"exit status {code}")
            raise IBNamingError(f"{names[self.taken[-1]]} failed: {why}")
        return outcome

    def reap(self, kill: bool = False) -> int:
        """Close the pipe and wait for the child to exit; with ``kill``, a
        child still at work is killed first, as its results will not be
        read."""
        self.reader.close()
        if self.exit_code is None:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exit_code


def deal(fn, jobs: list, names: list[str], workers: int) -> list:
    """``[fn(job) for job in jobs]``, computed by up to ``workers``
    processes (see the module docstring); ``names[i]`` names job i in the
    error of a worker that fails on it. Every child is reaped before this
    returns or raises, and on an error the children still at work are
    killed. The queue is written before any worker starts, so it holds at
    most a pipe buffer of jobs: 16,384 on Linux."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    queue, write_fd = os.pipe()
    with open(write_fd, "wb") as w:
        w.write(b"".join(_JOB.pack(i) for i in range(workers, len(jobs))))

    def work(first: int, started) -> list:
        done, job = [], first
        while job is not None:
            started(job)
            done.append((job, fn(jobs[job])))
            # one read takes one whole job number: a pipe read is atomic
            data = os.read(queue, _JOB.size)
            job = _JOB.unpack(data)[0] if data else None
        return done

    children: list[_Child] = []
    try:
        for first in range(1, workers):
            children.append(_Child(work, first, [c.reader for c in children]))
        results = dict(work(0, lambda job: None))
        for c in children:
            results.update(c.result(names))
        return [results[i] for i in range(len(jobs))]
    finally:
        os.close(queue)
        for c in children:
            c.reap(kill=True)
