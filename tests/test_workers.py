"""Forked workers and the one-thread BLAS cap. The sweep's segments and the
baseline's runs are dealt to workers by ``workers.deal``, and no output may
depend on how many processes or BLAS threads compute it."""

import os
import signal
import time

import numpy as np
import pytest

from ibnaming import IBNamingError, SolverConfig, anneal_frontier, default_beta_grid, solver
from ibnaming import save_frontier, workers
from ibnaming.frontier_io import frontier_files

from conftest import assert_no_child_left
from helpers import random_space


class _Injected(Exception):
    pass


def _names(jobs):
    return [f"job {j}" for j in jobs]


class TestDeal:
    def test_results_in_job_order(self, forks):
        # 7 jobs on 3 workers: each job is done once, by one of the workers,
        # and worker 0, this process, takes job 0
        jobs = list(range(7))
        got = workers.deal(lambda j: (j * j, os.getpid()), jobs, _names(jobs), 3)
        assert [r for r, _ in got] == [j * j for j in jobs]
        assert len(forks) == 2
        assert {pid for _, pid in got} <= {os.getpid(), *forks}
        assert got[0][1] == os.getpid()
        assert_no_child_left()

    def test_every_job_is_taken_once(self, forks):
        # more workers than cores, each job logging itself to one pipe: the
        # queue neither loses a job nor hands one out twice
        read_fd, write_fd = os.pipe()
        jobs = list(range(40))

        def fn(job):
            os.write(write_fd, workers._JOB.pack(job))
            return -job

        try:
            assert workers.deal(fn, jobs, _names(jobs), 4) == [-j for j in jobs]
            log = os.read(read_fd, 4 * workers._JOB.size * len(jobs))
        finally:
            os.close(read_fd)
            os.close(write_fd)
        assert sorted(workers._JOB.unpack_from(log, i)[0]
                      for i in range(0, len(log), workers._JOB.size)) == jobs
        assert len(forks) == 3
        assert_no_child_left()

    def test_one_worker_forks_nothing(self, forks):
        assert workers.deal(str, [1, 2], _names([1, 2]), 1) == ["1", "2"]
        assert workers.deal(str, [1], _names([1]), 4) == ["1"]
        assert forks == []

    def test_child_exception_names_its_job(self, forks):
        parent = os.getpid()

        def fn(job):
            if os.getpid() != parent:
                raise _Injected("injected failure")
            return job

        with pytest.raises(IBNamingError, match="^job 1 failed: _Injected: injected failure$"):
            workers.deal(fn, [0, 1], _names([0, 1]), 2)
        assert len(forks) == 1
        assert_no_child_left()

    def test_killed_child_names_the_job_it_took_from_the_queue(self, forks):
        # worker 0 waits in job 0 until the child, done with job 1, has taken
        # job 2 from the queue; the child then kills itself
        read_fd, write_fd = os.pipe()
        parent = os.getpid()

        def fn(job):
            if job == 0:
                os.read(read_fd, 1)
            elif job == 2 and os.getpid() != parent:
                os.write(write_fd, b"x")
                os.kill(os.getpid(), signal.SIGKILL)
            return job

        try:
            with pytest.raises(IBNamingError, match="^job 2 failed: killed by signal 9$"):
                workers.deal(fn, [0, 1, 2], _names([0, 1, 2]), 2)
        finally:
            os.close(read_fd)
            os.close(write_fd)
        assert_no_child_left()

    def test_parent_exception_kills_busy_children(self, forks):
        parent = os.getpid()

        def fn(job):
            if os.getpid() == parent:
                raise _Injected("injected failure")
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(_Injected):
            workers.deal(fn, [0, 1, 2], _names([0, 1, 2]), 3)
        assert time.perf_counter() - start < 30
        assert len(forks) == 2
        assert_no_child_left()


class TestBlasCap:
    def test_cap_restores_the_callers_count(self):
        blas = workers._openblas()
        if blas is None:
            pytest.skip("numpy does not bundle scipy-openblas")
        threads = blas.scipy_openblas_get_num_threads64_
        before = threads()
        with workers.one_blas_thread() as capped:
            assert capped and threads() == 1
            with workers.one_blas_thread() as inner:
                assert inner and threads() == 1
            assert threads() == 1
        assert threads() == before
        assert workers.blas_kernel()

    def test_another_blas_runs_uncapped(self, monkeypatch):
        monkeypatch.setattr(workers, "_openblas", lambda: None)
        with workers.one_blas_thread() as capped:
            assert capped is False
        assert workers.blas_kernel() is None


class TestSegmentedSweep:
    def test_segments_are_three_octaves_of_beta(self):
        # floor(log2(beta) / 3): [0.1, 0.125) -> -2, [0.125, 1) -> -1,
        # [1, 8) -> 0, [8, 64) -> 1, [64, 512) -> 2; beta = 0 joins the lowest
        grid = (0.0, 0.1, 0.124, 0.125, 0.99, 1.0, 7.99, 8.0, 63.0, 64.0, 100.0)
        assert solver._segments(grid) == [range(9, 11), range(7, 9), range(5, 7),
                                          range(3, 5), range(0, 3)]
        assert solver._segments((0.0,)) == [range(0, 1)]
        assert solver._segments((0.0, 5.0)) == [range(0, 2)]
        assert solver._segments((2.0 ** -10, 2.0 ** -7)) == [range(1, 2), range(0, 1)]

    @pytest.fixture
    def instance(self, rng):
        return random_space(rng, 8, 10), SolverConfig(beta_grid=default_beta_grid(1024, 30),
                                                     max_iterations=6000)

    def test_bytes_independent_of_cpu_count(self, instance, monkeypatch, forks, tmp_path):
        space, config = instance
        segments = len(solver._segments(config.beta_grid))
        saved = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(solver, "_cpu_count", lambda: cpus)
            forks.clear()
            front = anneal_frontier(space, config)
            assert len(forks) == front.sweep["workers"] - 1 == min(cpus, segments) - 1
            assert_no_child_left()
            assert [s["points"] for s in front.sweep["segments"]][::-1] == [
                len(s) for s in solver._segments(config.beta_grid)[::-1]]
            assert (sum(s["evaluations"] for s in front.sweep["segments"])
                    + front.sweep["repair_evaluations"]
                    >= sum(p.iterations for p in front.points))
            save_frontier(front, tmp_path / str(cpus))
            saved[cpus] = [(p.name, p.read_bytes()) for p in frontier_files(tmp_path / str(cpus))]
        assert segments == 6 and len(saved[1]) == 2 + 30
        assert saved[2] == saved[1] and saved[3] == saved[1]

    def _failing(self, monkeypatch, how):
        """The sweep on 2 workers, with ``how()`` called in the child first."""
        parent, solve = os.getpid(), solver._fixed_point_loop

        def failing(*args):
            if os.getpid() != parent:
                how()
            return solve(*args)

        monkeypatch.setattr(solver, "_fixed_point_loop", failing)
        monkeypatch.setattr(solver, "_cpu_count", lambda: 2)

    @staticmethod
    def _raise():
        raise _Injected("injected failure")

    def test_failed_segment_names_its_betas(self, instance, monkeypatch, forks):
        # worker 1, the child, takes the second segment from the top
        space, config = instance
        self._failing(monkeypatch, self._raise)
        second = solver._segments(config.beta_grid)[1]
        low, high = config.beta_grid[second[0]], config.beta_grid[second[-1]]
        with pytest.raises(IBNamingError, match=f"^sweep worker for betas {low:.6g} to "
                                                f"{high:.6g} failed: _Injected: injected"):
            anneal_frontier(space, config)
        assert len(forks) == 1
        assert_no_child_left()

    def test_killed_segment_worker(self, instance, monkeypatch, forks):
        space, config = instance
        self._failing(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(IBNamingError, match="^sweep worker for betas .* failed: "
                                                "killed by signal 9$"):
            anneal_frontier(space, config)
        assert_no_child_left()

    def test_solve_at_beta_runs_capped(self, monkeypatch):
        calls = []
        cap = workers.one_blas_thread

        def counted():
            calls.append(1)
            return cap()

        monkeypatch.setattr(solver, "one_blas_thread", counted)
        space = random_space(np.random.default_rng(1), 3, 3)
        front = anneal_frontier(space, SolverConfig(beta_grid=(0.0, 1.0)))
        solver.solve_at_beta(space, 1.0, front.points[0].encoder)
        assert len(calls) == 2
