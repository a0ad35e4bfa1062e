"""Executor protocol: serial and pooled dispatch, pool rebuilds."""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.platforms.scenarios import build_model
from repro.sim.executors import (
    JobFuture,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.sim.executors import pooled
from repro.sim.plan import SimRequest


def _double(x):
    return 2 * x


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def _kill_worker(_):
    os._exit(1)


def fig_requests(n=12) -> list[SimRequest]:
    model = build_model("Hera", 1)
    return [
        SimRequest(model=model, T=3600.0 + i, P=1000.0, n_runs=3, n_patterns=4)
        for i in range(n)
    ]


class TestSerialExecutor:
    def test_single_worker(self):
        assert SerialExecutor().workers == 1


class TestPoolExecutor:
    def test_wraps_worker_count(self):
        with PoolExecutor(3) as ex:
            assert ex.workers == 3
        assert PoolExecutor(0).workers == 1  # clamps to serial


class TestMakeExecutor:
    def test_serial_for_one_job(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)

    def test_pool_for_many_jobs(self):
        ex = make_executor(4)
        assert isinstance(ex, PoolExecutor) and ex.workers == 4

    def test_none_auto_sizes_a_pool(self):
        ex = make_executor(None)
        assert isinstance(ex, PoolExecutor)
        assert ex.workers == max(1, os.cpu_count() or 1)


class TestCopiedCache:
    def test_copied_cache_serves_serial_means(self, tmp_path, resolve_requests):
        """A cache directory copied elsewhere serves every point, bit for bit."""
        requests = fig_requests(5)
        serial, _ = resolve_requests(requests)
        resolve_requests(requests, cache_dir=tmp_path / "a")
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        served, copy = resolve_requests(requests, cache_dir=tmp_path / "b")
        assert copy.cache_stats == (5, 0)
        assert [e.mean for e in served] == [e.mean for e in serial]
        assert [e.std for e in served] == [e.std for e in serial]


class TestNumericalStability:
    def test_pool_and_serial_identical(self, resolve_requests):
        requests = fig_requests(4)
        serial, _ = resolve_requests(requests)
        pooled, _ = resolve_requests(requests, executor=PoolExecutor(2))
        assert np.array_equal(
            [e.mean for e in serial], [e.mean for e in pooled]
        )


def _crash(x):
    raise RuntimeError(f"boom {x}")


class TestSubmitProtocol:
    """The async submit/next_completed surface."""

    @staticmethod
    def _drain(ex) -> list:
        drained = []
        while (future := ex.next_completed()) is not None:
            drained.append(future)
        return drained

    def test_serial_submit_resolves_inline_in_order(self):
        ex = SerialExecutor()
        futures = [ex.submit(_double, i, tag=i) for i in range(4)]
        assert all(f.done for f in futures)
        drained = self._drain(ex)
        assert [f.tag for f in drained] == [0, 1, 2, 3]
        assert [f.result() for f in drained] == [0, 2, 4, 6]

    def test_next_completed_idle_returns_none(self):
        assert SerialExecutor().next_completed() is None

    def test_pool_submit_round_trips(self):
        with PoolExecutor(2) as ex:
            futures = [ex.submit(_double, i, tag=i) for i in range(5)]
            results = {f.tag: f.result() for f in self._drain(ex)}
        assert results == {i: 2 * i for i in range(5)}
        assert {f.tag for f in futures} == set(range(5))

    def test_pool_serial_fallback_submit(self):
        """workers=1: the pool is never used, jobs resolve inline."""
        with PoolExecutor(1) as ex:
            future = ex.submit(_double, 21, tag="t")
            assert future.done and future.result() == 42

    def test_job_exception_raises_at_result(self):
        ex = SerialExecutor()
        future = ex.submit(_crash, 7, tag="bad")
        assert future.done
        with pytest.raises(RuntimeError, match="boom 7"):
            future.result()

    def test_pool_job_exception_raises_at_result(self):
        with PoolExecutor(2) as ex:
            ex.submit(_crash, 3)
            future = ex.next_completed()
            with pytest.raises(RuntimeError, match="boom 3"):
                future.result()

    def test_unfinished_future_read_refuses(self):
        from repro.sim.executors import JobFuture

        with pytest.raises(SimulationError):
            JobFuture(_double, 1).result()


class TestLifecycleUnderFailure:
    """A failing job must never leak pool processes (satellite: __exit__)."""

    def test_pipeline_failure_closes_shared_pool(self):
        """A job exception mid-run shuts the process pool down."""
        from repro.experiments.pipeline import SimulationPipeline

        with SimulationPipeline(jobs=2) as pipe:
            pipe.call(_crash, 1)
            pipe.call(_double, 2)  # queued behind the failure
            with pytest.raises(RuntimeError, match="boom 1"):
                pipe.resolve()
            # resolve() closed the executor on the way out: no live
            # process pool survives the exception.
            assert pipe.executor._pool is None

    def test_serial_exit_is_idempotent(self):
        ex = SerialExecutor()
        with ex:
            pass
        ex.close()  # double close is fine

    def test_pool_exit_shuts_down_even_with_inflight(self):
        ex = PoolExecutor(2)
        with ex:
            ex.submit(_double, 1)  # completion never consumed
        assert ex._pool is None
        assert ex._inflight == {}
        ex.close()  # idempotent

    def test_pool_exit_propagates_body_exception_and_closes(self):
        ex = PoolExecutor(2)
        with pytest.raises(RuntimeError):
            with ex:
                ex.submit(_double, 1)
                raise RuntimeError("body failed")
        assert ex._pool is None

    def test_cancelled_inner_future_fails_with_cancelled_error(self):
        """A cancelled pool job fails its future; the scheduler retries it."""
        from concurrent.futures import CancelledError, Future

        ex = PoolExecutor(2)
        inner: Future = Future()
        ex._inflight[inner] = (JobFuture(_double, 4, tag="t"), None)
        inner.cancel()
        inner.set_running_or_notify_cancel()  # lets wait() see it as done
        future = ex.next_completed()
        with pytest.raises(CancelledError):
            future.result()
        assert not ex._broken  # a cancelled job is not a dead pool
        ex.close()

    def test_pipeline_reusable_after_job_failure(self):
        """No stale completions leak into the round after an abort."""
        from repro.experiments.pipeline import SimulationPipeline

        with SimulationPipeline(jobs=1) as pipe:
            # Serial executor: all three jobs complete inline at submit
            # time; the first yielded result raises, stranding the two
            # _double completions unconsumed inside the executor.
            pipe.call(_crash, 1)
            pipe.call(_double, 2)
            pipe.call(_double, 3)
            with pytest.raises(RuntimeError, match="boom 1"):
                pipe.resolve()
            deferred = pipe.call(_double, 21)
            pipe.resolve()
            assert deferred.value == 42

    def test_worker_pool_close_cancels_queued_futures(self):
        ex = PoolExecutor(2)
        for i in range(64):
            ex.submit(_double, i)
        futures = list(ex._inflight)
        assert len(futures) == 64  # every job went to the pool
        ex.close()  # must not hang, must not leak
        assert ex._pool is None
        for f in futures:
            assert f.cancelled() or f.done()


class TestPoolRebuild:
    """A worker death replaces the pool instead of ending pooling."""

    @staticmethod
    def _drain(ex) -> list:
        drained = []
        while (future := ex.next_completed()) is not None:
            drained.append(future)
        return drained

    def test_dead_pool_is_rebuilt_once_per_death(self):
        from concurrent.futures.process import BrokenProcessPool

        with PoolExecutor(2) as ex:
            ex.submit(_kill_worker, 0, tag="kill")
            for i in range(3):
                ex.submit(_pid_after, 0.5, tag=i)
            drained = self._drain(ex)
            assert len(drained) == 4
            for future in drained:
                with pytest.raises(BrokenProcessPool):
                    future.result()
            # Four lost jobs, one dead pool: one rebuild.
            assert ex.rebuilds == 1 and not ex._broken
            for i in range(4):
                ex.submit(_pid_after, 0.0, tag=i)
            pids = [f.result() for f in self._drain(ex)]
            assert len(pids) == 4
            assert os.getpid() not in pids  # ran on the fresh pool

    def test_pool_found_dead_at_submit_is_replaced(self):
        """A pool that died before any failure was read is replaced at
        submit time, not abandoned for serial dispatch."""
        from concurrent.futures.process import BrokenProcessPool

        class DeadPool:
            def submit(self, fn, item):
                raise BrokenProcessPool("a worker died")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        with PoolExecutor(2) as ex:
            ex._pool = DeadPool()
            future = ex.submit(_pid_after, 0.0)
            assert ex.rebuilds == 1 and not ex._broken
            assert not future.done  # went to the fresh pool
            assert ex.next_completed().result() != os.getpid()

    def test_failures_of_a_discarded_pool_count_no_rebuild(self):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        ex = PoolExecutor(2)
        inner: Future = Future()
        inner.set_exception(BrokenProcessPool("old pool"))
        ex._inflight[inner] = (JobFuture(_double, 1), object())
        with pytest.raises(BrokenProcessPool):
            ex.next_completed().result()
        assert ex.rebuilds == 0 and not ex._broken
        ex.close()

    def test_rebuilds_are_capped_then_serial(self, monkeypatch):
        monkeypatch.setattr(pooled, "MAX_POOL_REBUILDS", 1)
        with PoolExecutor(2) as ex:
            for _ in range(2):
                ex.submit(_kill_worker, 0)
                self._drain(ex)
            assert ex.rebuilds == 1 and ex._broken
            future = ex.submit(_pid_after, 0.0)
            assert future.done and future.result() == os.getpid()
