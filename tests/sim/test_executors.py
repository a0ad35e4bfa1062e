"""Executor protocol: serial, pooled, sharded dispatch and shard merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.platforms.scenarios import build_model
from repro.sim.executors import (
    JobFuture,
    PoolExecutor,
    SerialExecutor,
    ShardedExecutor,
    make_executor,
    merge_shard_dirs,
    shard_of,
)
from repro.sim.plan import (
    ResultCache,
    SimRequest,
    request_key,
    simulate_requests,
)


def _double(x):
    return 2 * x


def fig_requests(n=12) -> list[SimRequest]:
    model = build_model("Hera", 1)
    return [
        SimRequest(model=model, T=3600.0 + i, P=1000.0, n_runs=3, n_patterns=4)
        for i in range(n)
    ]


class TestShardOf:
    def test_deterministic(self):
        keys = [request_key(r) for r in fig_requests()]
        assert [shard_of(k, 3) for k in keys] == [shard_of(k, 3) for k in keys]

    def test_in_range_and_spread(self):
        keys = [request_key(r) for r in fig_requests(40)]
        shards = {shard_of(k, 4) for k in keys}
        assert shards <= {0, 1, 2, 3}
        assert len(shards) > 1  # hash actually spreads the keys


class TestSerialExecutor:
    def test_owns_everything(self):
        assert SerialExecutor().owns("deadbeef")
        assert SerialExecutor().workers == 1


class TestPoolExecutor:
    def test_wraps_worker_count(self):
        with PoolExecutor(3) as ex:
            assert ex.workers == 3
            assert ex.owns("deadbeef")
        assert PoolExecutor(0).workers == 1  # clamps to serial


class TestShardedExecutor:
    def test_partition_is_disjoint_and_covering(self):
        keys = [request_key(r) for r in fig_requests(30)]
        owners = [
            [ShardedExecutor(i, 3).owns(k) for i in range(3)] for k in keys
        ]
        assert all(sum(row) == 1 for row in owners)

    def test_validates_bounds(self):
        with pytest.raises(SimulationError):
            ShardedExecutor(2, 2)
        with pytest.raises(SimulationError):
            ShardedExecutor(-1, 2)
        with pytest.raises(SimulationError):
            ShardedExecutor(0, 0)


class TestMakeExecutor:
    def test_serial_for_one_job(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)

    def test_pool_for_many_jobs(self):
        ex = make_executor(4)
        assert isinstance(ex, PoolExecutor) and ex.workers == 4

    def test_sharded_wraps_inner(self):
        ex = make_executor(2, shard_index=1, shard_count=3)
        assert isinstance(ex, ShardedExecutor)
        assert isinstance(ex.inner, PoolExecutor)
        assert ex.shard_index == 1 and ex.shard_count == 3


class TestMergeShardDirs:
    @staticmethod
    def _fill(directory, keys_values):
        cache = ResultCache(directory)
        for key, value in keys_values:
            cache.put_value(key, value)

    def test_copies_and_counts(self, tmp_path):
        self._fill(tmp_path / "a", [("k1", 1.0), ("k2", 2.0)])
        self._fill(tmp_path / "b", [("k3", 3.0)])
        copied, skipped = merge_shard_dirs(
            [tmp_path / "a", tmp_path / "b"], tmp_path / "out"
        )
        assert (copied, skipped) == (3, 0)
        merged = ResultCache(tmp_path / "out")
        assert merged.get_value("k2") == 2.0
        assert merged.get_value("k3") == 3.0

    def test_identical_duplicates_skip(self, tmp_path):
        self._fill(tmp_path / "a", [("k1", 1.0)])
        (tmp_path / "b").mkdir()
        import shutil

        shutil.copyfile(tmp_path / "a" / "k1.npz", tmp_path / "b" / "k1.npz")
        copied, skipped = merge_shard_dirs(
            [tmp_path / "a", tmp_path / "b"], tmp_path / "out"
        )
        assert (copied, skipped) == (1, 1)

    def test_conflicting_content_refuses(self, tmp_path):
        self._fill(tmp_path / "a", [("k1", 1.0)])
        self._fill(tmp_path / "out", [("k1", 99.0)])
        with pytest.raises(SimulationError):
            merge_shard_dirs([tmp_path / "a"], tmp_path / "out")

    def test_a_legacy_entry_of_the_same_result_skips(self, tmp_path):
        self._fill(tmp_path / "a", [("k1", 1.0), ("k2", 2.0)])
        (tmp_path / "out").mkdir()
        for key, value in (("k1", 1.0), ("k2", 5.0)):  # the 1.14 layout
            with open(tmp_path / "out" / f"{key}.npz", "wb") as handle:
                np.savez(handle, kind="value", value=value)
        with pytest.raises(SimulationError, match="k2.npz"):
            merge_shard_dirs([tmp_path / "a"], tmp_path / "out")
        (tmp_path / "a" / "k2.npz").unlink()
        copied, skipped = merge_shard_dirs([tmp_path / "a"], tmp_path / "out")
        assert (copied, skipped) == (0, 1)

    def test_missing_shard_dir_refuses(self, tmp_path):
        with pytest.raises(SimulationError):
            merge_shard_dirs([tmp_path / "nope"], tmp_path / "out")


class TestShardedPlanExecution:
    def test_foreign_points_stay_unresolved_and_cache_covers(self, tmp_path):
        """A shard skips foreign keys; its cache then serves its own."""
        requests = fig_requests(6)
        cache0 = ResultCache(tmp_path / "s0")
        estimates = simulate_requests(requests, ShardedExecutor(0, 2), cache0)
        owned = [i for i, e in enumerate(estimates) if e is not None]
        foreign = [i for i, e in enumerate(estimates) if e is None]
        assert owned and foreign  # both sides non-trivial for this grid
        keys = [request_key(r) for r in requests]
        assert all(ShardedExecutor(0, 2).owns(keys[i]) for i in owned)
        assert not any(ShardedExecutor(0, 2).owns(keys[i]) for i in foreign)
        # The same cache dir now serves the owned points without jobs.
        warm = ResultCache(tmp_path / "s0")
        again = simulate_requests(requests, ShardedExecutor(0, 2), warm)
        assert [i for i, e in enumerate(again) if e is not None] == owned
        assert (warm.hits, warm.misses) == (len(owned), len(foreign))

    def test_sharded_means_equal_serial_means(self, tmp_path):
        """Union of shard results == serial results, bit for bit."""
        requests = fig_requests(5)
        serial = simulate_requests(requests)
        for index in (0, 1, 2):
            cache = ResultCache(tmp_path / f"s{index}")
            simulate_requests(requests, ShardedExecutor(index, 3), cache)
        merge_shard_dirs(
            [tmp_path / f"s{i}" for i in range(3)], tmp_path / "merged"
        )
        merged = simulate_requests(requests, cache=ResultCache(tmp_path / "merged"))
        assert [e.mean for e in merged] == [e.mean for e in serial]
        assert [e.std for e in merged] == [e.std for e in serial]


class TestNumericalStability:
    def test_pool_and_serial_identical(self):
        requests = fig_requests(4)
        serial = simulate_requests(requests)
        with PoolExecutor(2) as executor:
            pooled = simulate_requests(requests, executor)
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

    def test_sharded_delegates_submit_to_inner(self):
        with ShardedExecutor(0, 2, inner=SerialExecutor()) as ex:
            future = ex.submit(_double, 5)
            assert future.done
            assert ex.next_completed() is future

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

    def test_sharded_exit_closes_inner(self):
        inner = PoolExecutor(2)
        with ShardedExecutor(0, 2, inner=inner) as ex:
            ex.submit(_double, 1)
        assert inner._pool is None

    def test_cancelled_inner_future_fails_with_cancelled_error(self):
        """A cancelled pool job fails its future; the scheduler retries it."""
        from concurrent.futures import CancelledError, Future

        ex = PoolExecutor(2)
        inner: Future = Future()
        ex._inflight[inner] = JobFuture(_double, 4, tag="t")
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
