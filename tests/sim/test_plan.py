"""Fused simulation planning: requests, keys, cache, scheduled dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.platforms import build_model
from repro.sim.executors import PoolExecutor
from repro.sim.montecarlo import FAST, PAPER, simulate_overhead
from repro.sim.plan import (
    BACKEND_VERSION,
    ResultCache,
    SimRequest,
    canonical_signature,
    plan_simulations,
    request_jobs,
    request_key,
)
from repro.sim.results import OverheadEstimate


@pytest.fixture
def request_(hera_sc1) -> SimRequest:
    return SimRequest(hera_sc1, T=6000.0, P=256.0, n_runs=8, n_patterns=10, seed=3)


class TestCanonicalSignature:
    def test_model_signature_is_stable(self, hera_sc1):
        assert canonical_signature(hera_sc1) == canonical_signature(hera_sc1)

    def test_float_exactness(self):
        # hex rendering is lossless: adjacent float64 values stay distinct.
        a = np.nextafter(0.1, 1.0)
        assert canonical_signature(0.1) != canonical_signature(float(a))
        assert canonical_signature(0.1) == canonical_signature(0.1)

    def test_rejects_unsupported_types(self):
        with pytest.raises(SimulationError):
            canonical_signature(object())


class TestRequestKey:
    def test_deterministic(self, request_):
        assert request_key(request_) == request_key(request_)

    def test_differs_by_parameters(self, hera_sc1, hera_sc3, request_):
        base = request_key(request_)
        variants = [
            SimRequest(hera_sc3, 6000.0, 256.0, 8, 10, seed=3),
            SimRequest(hera_sc1, 6001.0, 256.0, 8, 10, seed=3),
            SimRequest(hera_sc1, 6000.0, 512.0, 8, 10, seed=3),
            SimRequest(hera_sc1, 6000.0, 256.0, 9, 10, seed=3),
            SimRequest(hera_sc1, 6000.0, 256.0, 8, 11, seed=3),
            SimRequest(hera_sc1, 6000.0, 256.0, 8, 10, seed=4),
            SimRequest(hera_sc1, 6000.0, 256.0, 8, 10, seed=3, method="des"),
        ]
        keys = {base} | {request_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_keys_are_pinned(self):
        """Plan keys are the cache's and the run journal's addresses:
        they must not move, or existing caches and manifests stop
        resuming.  Values recorded with v1.24.0 (``BACKEND_VERSION`` 3;
        each bump moves every key on purpose)."""
        model = build_model("Hera", 1)
        fast = SimRequest(model, 6000.0, 256.0, FAST.n_runs, FAST.n_patterns)
        paper = SimRequest(model, 6000.0, 256.0, PAPER.n_runs, PAPER.n_patterns, seed=7)
        assert request_key(fast) == (
            "0d25b9795c2fd129e7a5061f8662833b382e3a447393cf377b6271670560b087"
        )
        assert request_key(paper) == (
            "a196a702ab1f2959605c5345e2e3967be6c4af7c9201372a9b8bb7376ad6d03c"
        )

    def test_model_signed_once_per_object(self, monkeypatch):
        import repro.sim.plan as plan_mod

        model = build_model("Hera", 1)
        walks = []
        sign = plan_mod.canonical_signature
        monkeypatch.setattr(
            plan_mod, "canonical_signature",
            lambda obj: (walks.append(obj) if obj is model else None) or sign(obj),
        )
        requests = [SimRequest(model, T, 256.0, 8, 10, seed=3) for T in (6000.0, 7000.0)]
        keys = [request_key(r) for r in requests + requests]
        assert len(walks) == 1  # one walk of the model tree for four keys
        assert keys[:2] == keys[2:]
        # Byte-identical to the digest of the payload tuple's repr.
        assert keys[0] == plan_mod._digest((
            "overhead", BACKEND_VERSION, sign(model), (6000.0).hex(), (256.0).hex(),
            8, 10, 3, "batch", None,
        ))

    def test_equal_models_with_signed_zeros_keep_their_keys(self):
        """The memo is by identity: 0.0 == -0.0, but their keys differ."""
        base = build_model("Hera", 1)
        plus = base.with_downtime(0.0)
        minus = base.with_downtime(-0.0)
        assert plus == minus
        first = request_key(SimRequest(plus, 6000.0, 256.0))
        second = request_key(SimRequest(minus, 6000.0, 256.0))
        assert first != second
        assert request_key(SimRequest(base.with_downtime(-0.0), 6000.0, 256.0)) == second

    def test_auto_resolves_to_concrete_backend(self, hera_sc1):
        # auto and its resolution share one key (and one cache entry).
        auto = SimRequest(hera_sc1, 6000.0, 256.0, 8, 10, seed=3, method="auto")
        batch = SimRequest(hera_sc1, 6000.0, 256.0, 8, 10, seed=3, method="batch")
        assert request_key(auto) == request_key(batch)

    def test_unknown_method_raises(self, hera_sc1):
        bad = SimRequest(hera_sc1, 6000.0, 256.0, method="quantum")
        with pytest.raises(SimulationError):
            request_key(bad)


class TestPlanSimulations:
    def test_dedup_and_slots(self, hera_sc1, request_):
        other = SimRequest(hera_sc1, 7000.0, 256.0, 8, 10, seed=3)
        plan = plan_simulations([request_, other, request_])
        assert plan.n_points == 3
        assert plan.n_unique == 2
        assert plan.slots == (0, 1, 0)

    def test_groups_by_backend(self, hera_sc1, request_):
        des = SimRequest(hera_sc1, 6000.0, 256.0, 4, 5, seed=3, method="des")
        plan = plan_simulations([request_, des])
        groups = plan.groups()
        assert set(groups) == {"batch", "des"}

    def test_dispatch_order_puts_slow_backends_first(
        self, hera_sc1, request_, resolve_requests
    ):
        des = SimRequest(hera_sc1, 6000.0, 256.0, 4, 5, seed=3, method="des")
        plan = plan_simulations([request_, des])  # batch is unique index 0
        assert plan.dispatch_order() == [1, 0]
        # Dispatch order never changes the returned values or alignment.
        fused, _ = resolve_requests([request_, des])
        assert fused[0].n_runs == request_.n_runs
        assert fused[1].n_runs == 4


class TestRequestJobs:
    def test_small_batch_is_one_job(self, request_):
        assert len(request_jobs(request_)) == 1

    def test_des_slices_cover_all_runs(self, hera_sc1):
        req = SimRequest(hera_sc1, 6000.0, 256.0, 20, 5, seed=3, method="des")
        jobs = request_jobs(req)
        total = sum(len(job[1][4]) for job in jobs)
        assert total == 20

    def test_rejects_nonpositive_budget(self, hera_sc1):
        req = SimRequest(hera_sc1, 6000.0, 256.0, 0, 10, seed=3)
        with pytest.raises(SimulationError):
            request_jobs(req)


class TestBitIdentity:
    """The pipeline's memoised estimates must equal per-point
    simulate_overhead bit for bit."""

    @pytest.mark.parametrize("method", ["batch", "vectorized", "des"])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_matches_sequential(
        self, hera_sc1, hera_sc3, method, jobs, resolve_requests
    ):
        n_runs, n_patterns = (6, 8) if method == "des" else (10, 20)
        points = [(hera_sc1, 6000.0, 256.0), (hera_sc3, 5000.0, 512.0)]
        sequential = [
            simulate_overhead(m, T, P, n_runs, n_patterns, seed=5, method=method)
            for m, T, P in points
        ]
        requests = [
            SimRequest(m, T, P, n_runs, n_patterns, seed=5, method=method)
            for m, T, P in points
        ]
        if jobs is None:
            fused, _ = resolve_requests(requests)
        else:
            fused, _ = resolve_requests(requests, executor=PoolExecutor(jobs))
        assert fused == sequential

    def test_pool_width_never_changes_results(self, hera_sc1, resolve_requests):
        # 120 x 40000 cells: two memory-bounded chunks, so the pool
        # really runs one point's jobs in different processes.
        requests = [
            SimRequest(
                hera_sc1, 6000.0, 256.0, 120, 40_000, seed=5, method="vectorized"
            ),
            SimRequest(hera_sc1, 7000.0, 256.0, 10, 20, seed=5),
        ]
        assert len(request_jobs(requests[0])) == 2
        serial, _ = resolve_requests(requests)
        pooled, _ = resolve_requests(requests, executor=PoolExecutor(2))
        assert serial == pooled

    def test_error_free_point(self, resolve_requests):
        from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts

        model = PatternModel(
            errors=ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5),
            costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0),
            speedup=AmdahlSpeedup(0.1),
        )
        req = SimRequest(model, 3600.0, 100.0, 5, 10, seed=1)
        (est,), _ = resolve_requests([req])
        seq = simulate_overhead(model, 3600.0, 100.0, 5, 10, seed=1)
        assert est == seq


class TestResultCache:
    def test_estimate_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        est = OverheadEstimate(
            mean=0.11, std=0.01, stderr=0.002, ci_low=0.106, ci_high=0.114, n_runs=25
        )
        assert cache.get_estimate("k" * 64) is None
        cache.put_estimate("k" * 64, est)
        assert cache.get_estimate("k" * 64) == est
        assert (cache.hits, cache.misses) == (1, 1)

    def test_value_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_value("v" * 64, 0.125)
        assert cache.get_value("v" * 64) == 0.125

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_value("x" * 64, 1.0)
        assert cache.get_estimate("x" * 64) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ("c" * 64 + ".npz")).write_bytes(b"not an npz")
        assert cache.get_estimate("c" * 64) is None

    def test_pipeline_uses_cache(self, tmp_path, hera_sc1, resolve_requests):
        req = SimRequest(hera_sc1, 6000.0, 256.0, 10, 20, seed=5)
        cold, pipe = resolve_requests([req], cache_dir=tmp_path)
        assert pipe.cache_stats == (0, 1)
        warm, pipe = resolve_requests([req], cache_dir=tmp_path)
        assert pipe.cache_stats == (1, 0)
        assert warm == cold

    def test_partly_warm_cache_serves_or_expands_every_point(
        self, tmp_path, hera_sc1, resolve_requests
    ):
        """Each point gets a value or a job book; none is left out."""
        from repro.sim.plan import claim_serve_expand

        requests = [SimRequest(hera_sc1, 6000.0 + i, 256.0, 4, 6) for i in range(4)]
        cold, _ = resolve_requests(requests[:2], cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        plan = plan_simulations(requests)
        values, tagged, books = claim_serve_expand(plan, cache)
        served = {i for i, v in enumerate(values) if v is not None}
        assert served.isdisjoint(books)
        assert served | set(books) == set(range(plan.n_unique))
        assert len(served) == 2 and (cache.hits, cache.misses) == (2, 2)
        assert {tag[0] for _, tag in tagged} == set(books)
        warm, _ = resolve_requests(requests, cache_dir=tmp_path)
        assert None not in warm and warm[:2] == cold

    def test_backend_version_isolates_entries(self, hera_sc1, request_, monkeypatch):
        import repro.sim.plan as plan_mod

        before = request_key(request_)
        monkeypatch.setattr(plan_mod, "BACKEND_VERSION", BACKEND_VERSION + 1)
        assert request_key(request_) != before
