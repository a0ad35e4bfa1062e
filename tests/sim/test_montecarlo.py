"""High-level Monte-Carlo driver."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.sim.montecarlo import (
    FAST,
    METHODS,
    PAPER,
    VECTORIZED_THRESHOLD,
    Fidelity,
    resolve_method,
    simulate_overhead,
)


class TestFidelity:
    def test_paper_matches_section_iv(self):
        assert PAPER.n_runs == 500
        assert PAPER.n_patterns == 500

    def test_fast_is_cheaper(self):
        assert FAST.n_runs * FAST.n_patterns < PAPER.n_runs * PAPER.n_patterns

    def test_custom(self):
        f = Fidelity(n_runs=7, n_patterns=13)
        assert (f.n_runs, f.n_patterns) == (7, 13)


class TestSimulateOverhead:
    def test_batch_matches_analytic(self, hera_sc1):
        T, P = 6554.9, 207.0
        est = simulate_overhead(hera_sc1, T, P, n_runs=300, n_patterns=200, seed=1)
        analytic = float(hera_sc1.overhead(T, P))
        # 6-sigma band: the estimator is unbiased.
        assert abs(est.mean - analytic) < 6 * est.stderr

    def test_des_matches_analytic(self, hera_sc1):
        T, P = 6554.9, 207.0
        est = simulate_overhead(
            hera_sc1, T, P, n_runs=30, n_patterns=60, seed=2, method="des"
        )
        analytic = float(hera_sc1.overhead(T, P))
        assert abs(est.mean - analytic) < 6 * est.stderr

    def test_methods_agree(self, hera_sc1):
        T, P = 6554.9, 207.0
        b = simulate_overhead(hera_sc1, T, P, n_runs=200, n_patterns=100, seed=3)
        d = simulate_overhead(
            hera_sc1, T, P, n_runs=30, n_patterns=100, seed=3, method="des"
        )
        pooled = (b.stderr**2 + d.stderr**2) ** 0.5
        assert abs(b.mean - d.mean) < 5 * pooled

    def test_seed_reproducibility(self, hera_sc1):
        a = simulate_overhead(hera_sc1, 6000.0, 200.0, n_runs=20, n_patterns=20, seed=9)
        b = simulate_overhead(hera_sc1, 6000.0, 200.0, n_runs=20, n_patterns=20, seed=9)
        assert a.mean == b.mean

    def test_vectorized_matches_analytic(self, hera_sc1):
        T, P = 6554.9, 207.0
        est = simulate_overhead(
            hera_sc1, T, P, n_runs=300, n_patterns=200, seed=1, method="vectorized"
        )
        analytic = float(hera_sc1.overhead(T, P))
        assert abs(est.mean - analytic) < 6 * est.stderr

    def test_unknown_method(self, hera_sc1):
        with pytest.raises(SimulationError) as excinfo:
            simulate_overhead(hera_sc1, 6000.0, 200.0, method="quantum")
        message = str(excinfo.value)
        assert "quantum" in message
        for method in METHODS:
            assert method in message, f"error should name valid choice {method!r}"


class TestAutoDispatch:
    def test_small_budget_uses_batch(self):
        assert resolve_method("auto", 50, 100) == "batch"

    def test_paper_budget_uses_vectorized(self):
        assert resolve_method("auto", PAPER.n_runs, PAPER.n_patterns) == "vectorized"
        assert PAPER.n_cells >= VECTORIZED_THRESHOLD > FAST.n_cells

    def test_explicit_method_passes_through(self):
        assert resolve_method("des", 10**6, 10**6) == "des"
        assert resolve_method("batch", 10**6, 10**6) == "batch"

    def test_unknown_method_rejected_early(self):
        with pytest.raises(SimulationError):
            resolve_method("", 1, 1)

    def test_auto_equals_vectorized_above_threshold(self, hera_sc1):
        kwargs = dict(n_runs=500, n_patterns=500, seed=2)
        auto = simulate_overhead(hera_sc1, 6554.9, 207.0, **kwargs)
        vec = simulate_overhead(hera_sc1, 6554.9, 207.0, method="vectorized", **kwargs)
        assert auto.mean == vec.mean

    def test_batch_chunks_above_memory_cap(self, hera_sc1, monkeypatch):
        import numpy as np

        import repro.sim.batch as batch_mod
        from repro.sim.results import overhead_estimate
        from repro.sim.rng import spawn_seed_sequences

        monkeypatch.setattr(batch_mod, "MAX_CHUNK_ELEMENTS", 100)
        est = simulate_overhead(
            hera_sc1, 6000.0, 200.0, n_runs=30, n_patterns=20, seed=5, method="batch"
        )
        # 100 cells at 20 patterns: six chunks of 5 runs, one spawned stream each.
        rates = batch_mod.PatternRates.from_model(hera_sc1, 6000.0, 200.0)
        parts = [
            batch_mod._simulate_batch_rates(rates, 5, 20, np.random.default_rng(ss))
            for ss in spawn_seed_sequences(6, 5)
        ]
        ref = overhead_estimate(hera_sc1, 6000.0, 200.0, batch_mod.merge_batch_stats(parts))
        assert est.mean == ref.mean
        assert est.n_runs == 30

    def test_fractional_processors_accepted(self, hera_sc1):
        # First-order P* is continuous; the simulator must accept it.
        est = simulate_overhead(hera_sc1, 6239.4, 218.9, n_runs=20, n_patterns=20, seed=4)
        assert est.mean > 0.1
