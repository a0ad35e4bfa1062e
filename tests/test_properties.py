"""Property-based tests (hypothesis) on the core invariants.

These sweep randomly over the whole parameter domain — error rates,
fail-stop fractions, cost shapes, sequential fractions — and assert the
structural properties the analysis relies on: positivity, limits,
monotonicity, optimality of the closed forms, and agreement between the
exact formula and the Monte-Carlo sampler.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AmdahlSpeedup,
    CheckpointCost,
    ErrorModel,
    PatternModel,
    ResilienceCosts,
    VerificationCost,
    expected_pattern_time,
    optimal_period,
    theorem2_solution,
    theorem3_solution,
)
from repro.core.errors import expected_time_lost
from repro.optimize.scalar import brent
from repro.exceptions import SimulationError
from repro.sim.batch import (
    MAX_CHUNK_ELEMENTS,
    PatternRates,
    simulate_batch,
    truncated_exponential,
)
from repro.sim.rng import make_rng

# -- strategies ----------------------------------------------------------

rates = st.floats(min_value=1e-12, max_value=1e-4)
fractions = st.floats(min_value=0.0, max_value=1.0)
interior_alphas = st.floats(min_value=1e-4, max_value=0.9)
periods = st.floats(min_value=1.0, max_value=1e6)
processor_counts = st.floats(min_value=1.0, max_value=1e5)
cost_values = st.floats(min_value=0.0, max_value=1e4)
positive_costs = st.floats(min_value=0.1, max_value=1e4)


@st.composite
def error_models(draw) -> ErrorModel:
    return ErrorModel(
        lambda_ind=draw(rates), fail_stop_fraction=draw(fractions)
    )


@st.composite
def cost_bundles(draw) -> ResilienceCosts:
    return ResilienceCosts(
        checkpoint=CheckpointCost(
            a=draw(cost_values), b=draw(cost_values), c=draw(st.floats(0.0, 10.0))
        ),
        verification=VerificationCost(v=draw(cost_values), u=draw(cost_values)),
        downtime=draw(st.floats(0.0, 1e4)),
    )


# -- expected pattern time -------------------------------------------------


class TestPatternTimeProperties:
    @given(errors=error_models(), costs=cost_bundles(), T=periods, P=processor_counts)
    @settings(max_examples=200, deadline=None)
    def test_at_least_error_free_time(self, errors, costs, T, P):
        E = expected_pattern_time(T, P, errors, costs)
        base = T + costs.combined_cost(P)
        if np.isfinite(E):
            assert E >= base * (1 - 1e-9)

    @given(errors=error_models(), costs=cost_bundles(), T=periods, P=processor_counts)
    @settings(max_examples=200, deadline=None)
    def test_positive_and_not_nan(self, errors, costs, T, P):
        E = expected_pattern_time(T, P, errors, costs)
        assert not np.isnan(E)
        assert E > 0.0

    @given(errors=error_models(), costs=cost_bundles(), T=periods, P=processor_counts)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_period(self, errors, costs, T, P):
        E1 = expected_pattern_time(T, P, errors, costs)
        E2 = expected_pattern_time(T * 1.5, P, errors, costs)
        if np.isfinite(E1) and np.isfinite(E2):
            assert E2 >= E1

    @given(errors=error_models(), costs=cost_bundles(), T=periods, P=processor_counts)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_rate(self, errors, costs, T, P):
        hotter = ErrorModel(errors.lambda_ind * 3.0, errors.fail_stop_fraction)
        E1 = expected_pattern_time(T, P, errors, costs)
        E2 = expected_pattern_time(T, P, hotter, costs)
        if np.isfinite(E1) and np.isfinite(E2):
            assert E2 >= E1 * (1 - 1e-12)

    @given(errors=error_models(), costs=cost_bundles(), T=periods, P=processor_counts)
    @settings(max_examples=100, deadline=None)
    def test_decomposition(self, errors, costs, T, P):
        from repro.core import expected_checkpoint_time, expected_work_time

        E = expected_pattern_time(T, P, errors, costs)
        EA = expected_work_time(T, P, errors, costs)
        EC = expected_checkpoint_time(T, P, errors, costs)
        if np.isfinite(E):
            assert E == pytest.approx(EA + EC, rel=1e-9)

    @given(T=periods, P=processor_counts, costs=cost_bundles())
    @settings(max_examples=50, deadline=None)
    def test_error_free_limit(self, T, P, costs):
        errors = ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5)
        E = expected_pattern_time(T, P, errors, costs)
        assert E == pytest.approx(T + costs.combined_cost(P), rel=1e-12)


class TestExpectedTimeLostProperties:
    @given(
        lam=st.floats(min_value=1e-12, max_value=10.0),
        W=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_half_window(self, lam, W):
        val = expected_time_lost(lam, W)
        assert 0.0 < val <= W / 2 * (1 + 1e-9)

    @given(
        lam=st.floats(min_value=1e-9, max_value=1.0),
        W=st.floats(min_value=1e-3, max_value=1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_mean(self, lam, W):
        # Conditioning on striking early can only shorten the wait.
        assert expected_time_lost(lam, W) <= 1.0 / lam


# -- first-order optima ------------------------------------------------------


class TestTheoremProperties:
    @given(
        lam=rates,
        f=fractions,
        alpha=interior_alphas,
        c=st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_theorem2_minimises_its_objective(self, lam, f, alpha, c):
        model = PatternModel(
            errors=ErrorModel(lam, f),
            costs=ResilienceCosts(checkpoint=CheckpointCost.linear(c)),
            speedup=AmdahlSpeedup(alpha),
        )
        sol = theorem2_solution(model)
        L = model.errors.effective_lambda

        def H(P):
            return alpha + 2 * alpha * P * np.sqrt(c * L) + (1 - alpha) / P

        assert sol.processors > 0
        assert H(sol.processors) <= H(sol.processors * 1.05) + 1e-15
        assert H(sol.processors) <= H(sol.processors * 0.95) + 1e-15
        assert sol.overhead == pytest.approx(H(sol.processors), rel=1e-9)

    @given(
        lam=rates,
        f=fractions,
        alpha=interior_alphas,
        d=positive_costs,
    )
    @settings(max_examples=100, deadline=None)
    def test_theorem3_minimises_its_objective(self, lam, f, alpha, d):
        model = PatternModel(
            errors=ErrorModel(lam, f),
            costs=ResilienceCosts(checkpoint=CheckpointCost.constant(d)),
            speedup=AmdahlSpeedup(alpha),
        )
        sol = theorem3_solution(model)
        L = model.errors.effective_lambda

        def H(P):
            return alpha + 2 * alpha * np.sqrt(d * L * P) + (1 - alpha) / P

        assert H(sol.processors) <= H(sol.processors * 1.05) + 1e-15
        assert H(sol.processors) <= H(sol.processors * 0.95) + 1e-15
        assert sol.overhead == pytest.approx(H(sol.processors), rel=1e-9)

    @given(errors=error_models(), costs=cost_bundles(), P=processor_counts)
    @settings(max_examples=100, deadline=None)
    def test_theorem1_positive(self, errors, costs, P):
        if errors.lambda_ind == 0.0 or costs.combined_cost(P) == 0.0:
            return
        T = optimal_period(P, errors, costs)
        assert T > 0.0

    @given(errors=error_models(), costs=cost_bundles(), P=processor_counts)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_theorem1_near_optimal_when_valid(self, errors, costs, P):
        # Inside the validity regime, Theorem 1 beats any 2x mis-sizing.
        combined = costs.combined_cost(P)
        lam_eff = errors.fail_stop_rate(P) / 2.0 + errors.silent_rate(P)
        if combined <= 0.0 or lam_eff <= 0.0:
            return
        if lam_eff * np.sqrt(combined / lam_eff) > 0.05:  # outside regime
            return
        model = PatternModel(errors, costs, AmdahlSpeedup(0.1))
        T_star = optimal_period(P, errors, costs)
        H_star = model.overhead(T_star, P)
        assert H_star <= model.overhead(T_star * 2.0, P) * (1 + 1e-9)
        assert H_star <= model.overhead(T_star * 0.5, P) * (1 + 1e-9)


# -- simulation vs analysis ----------------------------------------------------


class TestSimulationProperties:
    @given(
        lam=st.floats(min_value=1e-5, max_value=1e-4),
        f=fractions,
        T=st.floats(min_value=500.0, max_value=5000.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_mean_tracks_proposition1(self, lam, f, T, seed):
        # The rate/period floor keeps expected failures per batch >= ~100
        # so the sample SEM is a meaningful scale (rare-event batches
        # with ~0 failures make the empirical SEM collapse to zero).
        model = PatternModel(
            errors=ErrorModel(lam, f),
            costs=ResilienceCosts.simple(checkpoint=30.0, verification=5.0, downtime=10.0),
            speedup=AmdahlSpeedup(0.1),
        )
        P = 20.0
        rates = PatternRates.from_model(model, T, P)
        if 200 * 50 * (1 / rates.p_success - 1) > MAX_CHUNK_ELEMENTS:
            # Periods far beyond the optimum expect more failed attempts
            # than the sampler holds in memory: refused, not sampled.
            with pytest.raises(SimulationError, match="failed attempts"):
                simulate_batch(model, T, P, n_runs=200, n_patterns=50, rng=make_rng(seed))
            return
        stats = simulate_batch(model, T, P, n_runs=200, n_patterns=50, rng=make_rng(seed))
        analytic = model.expected_time(T, P)
        per_run = stats.run_times / stats.n_patterns
        sem = per_run.std(ddof=1) / np.sqrt(stats.n_runs)
        # 6-sigma with a relative floor: fails w.p. ~1e-9 if unbiased.
        assert abs(stats.mean_pattern_time - analytic) <= 6 * max(sem, 1e-5 * analytic)

    @given(
        lam=st.floats(min_value=1e-6, max_value=1e-2),
        W=st.floats(min_value=1.0, max_value=1e4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_truncated_exponential_support(self, lam, W, seed):
        samples = truncated_exponential(make_rng(seed), lam, W, 1000)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= W)


# -- scalar optimiser ---------------------------------------------------------


class TestOptimizerProperties:
    @given(
        centre=st.floats(min_value=-100.0, max_value=100.0),
        scale=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_brent_finds_quadratic_minimum(self, centre, scale):
        result = brent(lambda x: scale * (x - centre) ** 2, centre - 50.0, centre + 57.0)
        assert result.x == pytest.approx(centre, abs=1e-5)
