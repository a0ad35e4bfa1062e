"""Aggregated whole-budget Monte-Carlo backend (the paper-fidelity path).

:mod:`repro.sim.batch` already replaced the event loop with bulk array
sampling, but it still draws one geometric variate **per pattern** — a
500-runs-by-500-patterns budget costs 250 000 geometric draws even when
almost every attempt succeeds.  This backend pushes the renewal algebra
one level higher and samples whole ``(runs x patterns)`` budgets:

* the failed attempts of one run are a sum of ``n_patterns`` iid
  geometric counts, i.e. a **negative binomial** — one draw per *run*
  instead of one per pattern;
* the failures of a run split into the A/B/C outcomes as a
  **multinomial** over the conditional outcome probabilities — one
  draw per run instead of one classification uniform per failure;
* silent-detected failures (outcome B) cost exactly ``T + V`` each, so
  their contribution is ``n_B * (T + V)`` — zero random draws;
* the recovery retries of a run are again negative binomial in the
  run's failure count; only the truncated-exponential losses of the
  fail-stop interruptions that actually happened are materialised and
  reduced to runs with masked ``bincount`` arithmetic.

The sampled per-run wall-clock distribution is *exactly* the batch
backend's (sums of iid pattern costs commute), so the two agree with
the event-level protocol loop to statistical identity — the test suite
pins this — while the work drops from ``O(runs x patterns)`` to
``O(runs + failures)``.  At the paper's protocol on the Figure 5-7
workloads that is a 10-50x speedup (see
``benchmarks/test_bench_vectorized.py``), which is what makes
paper-fidelity sweeps routine instead of overnight jobs.

Budgets larger than :data:`repro.sim.batch.MAX_CHUNK_ELEMENTS` cells
are split into run chunks with independent spawned seed streams; the
result is a pure function of the call arguments.  The fused planner
(:mod:`repro.sim.plan`) ships the same chunks to a process pool as
separate jobs, so where they run only affects wall-clock.
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from .batch import (
    BatchStats,
    PatternRates,
    _error_free_stats,
    check_failure_budget,
    merge_batch_stats,
    plan_chunk_jobs,
    truncated_exponential,
)

__all__ = ["simulate_vectorized", "simulate_chunk"]


def _per_run_loss_sums(
    rng: np.random.Generator,
    lam: float,
    window: float,
    counts: np.ndarray,
) -> np.ndarray:
    """Per-run sums of ``counts[i]`` iid truncated-exponential losses."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(counts.size)
    losses = truncated_exponential(rng, lam, window, total)
    return np.bincount(
        np.repeat(np.arange(counts.size), counts), weights=losses, minlength=counts.size
    )


def simulate_chunk(
    rates: PatternRates,
    n_runs: int,
    n_patterns: int,
    seed: np.random.SeedSequence | int | None,
) -> BatchStats:
    """Simulate one chunk of runs from scalar rates.

    Module-level and picklable-argument-only, so the scheduler can
    ship it to worker processes.
    """
    if n_runs <= 0 or n_patterns <= 0:
        raise SimulationError("n_runs and n_patterns must be positive")
    if rates.p_success >= 1.0:  # error-free: every attempt succeeds
        return _error_free_stats(rates, n_runs, n_patterns)
    check_failure_budget(rates, n_runs * n_patterns)
    rng = np.random.default_rng(seed)

    # Failures per run: sum of n_patterns iid Geometric(p) failure
    # counts == NegativeBinomial(n_patterns, p).
    failures = rng.negative_binomial(n_patterns, rates.p_success, size=n_runs)
    n_failures = int(failures.sum())

    # Split each run's failures into the A/B/C outcomes: multinomial
    # over the conditional outcome probabilities.  q_fail comes from
    # expm1 of the summed exponent (not 1 - p_success, which loses all
    # precision for tiny rates), and the clips keep p_A + p_B <= 1 when
    # rounding would otherwise push the pvals out of numpy's domain —
    # e.g. silent-only models, where p_B is mathematically exactly 1.
    q_fail = -np.expm1(
        -(rates.lam_f * (rates.A + rates.C) + rates.lam_s * rates.T)
    )
    p_A = min(1.0, -np.expm1(-rates.lam_f * rates.A) / q_fail)
    p_B = min(1.0 - p_A, rates.p_ok_A * -np.expm1(-rates.lam_s * rates.T) / q_fail)
    outcome = rng.multinomial(failures, [p_A, p_B, max(0.0, 1.0 - p_A - p_B)])
    n_A, n_B, n_C = outcome[:, 0], outcome[:, 1], outcome[:, 2]

    # Per-run cost, resolved with masked bincount arithmetic; only the
    # fail-stop losses that actually happened draw random numbers —
    # a silent-detected attempt (B) costs exactly the full T+V segment.
    extra = n_B * rates.A + n_C * rates.A + failures * rates.R
    if rates.lam_f > 0.0:
        extra = extra + _per_run_loss_sums(rng, rates.lam_f, rates.A, n_A)
        extra = extra + _per_run_loss_sums(rng, rates.lam_f, rates.C, n_C)
        # Each recovery retries through a geometric number of fail-stop
        # interruptions; per run that is again negative binomial in the
        # failure count.
        n_sub = np.zeros(n_runs, dtype=np.int64)
        struck = failures > 0
        if struck.any():
            n_sub[struck] = rng.negative_binomial(failures[struck], rates.p_ok_R)
        extra = extra + _per_run_loss_sums(rng, rates.lam_f, rates.R, n_sub)
        extra = extra + (n_A + n_C + n_sub) * rates.D
    else:
        n_sub = np.zeros(n_runs, dtype=np.int64)

    n_interrupts = int(n_A.sum() + n_C.sum() + n_sub.sum())
    return BatchStats(
        run_times=n_patterns * rates.base_pattern_time + extra,
        n_patterns=n_patterns,
        n_attempts=n_runs * n_patterns + n_failures,
        n_fail_stop=n_interrupts,
        n_silent_detected=int(n_B.sum()),
        n_recoveries=n_failures,
        n_downtimes=n_interrupts,
    )


def simulate_vectorized(
    model: PatternModel,
    T: float,
    P: float,
    n_runs: int,
    n_patterns: int,
    seed: int | np.random.SeedSequence | None = None,
) -> BatchStats:
    """Simulate the whole ``(n_runs x n_patterns)`` budget as arrays.

    Same model and distribution as :func:`repro.sim.batch.simulate_batch`
    (the equivalence is asserted statistically against the event-driven
    reference in the test suite), an order of magnitude faster on
    paper-fidelity budgets.

    Parameters
    ----------
    model, T, P:
        Platform/application bundle and pattern parameters.
    n_runs, n_patterns:
        Monte-Carlo budget; the paper uses 500 x 500.
    seed:
        Master seed.  The runs are split into chunks of at most
        :data:`repro.sim.batch.MAX_CHUNK_ELEMENTS` cells
        (:func:`repro.sim.batch.plan_chunk_jobs`), each with an
        independent spawned child stream, so the result is a pure
        function of the call arguments.
    """
    if n_runs <= 0 or n_patterns <= 0:
        raise SimulationError("n_runs and n_patterns must be positive")
    rates = PatternRates.from_model(model, T, P)
    plan, seeds = plan_chunk_jobs(n_runs, n_patterns, seed)
    parts = [simulate_chunk(rates, c, n_patterns, s) for c, s in zip(plan, seeds)]
    return parts[0] if len(parts) == 1 else merge_batch_stats(parts)
