"""Vectorised Monte-Carlo simulation of the VC protocol.

The reference simulator (:mod:`repro.sim.protocol`) steps through every
event; fine for one run, too slow for the paper's 500-runs-by-500-
patterns grids times dozens of parameter points.  This module samples
the **exact same distribution** without an event loop by exploiting the
renewal structure of a pattern:

* an attempt succeeds with probability
  :math:`p = e^{-\\lambda^f (T+V+C) - \\lambda^s T}`, so the number of
  failed attempts per pattern is geometric;
* conditioned on failing, an attempt fails in exactly one of three ways:

  - **A** — fail-stop during work+verification
    (prob :math:`1 - e^{-\\lambda^f (T+V)}`): costs a truncated
    exponential over ``T+V``, plus downtime, plus one recovery;
  - **B** — no fail-stop, silent error detected by the verification
    (prob :math:`e^{-\\lambda^f (T+V)}(1 - e^{-\\lambda^s T})`): costs
    the full ``T+V`` plus one recovery (no downtime);
  - **C** — no fail-stop in work+verify, no silent, fail-stop during
    the checkpoint: costs ``T+V`` plus a truncated exponential over
    ``C``, plus downtime, plus one recovery;

* each recovery itself suffers a geometric number of fail-stop
  interruptions (rate :math:`e^{-\\lambda^f R}` of success), each
  costing a truncated exponential over ``R`` plus downtime.

Every step above is a closed-form sample (geometric counts, inverse-CDF
truncated exponentials) evaluated in bulk numpy arrays; per-run sums
use ``bincount`` segment reductions.  The equivalence with the
event-level protocol loop is asserted statistically in the test suite, and
the empirical mean converges to Proposition 1 by construction.

The scalar protocol rates (:class:`PatternRates`) and the per-failure
cost sampler (:func:`sample_failure_costs`) are shared with the
aggregated backend in :mod:`repro.sim.vectorized`, which collapses the
per-pattern geometric draws into one negative-binomial draw per run.
This module also hosts the chunking helpers (:func:`plan_chunks`,
:func:`plan_chunk_jobs`, :func:`merge_batch_stats`) both array backends
use to run giant budgets with bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError

__all__ = [
    "BatchStats",
    "PatternRates",
    "simulate_batch",
    "sample_failure_costs",
    "truncated_exponential",
    "plan_chunks",
    "plan_chunk_jobs",
    "merge_batch_stats",
    "check_failure_budget",
]

#: Soft cap on ``runs x patterns`` cells simulated per chunk; keeps the
#: transient arrays of a paper-fidelity sweep in the tens of megabytes.
#: It also caps a chunk's *expected failed attempts*, which size the
#: samplers' per-failure arrays (see :func:`check_failure_budget`).
MAX_CHUNK_ELEMENTS = 4_000_000


def check_failure_budget(rates: "PatternRates", n_cells: int) -> None:
    """Refuse a chunk whose expected failed attempts exceed the cap.

    The array samplers allocate per failed attempt, and a pattern fails
    ``1/p_success - 1`` times on average, so a chunk of ``n_cells``
    patterns expects ``n_cells * (1/p_success - 1)`` of them.  That grows
    as ``exp(lambda * P * T)``: a period far beyond the optimum would
    need gigabytes.  Raising here, before any array exists, turns that
    into a :class:`SimulationError` instead of an out-of-memory kill.
    """
    p = rates.p_success
    expected = float("inf") if p <= 0.0 else n_cells * (1.0 / p - 1.0)
    if expected > MAX_CHUNK_ELEMENTS:
        raise SimulationError(
            f"a chunk of {n_cells} patterns expects {expected:.3g} failed "
            f"attempts (success probability {p:.3g} per attempt), more than "
            f"the {MAX_CHUNK_ELEMENTS} the samplers hold in memory"
        )


def truncated_exponential(
    rng: np.random.Generator, lam: float, window: float, size: int
) -> np.ndarray:
    """Sample ``Exp(lam)`` arrivals conditioned on landing inside ``window``.

    Inverse-CDF form :math:`-\\log(1 - u\\,q)/\\lambda` with
    :math:`q = 1 - e^{-\\lambda W}`, stable for tiny ``lam * window``.
    This is the "time lost" distribution whose mean is
    :func:`repro.core.errors.expected_time_lost`.
    """
    if size == 0:
        return np.empty(0)
    if lam <= 0.0:
        raise SimulationError("truncated exponential needs a positive rate")
    q = -np.expm1(-lam * window)
    return -np.log1p(-rng.random(size) * q) / lam


@dataclass(frozen=True)
class PatternRates:
    """Scalar rates of PATTERN(T, P) shared by the array backends.

    Plain floats only, so instances pickle cheaply across process
    boundaries when chunks are dispatched to a worker pool.
    """

    T: float
    A: float  #: work + verification segment length (T + V)
    C: float
    R: float
    V: float
    D: float
    lam_f: float
    lam_s: float
    p_ok_A: float
    p_ok_C: float
    p_ok_R: float
    p_success: float

    @classmethod
    def from_model(cls, model: PatternModel, T: float, P: float) -> "PatternRates":
        if T <= 0.0:
            raise SimulationError(f"pattern period must be positive, got {T!r}")
        if P <= 0.0:
            raise SimulationError(f"processor count must be positive, got {P!r}")
        lam_f = float(model.errors.fail_stop_rate(P))
        lam_s = float(model.errors.silent_rate(P))
        C = float(model.costs.checkpoint_cost(P))
        R = float(model.costs.recovery_cost(P))
        V = float(model.costs.verification_cost(P))
        D = float(model.costs.downtime)
        A = T + V
        p_ok_A = float(np.exp(-lam_f * A))
        p_ok_S = float(np.exp(-lam_s * T))
        p_ok_C = float(np.exp(-lam_f * C))
        p_ok_R = float(np.exp(-lam_f * R))
        return cls(
            T=float(T),
            A=A,
            C=C,
            R=R,
            V=V,
            D=D,
            lam_f=lam_f,
            lam_s=lam_s,
            p_ok_A=p_ok_A,
            p_ok_C=p_ok_C,
            p_ok_R=p_ok_R,
            p_success=p_ok_A * p_ok_S * p_ok_C,
        )

    @property
    def base_pattern_time(self) -> float:
        """Error-free duration of one pattern: work + verify + checkpoint."""
        return self.A + self.C


@dataclass(frozen=True)
class BatchStats:
    """Aggregate outcome of a vectorised simulation batch.

    Attributes
    ----------
    run_times:
        Simulated wall-clock per run, shape ``(n_runs,)``.
    n_patterns:
        Patterns per run (all runs complete the same count).
    n_attempts:
        Total pattern attempts across all runs.
    n_fail_stop / n_silent_detected / n_recoveries / n_downtimes:
        Event totals across all runs (masked silent strikes are not
        modelled here — they cost nothing; the DES reference counts
        them for curiosity).
    """

    run_times: np.ndarray
    n_patterns: int
    n_attempts: int
    n_fail_stop: int
    n_silent_detected: int
    n_recoveries: int
    n_downtimes: int

    @property
    def n_runs(self) -> int:
        return int(self.run_times.size)

    @property
    def mean_pattern_time(self) -> float:
        """Empirical :math:`E(T, P)` — converges to Proposition 1."""
        return float(self.run_times.mean() / self.n_patterns)


def sample_failure_costs(
    rng: np.random.Generator, rates: PatternRates, n_failures: int
) -> tuple[np.ndarray, int, int, int, int]:
    """Sample the wall-clock cost of ``n_failures`` iid failed attempts.

    Classifies each failure into outcome A/B/C with masked array
    arithmetic, adds the truncated-exponential time lost, the downtime,
    and the (retried) recovery.  Returns ``(cost, n_A, n_B, n_C, n_sub)``
    where ``n_sub`` counts fail-stop interruptions of recoveries.
    """
    if n_failures == 0:
        return np.empty(0), 0, 0, 0, 0

    # Classify each failure: A (fail-stop in work+verify), B (silent
    # detected), C (fail-stop in checkpoint) — conditional on failure.
    q_A = -np.expm1(-rates.lam_f * rates.A)
    q_B = rates.p_ok_A * -np.expm1(-rates.lam_s * rates.T)
    q_fail = 1.0 - rates.p_success
    u = rng.random(n_failures)
    is_A = u < q_A / q_fail
    is_C = u >= (q_A + q_B) / q_fail
    is_B = ~is_A & ~is_C
    n_A = int(is_A.sum())
    n_B = int(is_B.sum())
    n_C = int(is_C.sum())

    cost = np.empty(n_failures)
    if n_A:
        cost[is_A] = truncated_exponential(rng, rates.lam_f, rates.A, n_A) + rates.D
    if n_B:
        cost[is_B] = rates.A
    if n_C:
        cost[is_C] = (
            rates.A + truncated_exponential(rng, rates.lam_f, rates.C, n_C) + rates.D
        )

    # Every failure triggers exactly one recovery; the recovery itself
    # is retried through a geometric number of fail-stop interruptions.
    if rates.lam_f > 0.0:
        rec_failures = rng.geometric(rates.p_ok_R, size=n_failures) - 1
        n_sub = int(rec_failures.sum())
        sub_losses = truncated_exponential(rng, rates.lam_f, rates.R, n_sub)
        per_failure_loss = np.bincount(
            np.repeat(np.arange(n_failures), rec_failures),
            weights=sub_losses,
            minlength=n_failures,
        )
        cost += rates.R + rec_failures * rates.D + per_failure_loss
    else:
        n_sub = 0
        cost += rates.R

    return cost, n_A, n_B, n_C, n_sub


def _error_free_stats(rates: PatternRates, n_runs: int, n_patterns: int) -> BatchStats:
    return BatchStats(
        run_times=np.full(n_runs, n_patterns * rates.base_pattern_time),
        n_patterns=n_patterns,
        n_attempts=n_runs * n_patterns,
        n_fail_stop=0,
        n_silent_detected=0,
        n_recoveries=0,
        n_downtimes=0,
    )


def _simulate_batch_rates(
    rates: PatternRates, n_runs: int, n_patterns: int, rng: np.random.Generator
) -> BatchStats:
    """Core of :func:`simulate_batch` on pre-computed scalar rates."""
    if n_runs <= 0 or n_patterns <= 0:
        raise SimulationError("n_runs and n_patterns must be positive")

    if rates.p_success >= 1.0:  # error-free: every attempt succeeds
        return _error_free_stats(rates, n_runs, n_patterns)
    check_failure_budget(rates, n_runs * n_patterns)

    n_total = n_runs * n_patterns
    base_time = n_patterns * rates.base_pattern_time

    # Failed attempts per pattern: geometric trials minus the success.
    attempts = rng.geometric(rates.p_success, size=n_total)
    failures = attempts - 1
    n_failures = int(failures.sum())
    run_of_pattern = np.repeat(np.arange(n_runs), n_patterns)
    run_of_failure = np.repeat(run_of_pattern, failures)

    cost, n_A, n_B, n_C, n_sub = sample_failure_costs(rng, rates, n_failures)
    run_times = base_time + np.bincount(run_of_failure, weights=cost, minlength=n_runs)

    return BatchStats(
        run_times=run_times,
        n_patterns=n_patterns,
        n_attempts=int(attempts.sum()),
        n_fail_stop=n_A + n_C + n_sub,
        n_silent_detected=n_B,
        n_recoveries=n_failures,
        n_downtimes=n_A + n_C + n_sub,
    )


def simulate_batch(
    model: PatternModel,
    T: float,
    P: float,
    n_runs: int,
    n_patterns: int,
    rng: np.random.Generator,
) -> BatchStats:
    """Simulate ``n_runs`` independent runs of ``n_patterns`` patterns each.

    Distribution-identical to looping :func:`repro.sim.protocol.simulate_run`,
    about 20x faster at 20 runs x 50 patterns
    (``benchmarks/test_bench_simulators.py``).
    """
    return _simulate_batch_rates(
        PatternRates.from_model(model, T, P), n_runs, n_patterns, rng
    )


# -- chunked dispatch --------------------------------------------------------


def plan_chunks(n_runs: int, runs_per_chunk: int) -> list[int]:
    """Split ``n_runs`` into consecutive chunks of at most ``runs_per_chunk``.

    The plan is a pure function of its arguments, so a fixed master seed
    reproduces the same result wherever the chunks run.
    """
    if n_runs <= 0:
        raise SimulationError(f"n_runs must be positive, got {n_runs!r}")
    if runs_per_chunk <= 0:
        raise SimulationError(
            f"runs_per_chunk must be positive, got {runs_per_chunk!r}"
        )
    full, rest = divmod(n_runs, runs_per_chunk)
    return [runs_per_chunk] * full + ([rest] if rest else [])


def merge_batch_stats(parts: Sequence[BatchStats]) -> BatchStats:
    """Concatenate per-chunk results into one :class:`BatchStats`."""
    if not parts:
        raise SimulationError("no chunk results to merge")
    counts = {p.n_patterns for p in parts}
    if len(counts) != 1:
        raise SimulationError(f"chunks disagree on pattern count: {sorted(counts)}")
    return BatchStats(
        run_times=np.concatenate([p.run_times for p in parts]),
        n_patterns=counts.pop(),
        n_attempts=sum(p.n_attempts for p in parts),
        n_fail_stop=sum(p.n_fail_stop for p in parts),
        n_silent_detected=sum(p.n_silent_detected for p in parts),
        n_recoveries=sum(p.n_recoveries for p in parts),
        n_downtimes=sum(p.n_downtimes for p in parts),
    )


def _batch_chunk_worker(
    rates: PatternRates,
    n_runs: int,
    n_patterns: int,
    seed: np.random.SeedSequence,
) -> BatchStats:
    """Module-level so a process pool can pickle it."""
    return _simulate_batch_rates(rates, n_runs, n_patterns, np.random.default_rng(seed))


def plan_chunk_jobs(
    n_runs: int,
    n_patterns: int,
    seed,
) -> tuple[list[int], list[np.random.SeedSequence]]:
    """The chunk plan and its spawned seed streams, as pure functions.

    This is the single source of the chunk policy — the largest run
    count keeping a chunk under :data:`MAX_CHUNK_ELEMENTS` cells, and
    the per-chunk seed spawning — shared by
    :func:`repro.sim.vectorized.simulate_vectorized` and the fused
    planner in :mod:`repro.sim.plan`, so the two can never drift apart
    (which would break the planner's bit-identity guarantee and poison
    its cache keys).
    """
    from .rng import spawn_seed_sequences

    runs_per_chunk = max(1, min(n_runs, MAX_CHUNK_ELEMENTS // max(1, n_patterns)))
    plan = plan_chunks(n_runs, runs_per_chunk)
    return plan, spawn_seed_sequences(len(plan), seed)
