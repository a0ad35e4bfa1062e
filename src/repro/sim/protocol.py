"""Event-level simulation of the VC protocol: the one protocol loop.

This is the *legible specification* of the protocol of Section II:

* each pattern attempt runs a **work + verification** segment of length
  ``T + V_P``, then a **checkpoint** segment of length ``C_P``;
* fail-stop errors interrupt any segment (work, verification,
  checkpoint, recovery) immediately — the platform then pays the
  constant downtime ``D`` (error-free by assumption) and a **recovery**
  segment ``R_P``, itself interruptible, before re-executing the
  pattern from the last verified checkpoint;
* silent errors arrive at rate :math:`\\lambda^s_P` but only during the
  computation part ``T``; they do not interrupt — they are *detected*
  by the verification at the end of the segment, which triggers a
  recovery (no downtime: the processors are alive) and re-execution.
  A silent error masked by a later fail-stop in the same attempt needs
  no detection since the attempt is discarded anyway.

Fail-stop errors come from one **persistent renewal stream**: the next
arrival is a point in cumulative *exposed time* (time excluding
downtime), segments consume exposed time, and the stream renews when an
arrival fires.  By default the stream is the paper's Poisson process of
rate :math:`\\lambda^f_P`; a :class:`~repro.sim.streams.WeibullArrivals`
law answers the robustness question the exponential assumption leaves
open, and :class:`repro.sim.nodes.NodePool` drives the same loop with
``P`` superposed per-node streams.  Silent errors remain Poisson (they
model independent radiation-induced bit flips, for which the memoryless
assumption is uncontroversial).

The closed-form samplers in :mod:`repro.sim.batch` and
:mod:`repro.sim.vectorized` reproduce the exponential case's
distribution much faster; the test suite holds all three against
Proposition 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from .streams import ArrivalProcess, ExponentialArrivals

__all__ = ["RunStats", "TimeBreakdown", "simulate_run"]


@dataclass
class TimeBreakdown:
    """Where the simulated time went, by protocol activity (seconds)."""

    useful_work: float = 0.0  #: work of successfully completed segments
    wasted_work: float = 0.0  #: work re-executed or cut short by errors
    verification: float = 0.0  #: completed verifications
    checkpoint: float = 0.0  #: completed checkpoints
    recovery: float = 0.0  #: completed recoveries
    downtime: float = 0.0  #: downtime after fail-stop errors
    lost: float = 0.0  #: partial segments destroyed by fail-stop errors

    @property
    def total(self) -> float:
        return (
            self.useful_work
            + self.wasted_work
            + self.verification
            + self.checkpoint
            + self.recovery
            + self.downtime
            + self.lost
        )


@dataclass
class RunStats:
    """Statistics of one simulated run (a sequence of patterns).

    ``total_time / (n_patterns * T * S(P))`` is the paper's simulated
    execution overhead; :func:`repro.sim.results.overhead_estimate`
    aggregates it across runs.
    """

    total_time: float
    n_patterns: int
    n_attempts: int
    n_fail_stop: int
    n_silent_struck: int
    n_silent_detected: int
    n_recoveries: int
    n_downtimes: int
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)


class _RenewalStream:
    """One fail-stop renewal stream on the exposed-time clock.

    The failure-stream interface :class:`_RenewalRun` drives: ``peek()``
    is the exposed-time instant of the next arrival, ``fail_and_renew()``
    consumes it and draws the next inter-arrival.
    :class:`repro.sim.nodes.NodePool` is the ``P``-stream superposition
    with the same interface.
    """

    def __init__(self, process: ArrivalProcess, rng: np.random.Generator) -> None:
        self.process = process
        self.rng = rng
        self._next = process.sample_interarrival(rng)

    def peek(self) -> float:
        return self._next

    def fail_and_renew(self) -> None:
        self._next += self.process.sample_interarrival(self.rng)


class _NeverFails:
    """The fail-stop stream of a platform with no fail-stop errors."""

    def peek(self) -> float:
        return np.inf


class _RenewalRun:
    """One VC-protocol run driven by a persistent failure stream.

    ``failures`` has the :class:`_RenewalStream` interface; its next
    arrival is cached in ``next_fail`` and refreshed only after a
    failure, so a segment costs one float compare.
    """

    def __init__(
        self,
        model: PatternModel,
        T: float,
        P: float,
        rng: np.random.Generator,
        failures,
    ) -> None:
        self.rng = rng
        self.T = float(T)
        self.failures = failures
        self.lam_s = float(model.errors.silent_rate(P))
        self.C = float(model.costs.checkpoint_cost(P))
        self.R = float(model.costs.recovery_cost(P))
        self.V = float(model.costs.verification_cost(P))
        self.D = float(model.costs.downtime)
        self.wall = 0.0  # wall-clock (includes downtime)
        self.exposed = 0.0  # exposure clock (excludes downtime)
        self.next_fail = failures.peek()
        self.stats = RunStats(
            total_time=0.0,
            n_patterns=0,
            n_attempts=0,
            n_fail_stop=0,
            n_silent_struck=0,
            n_silent_detected=0,
            n_recoveries=0,
            n_downtimes=0,
        )

    def run(self, n_patterns: int) -> RunStats:
        """Run ``n_patterns`` patterns and return the run's statistics."""
        for _ in range(n_patterns):
            self.run_pattern()
        self.stats.total_time = self.wall
        return self.stats

    def _run_segment(self, duration: float) -> float | None:
        """Consume exposed time; return elapsed-at-failure or None."""
        if self.next_fail < self.exposed + duration:
            elapsed = self.next_fail - self.exposed
            self.exposed = self.next_fail
            self.wall += elapsed
            self.stats.n_fail_stop += 1
            # Renew the stream at the arrival.
            self.failures.fail_and_renew()
            self.next_fail = self.failures.peek()
            return elapsed
        self.exposed += duration
        self.wall += duration
        return None

    def _downtime(self) -> None:
        # Downtime advances the wall clock only: errors cannot strike,
        # and the failure stream (defined on exposed time) is paused.
        self.wall += self.D
        self.stats.n_downtimes += 1
        self.stats.breakdown.downtime += self.D

    def _recover(self) -> None:
        while True:
            failed_at = self._run_segment(self.R)
            if failed_at is None:
                self.stats.n_recoveries += 1
                self.stats.breakdown.recovery += self.R
                return
            self.stats.breakdown.lost += failed_at
            self._downtime()

    def _silent_within(self, computed: float) -> bool:
        if self.lam_s <= 0.0 or computed <= 0.0:
            return False
        return self.rng.exponential(1.0 / self.lam_s) < computed

    def run_pattern(self) -> None:
        while True:
            self.stats.n_attempts += 1
            failed_at = self._run_segment(self.T + self.V)
            if failed_at is not None:
                if self._silent_within(min(failed_at, self.T)):
                    self.stats.n_silent_struck += 1
                self.stats.breakdown.lost += failed_at
                self._downtime()
                self._recover()
                continue
            if self._silent_within(self.T):
                self.stats.n_silent_struck += 1
                self.stats.n_silent_detected += 1
                self.stats.breakdown.wasted_work += self.T
                self.stats.breakdown.verification += self.V
                self._recover()
                continue
            failed_at = self._run_segment(self.C)
            if failed_at is not None:
                self.stats.breakdown.wasted_work += self.T
                self.stats.breakdown.verification += self.V
                self.stats.breakdown.lost += failed_at
                self._downtime()
                self._recover()
                continue
            self.stats.n_patterns += 1
            self.stats.breakdown.useful_work += self.T
            self.stats.breakdown.verification += self.V
            self.stats.breakdown.checkpoint += self.C
            return


def simulate_run(
    model: PatternModel,
    T: float,
    P: float,
    n_patterns: int,
    rng: np.random.Generator,
    fail_stop: ArrivalProcess | None = None,
) -> RunStats:
    """Simulate ``n_patterns`` consecutive patterns of the VC protocol.

    Parameters
    ----------
    model:
        Platform/application bundle (only errors and costs are used —
        overhead normalisation happens in :mod:`repro.sim.results`).
    T, P:
        The pattern parameters under test.
    n_patterns:
        Number of successful patterns to complete (the paper uses
        >= 500 per run).
    rng:
        Run-private generator (see :func:`repro.sim.rng.spawn_rngs`).
    fail_stop:
        The fail-stop inter-arrival law.  ``None`` uses the model's
        exponential rate :math:`\\lambda^f_P` (the paper's model); pass a
        :class:`~repro.sim.streams.WeibullArrivals` (typically built
        with ``from_mean(shape, 1/lambda_f_P)``) for the robustness
        studies.

    Returns
    -------
    RunStats
        Counters plus a full time breakdown; ``total_time`` is the
        simulated wall-clock for the whole run.
    """
    if n_patterns <= 0:
        raise SimulationError(f"n_patterns must be positive, got {n_patterns!r}")
    if T <= 0.0:
        raise SimulationError(f"pattern period must be positive, got {T!r}")
    if P <= 0.0:
        raise SimulationError(f"processor count must be positive, got {P!r}")
    if fail_stop is None:
        lam_f = float(model.errors.fail_stop_rate(P))
        fail_stop = ExponentialArrivals(lam_f) if lam_f > 0.0 else None
    failures = _NeverFails() if fail_stop is None else _RenewalStream(fail_stop, rng)
    return _RenewalRun(model, T, P, rng, failures).run(n_patterns)
