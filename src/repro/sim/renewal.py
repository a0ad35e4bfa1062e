"""VC-protocol simulation under general renewal failure processes.

The reference simulator (:mod:`repro.sim.protocol`) resamples the
fail-stop clock at each segment — valid *only* for the exponential law
(memorylessness).  This variant keeps a **persistent renewal stream**:
the next fail-stop arrival is a point in cumulative *exposed time*
(time excluding downtime), segments consume exposed time, and the
stream renews when an arrival fires.  With exponential arrivals it is
distribution-identical to the reference (asserted statistically in the
tests); with Weibull arrivals it answers the robustness question the
paper's exponential assumption leaves open.

Silent errors remain Poisson (they model independent radiation-induced
bit flips, for which the memoryless assumption is uncontroversial);
only the fail-stop law is swappable.
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from .protocol import RunStats
from .streams import ArrivalProcess, ExponentialArrivals

__all__ = ["simulate_run_renewal"]


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


def simulate_run_renewal(
    model: PatternModel,
    T: float,
    P: float,
    n_patterns: int,
    rng: np.random.Generator,
    fail_stop: ArrivalProcess | None = None,
) -> RunStats:
    """Simulate the VC protocol with a persistent renewal fail-stop stream.

    Parameters
    ----------
    fail_stop:
        The inter-arrival law.  ``None`` uses the model's exponential
        fail-stop rate (distribution-identical to
        :func:`repro.sim.protocol.simulate_run`); pass a
        :class:`~repro.sim.streams.WeibullArrivals` (typically built
        with ``from_mean(shape, 1/lambda_f_P)``) for the robustness
        studies.
    """
    if n_patterns <= 0:
        raise SimulationError(f"n_patterns must be positive, got {n_patterns!r}")
    if T <= 0.0 or P <= 0.0:
        raise SimulationError("T and P must be positive")
    if fail_stop is None:
        lam_f = float(model.errors.fail_stop_rate(P))
        fail_stop = ExponentialArrivals(lam_f) if lam_f > 0.0 else None
    failures = _NeverFails() if fail_stop is None else _RenewalStream(fail_stop, rng)
    return _RenewalRun(model, T, P, rng, failures).run(n_patterns)
