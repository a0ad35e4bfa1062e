"""Aggregation of Monte-Carlo results into overhead estimates.

The paper's simulated "execution overhead" (Section IV-A) is the ratio
of the application's execution time with faults to its fault-free
*sequential* execution time: for a run of ``n`` patterns of length
``T`` on ``P`` processors, each pattern performs ``T * S(P)`` seconds
of sequential-equivalent work, so

.. math::

    \\hat H = \\frac{\\text{total simulated time}}{n \\, T \\, S(P)} .

Its error-free floor is :math:`H(P) \\approx \\alpha`, matching the
``~0.11`` levels of Figure 2 at ``alpha = 0.1``.  Estimates carry a
normal-approximation 95% confidence interval over the independent runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from .batch import BatchStats
from .protocol import RunStats

__all__ = ["OverheadEstimate", "overhead_samples", "overhead_estimate"]

#: Two-sided 95% normal quantile.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class OverheadEstimate:
    """Sample statistics of the simulated execution overhead.

    Attributes
    ----------
    mean / std / stderr:
        Sample mean, standard deviation (ddof=1) and standard error
        across runs.
    ci_low / ci_high:
        Normal-approximation 95% confidence interval for the mean.
    n_runs:
        Number of independent runs aggregated.
    """

    mean: float
    std: float
    stderr: float
    ci_low: float
    ci_high: float
    n_runs: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "OverheadEstimate":
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise SimulationError("cannot estimate from zero samples")
        mean = float(samples.mean())
        if samples.size == 1:
            return cls(mean=mean, std=0.0, stderr=0.0, ci_low=mean, ci_high=mean, n_runs=1)
        std = float(samples.std(ddof=1))
        stderr = std / np.sqrt(samples.size)
        return cls(
            mean=mean,
            std=std,
            stderr=stderr,
            ci_low=mean - _Z95 * stderr,
            ci_high=mean + _Z95 * stderr,
            n_runs=int(samples.size),
        )

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the 95% CI (used by the tests)."""
        return self.ci_low <= value <= self.ci_high

    @property
    def halfwidth(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


def overhead_samples(
    model: PatternModel,
    T: float,
    P: float,
    run_times: np.ndarray,
    n_patterns: int,
) -> np.ndarray:
    """Convert per-run wall-clock times into per-run overhead samples."""
    if n_patterns <= 0:
        raise SimulationError(f"n_patterns must be positive, got {n_patterns!r}")
    work = n_patterns * T * float(model.speedup.speedup(P))
    return np.asarray(run_times, dtype=float) / work


def overhead_estimate(
    model: PatternModel,
    T: float,
    P: float,
    results: BatchStats | Iterable[RunStats],
) -> OverheadEstimate:
    """Overhead estimate from either simulator's output.

    Accepts a :class:`~repro.sim.batch.BatchStats` (vectorised
    simulator) or an iterable of :class:`~repro.sim.protocol.RunStats`
    (event-level protocol loop).
    """
    if isinstance(results, BatchStats):
        samples = overhead_samples(model, T, P, results.run_times, results.n_patterns)
        return OverheadEstimate.from_samples(samples)
    stats_list = list(results)
    if not stats_list:
        raise SimulationError("no run statistics supplied")
    counts = {s.n_patterns for s in stats_list}
    if len(counts) != 1:
        raise SimulationError(f"runs disagree on pattern count: {sorted(counts)}")
    times = np.array([s.total_time for s in stats_list])
    return OverheadEstimate.from_samples(
        overhead_samples(model, T, P, times, counts.pop())
    )
