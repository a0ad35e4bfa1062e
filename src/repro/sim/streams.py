"""Failure arrival processes: exponential and beyond.

Section II assumes Poisson (exponential inter-arrival) error processes,
which makes the analysis tractable but is an idealisation — field
studies commonly fit platform failures with **Weibull** inter-arrivals
of shape < 1 (bursty: a failure makes the next one more likely soon).
This module abstracts the arrival law so the protocol simulator
(:func:`repro.sim.protocol.simulate_run`) can quantify how robust the
paper's exponential-optimal patterns are under non-memoryless failures.

Arrival processes are *renewal* processes: inter-arrival times are
i.i.d. draws; the clock renews at each arrival.  Streams live in
"exposed time" — time during which errors can strike (everything except
the downtime, which the paper defines as error-free).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = ["ArrivalProcess", "ExponentialArrivals", "WeibullArrivals"]


class ArrivalProcess(ABC):
    """An i.i.d. inter-arrival law for a renewal failure process."""

    @abstractmethod
    def sample_interarrival(self, rng: np.random.Generator) -> float:
        """Draw one inter-arrival time (seconds of exposed time)."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Mean inter-arrival time (the process MTBF)."""

    @property
    def rate(self) -> float:
        """Long-run arrival rate ``1/mean``."""
        return 1.0 / self.mean


@dataclass(frozen=True)
class ExponentialArrivals(ArrivalProcess):
    """Poisson arrivals — the paper's assumption (memoryless)."""

    lam: float

    def __post_init__(self) -> None:
        if self.lam <= 0.0 or not math.isfinite(self.lam):
            raise InvalidParameterError(f"rate must be positive, got {self.lam!r}")

    def sample_interarrival(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.lam))

    @property
    def mean(self) -> float:
        return 1.0 / self.lam


@dataclass(frozen=True)
class WeibullArrivals(ArrivalProcess):
    """Weibull inter-arrivals with shape ``shape`` and scale ``scale``.

    ``shape < 1`` models infant-mortality-heavy platforms (bursty
    failures; the common HPC field fit is shape ~ 0.5-0.8);
    ``shape = 1`` is exactly exponential; ``shape > 1`` models wear-out.
    Mean inter-arrival: ``scale * Gamma(1 + 1/shape)``.
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if self.shape <= 0.0 or not math.isfinite(self.shape):
            raise InvalidParameterError(f"shape must be positive, got {self.shape!r}")
        if self.scale <= 0.0 or not math.isfinite(self.scale):
            raise InvalidParameterError(f"scale must be positive, got {self.scale!r}")

    @classmethod
    def from_mean(cls, shape: float, mean: float) -> "WeibullArrivals":
        """Build with a prescribed mean inter-arrival (match an MTBF).

        >>> w = WeibullArrivals.from_mean(0.7, 3600.0)
        >>> round(w.mean, 6)
        3600.0
        """
        if mean <= 0.0:
            raise InvalidParameterError(f"mean must be positive, got {mean!r}")
        if shape <= 0.0:
            raise InvalidParameterError(f"shape must be positive, got {shape!r}")
        scale = mean / math.gamma(1.0 + 1.0 / shape)
        return cls(shape=shape, scale=scale)

    def sample_interarrival(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    @property
    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)
