"""Application speedup profiles.

The paper studies jobs whose speedup obeys **Amdahl's law** (Eq. (1)):

.. math::

    S(P) = \\frac{1}{\\alpha + (1-\\alpha)/P},

where :math:`\\alpha` is the inherently sequential fraction of the work.
The *execution overhead* is defined as :math:`H(P) = 1/S(P)`; it is the
time needed per unit of sequential work.

The paper's future-work section calls for "jobs with different speedup
profiles", so the module is organised around an abstract
:class:`SpeedupModel` with Amdahl as the primary concrete profile plus
Gustafson (scaled speedup) and a power-law profile as extension hooks.
All profiles are vectorised: ``P`` may be a scalar or a numpy array.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = [
    "SpeedupModel",
    "AmdahlSpeedup",
    "PerfectSpeedup",
    "GustafsonSpeedup",
    "PowerLawSpeedup",
]


def positive_processors(P):
    """Check ``P > 0`` and return it as a float or a float ndarray.

    The one processor-count validator of :mod:`repro.core`.  NaN
    passes (``NaN <= 0`` is false), as it always has.
    """
    arr = np.asarray(P, dtype=float)
    if np.any(arr <= 0.0):
        raise InvalidParameterError(f"processor count must be positive, got {P!r}")
    return arr if np.ndim(P) else float(arr)


class SpeedupModel(ABC):
    """Failure-free speedup profile :math:`S(P)` of a parallel application."""

    @abstractmethod
    def speedup(self, P):
        """Speedup :math:`S(P)` on ``P`` processors (scalar or array)."""

    @abstractmethod
    def overhead(self, P):
        """Execution overhead :math:`H(P) = 1/S(P)` (scalar or array)."""

    def _overhead(self, P):
        """:meth:`overhead` at a ``P`` :func:`positive_processors` returned."""
        return self.overhead(P)

    @abstractmethod
    def overhead_derivative(self, P):
        """Derivative :math:`dH/dP`, used by numerical optimisers."""

    @property
    @abstractmethod
    def asymptotic_overhead(self) -> float:
        """:math:`\\lim_{P\\to\\infty} H(P)` — the overhead floor."""

    def efficiency(self, P):
        """Parallel efficiency :math:`S(P)/P`."""
        return self.speedup(P) / np.asarray(P, dtype=float)

    def __call__(self, P):
        return self.speedup(P)


@dataclass(frozen=True)
class AmdahlSpeedup(SpeedupModel):
    """Amdahl's law with sequential fraction ``alpha`` (paper Eq. (1)).

    ``alpha = 0`` degenerates to a perfectly parallel job
    (:math:`S(P) = P`, Section III-D case 4); ``alpha = 1`` is a fully
    sequential job.

    >>> AmdahlSpeedup(0.1).speedup(np.inf)
    10.0
    """

    alpha: float

    def __post_init__(self) -> None:
        # Array-tolerant: the batch optimisers stack models into one
        # whose alpha is a per-column array.
        alpha = np.asarray(self.alpha)
        if np.any(alpha < 0.0) or np.any(alpha > 1.0) or np.any(np.isnan(alpha)):
            raise InvalidParameterError(
                f"sequential fraction alpha must be in [0, 1], got {self.alpha!r}"
            )

    def speedup(self, P):
        return 1.0 / self.overhead(P)

    def overhead(self, P):
        return self._overhead(positive_processors(P))

    def _overhead(self, P):
        return self.alpha + (1.0 - self.alpha) / P

    def overhead_derivative(self, P):
        P = positive_processors(P)
        return -(1.0 - self.alpha) / P**2

    @property
    def asymptotic_overhead(self) -> float:
        return self.alpha

    @property
    def is_perfectly_parallel(self) -> bool:
        """True when ``alpha == 0`` (case 4 of Section III-D)."""
        return self.alpha == 0.0

    def max_speedup(self) -> float:
        """Upper bound :math:`1/\\alpha` on the speedup (``inf`` if alpha=0)."""
        return np.inf if self.alpha == 0.0 else 1.0 / self.alpha


def PerfectSpeedup() -> AmdahlSpeedup:
    """Perfectly parallel profile :math:`S(P) = P` (Amdahl with alpha=0)."""
    return AmdahlSpeedup(0.0)


@dataclass(frozen=True)
class GustafsonSpeedup(SpeedupModel):
    """Gustafson's scaled speedup :math:`S(P) = \\alpha + (1-\\alpha)P`.

    Models weak scaling, where the parallel part of the workload grows
    with the machine.  Provided as an extension hook for the paper's
    "weak vs. strong scalability" future work; it is supported by the
    numerical optimiser but not by the first-order closed forms (which
    are Amdahl-specific).
    """

    alpha: float

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha)
        if np.any(alpha < 0.0) or np.any(alpha > 1.0) or np.any(np.isnan(alpha)):
            raise InvalidParameterError(
                f"sequential fraction alpha must be in [0, 1], got {self.alpha!r}"
            )

    def speedup(self, P):
        P = positive_processors(P)
        return self.alpha + (1.0 - self.alpha) * P

    def overhead(self, P):
        return 1.0 / self.speedup(P)

    def overhead_derivative(self, P):
        s = self.speedup(P)
        return -(1.0 - self.alpha) / s**2

    @property
    def asymptotic_overhead(self) -> float:
        return 0.0 if self.alpha < 1.0 else 1.0


@dataclass(frozen=True)
class PowerLawSpeedup(SpeedupModel):
    """Power-law profile :math:`S(P) = P^{\\gamma}` with ``0 < gamma <= 1``.

    A common empirical fit for communication-bound codes; ``gamma = 1``
    recovers the perfectly parallel profile.  Extension hook only.
    """

    gamma: float

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma)
        if np.any(gamma <= 0.0) or np.any(gamma > 1.0) or np.any(np.isnan(gamma)):
            raise InvalidParameterError(f"gamma must be in (0, 1], got {self.gamma!r}")

    def speedup(self, P):
        P = positive_processors(P)
        return P**self.gamma

    def overhead(self, P):
        return self._overhead(positive_processors(P))

    def _overhead(self, P):
        return P ** (-self.gamma)

    def overhead_derivative(self, P):
        P = positive_processors(P)
        return -self.gamma * P ** (-self.gamma - 1.0)

    @property
    def asymptotic_overhead(self) -> float:
        return 0.0
