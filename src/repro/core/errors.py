"""Failure model: fail-stop and silent errors on a P-processor platform.

Following Section II of the paper, each individual processor has error
rate :math:`\\lambda_{ind} = 1/\\mu_{ind}` accounting for *both* error
types; a fraction ``f`` of errors are fail-stop and ``s = 1 - f`` are
silent.  Both arrival processes are Poisson and independent, so on ``P``
processors (Proposition 1.2 of the Hérault/Robert book [13]):

.. math::

    \\lambda^f_P = f \\lambda_{ind} P, \\qquad
    \\lambda^s_P = s \\lambda_{ind} P.

The probability of at least one fail-stop error within a window of
length ``W`` is :math:`q^f_P(W) = 1 - e^{-\\lambda^f_P W}` and similarly
for silent errors.  The expected time lost when a fail-stop error strikes
within a window of length ``W`` (the truncated-exponential mean used in
the proof of Proposition 1) is

.. math::

    E_{lost}(W) = \\frac{1}{\\lambda} - \\frac{W}{e^{\\lambda W} - 1}.

All functions are vectorised over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from ..units import SECONDS_PER_YEAR
from .speedup import positive_processors

__all__ = ["ErrorModel", "expected_time_lost"]


@dataclass(frozen=True)
class ErrorModel:
    """Per-processor error rate split into fail-stop and silent fractions.

    Parameters
    ----------
    lambda_ind:
        Total error rate of one processor, in 1/seconds (``1/mu_ind``).
    fail_stop_fraction:
        Fraction ``f`` in ``[0, 1]`` of errors that are fail-stop; the
        remaining ``s = 1 - f`` are silent data corruptions.
    """

    lambda_ind: float
    fail_stop_fraction: float

    def __post_init__(self) -> None:
        # Array-tolerant validation: the batch optimisers stack many
        # models into one whose fields are per-column arrays.
        lam = np.asarray(self.lambda_ind)
        if np.any(lam < 0.0) or not np.all(np.isfinite(lam)):
            raise InvalidParameterError(
                f"lambda_ind must be finite and >= 0, got {self.lambda_ind!r}"
            )
        frac = np.asarray(self.fail_stop_fraction)
        if np.any(frac < 0.0) or np.any(frac > 1.0) or np.any(np.isnan(frac)):
            raise InvalidParameterError(
                f"fail-stop fraction f must be in [0, 1], got {self.fail_stop_fraction!r}"
            )

    # -- basic derived quantities ---------------------------------------

    @property
    def f(self) -> float:
        """Shorthand for the fail-stop fraction (paper notation)."""
        return self.fail_stop_fraction

    @property
    def s(self) -> float:
        """Silent fraction ``s = 1 - f`` (paper notation)."""
        return 1.0 - self.fail_stop_fraction

    @property
    def silent_fraction(self) -> float:
        return self.s

    @property
    def mtbf_ind(self) -> float:
        """Individual-processor MTBF :math:`\\mu_{ind} = 1/\\lambda_{ind}`."""
        if self.lambda_ind == 0.0:
            return np.inf
        return 1.0 / self.lambda_ind

    @property
    def mtbf_ind_years(self) -> float:
        """Individual MTBF in Julian years (how the paper quotes it)."""
        return self.mtbf_ind / SECONDS_PER_YEAR

    # -- platform-level rates -------------------------------------------

    def fail_stop_rate(self, P):
        """:math:`\\lambda^f_P = f \\lambda_{ind} P`."""
        return self._fail_stop_rate(positive_processors(P))

    def _fail_stop_rate(self, P):
        return self.fail_stop_fraction * self.lambda_ind * P

    def silent_rate(self, P):
        """:math:`\\lambda^s_P = s \\lambda_{ind} P`."""
        return self._silent_rate(positive_processors(P))

    def _silent_rate(self, P):
        return self.s * self.lambda_ind * P

    def total_rate(self, P):
        """Total platform error rate :math:`\\lambda_{ind} P`."""
        return self.lambda_ind * positive_processors(P)

    def platform_mtbf(self, P):
        """Platform MTBF :math:`\\mu_{ind}/P`."""
        rate = self.total_rate(P)
        with np.errstate(divide="ignore"):
            return np.where(np.asarray(rate) > 0.0, 1.0 / np.asarray(rate), np.inf) \
                if np.ndim(rate) else (np.inf if rate == 0.0 else 1.0 / rate)

    @property
    def effective_lambda(self) -> float:
        """First-order weight :math:`(f/2 + s)\\,\\lambda_{ind}`.

        This combination appears in every closed-form of Theorems 1-3:
        fail-stop errors lose on average *half* a period (factor 1/2)
        while silent errors always lose the full period (factor 1).
        """
        return (self.fail_stop_fraction / 2.0 + self.s) * self.lambda_ind

    # -- probabilities ----------------------------------------------------

    def p_fail_stop(self, P, W):
        """:math:`q^f_P(W) = 1 - e^{-\\lambda^f_P W}` (scalar or array)."""
        lam = self.fail_stop_rate(P)
        return -np.expm1(-lam * np.asarray(W, dtype=float)) if np.ndim(W) or np.ndim(P) \
            else -np.expm1(-lam * float(W))

    def p_silent(self, P, W):
        """:math:`q^s_P(W) = 1 - e^{-\\lambda^s_P W}` (scalar or array)."""
        lam = self.silent_rate(P)
        return -np.expm1(-lam * np.asarray(W, dtype=float)) if np.ndim(W) or np.ndim(P) \
            else -np.expm1(-lam * float(W))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_mtbf(cls, mtbf_seconds: float, fail_stop_fraction: float) -> "ErrorModel":
        """Build from an individual MTBF given in seconds."""
        if mtbf_seconds <= 0.0:
            raise InvalidParameterError(f"MTBF must be positive, got {mtbf_seconds!r}")
        return cls(lambda_ind=1.0 / mtbf_seconds, fail_stop_fraction=fail_stop_fraction)

    @classmethod
    def fail_stop_only(cls, lambda_ind: float) -> "ErrorModel":
        """All errors fail-stop (``f = 1``) — the classic Young/Daly world."""
        return cls(lambda_ind=lambda_ind, fail_stop_fraction=1.0)

    @classmethod
    def silent_only(cls, lambda_ind: float) -> "ErrorModel":
        """All errors silent (``f = 0``)."""
        return cls(lambda_ind=lambda_ind, fail_stop_fraction=0.0)

    def with_lambda(self, lambda_ind: float) -> "ErrorModel":
        """Copy with a different individual rate (Figure 5/6 sweeps)."""
        return ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=self.fail_stop_fraction)


def expected_time_lost(lam, W):
    """Expected time lost before an error within a window of length ``W``.

    For an exponential arrival with rate ``lam`` *conditioned on striking
    before W*:

    .. math::

        E_{lost}(W) = \\frac{1}{\\lambda} - \\frac{W}{e^{\\lambda W} - 1}.

    Numerically stable for ``lam * W`` down to 0 (limit ``W/2``) thanks to
    ``expm1``; vectorised over arrays.

    >>> round(expected_time_lost(0.0, 10.0), 6)
    5.0
    """
    lam_arr = np.asarray(lam, dtype=float)
    W_arr = np.asarray(W, dtype=float)
    if np.any(lam_arr < 0.0):
        raise InvalidParameterError(f"rate must be >= 0, got {lam!r}")
    if np.any(W_arr < 0.0):
        raise InvalidParameterError(f"window must be >= 0, got {W!r}")

    x = lam_arr * W_arr
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        generic = 1.0 / lam_arr - W_arr / np.expm1(x)
    # Small-x series W (1/2 - x/12 + x^3/720 - ...): the generic form
    # subtracts two O(1/lambda) quantities and loses ~x digits there.
    small = x < 1e-3
    series = W_arr * (0.5 - x / 12.0 + x**3 / 720.0)
    result = np.where(small, series, generic)
    if np.ndim(lam) == 0 and np.ndim(W) == 0:
        return float(result)
    return result
