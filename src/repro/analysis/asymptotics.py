"""Log-log slope fitting for the asymptotic-order validations.

Figures 5 and 6 of the paper overlay reference power laws
(:math:`P^* = \\lambda^{-1/4}`, :math:`T^* = \\lambda^{-1/2}`, ...) on
the measured optima.  The harness goes one step further and *fits* the
empirical order by least squares in log-log space, so the shape checks
in EXPERIMENTS.md are quantitative: a fitted slope of ``-0.252`` against
a predicted ``-1/4`` passes; ``-0.4`` would not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = ["SlopeFit", "fit_loglog_slope"]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit ``log10(y) = slope * log10(x) + intercept``.

    ``r_squared`` is the coefficient of determination in log space; the
    paper's power laws fit with ``r^2 > 0.999`` over four decades.
    """

    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def predict(self, x):
        """Evaluate the fitted power law at ``x`` (scalar or array)."""
        return 10.0**self.intercept * np.asarray(x, dtype=float) ** self.slope

    def matches(self, expected_slope: float, tol: float = 0.05) -> bool:
        """Whether the fitted slope is within ``tol`` of the prediction."""
        return abs(self.slope - expected_slope) <= tol


def fit_loglog_slope(x, y) -> SlopeFit:
    """Fit a power law ``y ~ x^slope`` by least squares in log-log space.

    Requires strictly positive data and at least two points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidParameterError("x and y must be 1-D arrays of equal length")
    if x.size < 2:
        raise InvalidParameterError("need at least two points to fit a slope")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise InvalidParameterError("power-law fits need strictly positive data")
    lx = np.log10(x)
    ly = np.log10(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    predicted = slope * lx + intercept
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    # Constant data yields ss_tot at round-off scale: call that a perfect fit
    # rather than dividing noise by noise.
    scale = max(1.0, float(np.sum(ly**2)))
    r_squared = 1.0 if ss_tot <= 1e-24 * scale else 1.0 - ss_res / ss_tot
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        n_points=int(x.size),
    )

