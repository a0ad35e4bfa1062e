"""One-dimensional minimisation primitives.

The numerical "optimal" reference results in the paper's figures come
from minimising the *exact* overhead of Proposition 1 — a smooth,
strictly unimodal function of ``T`` (for fixed ``P``) and, in practice,
of ``log P`` (for ``T`` at its inner optimum).  Brent's method is
implemented from first principles so the optimisation path is fully
deterministic and dependency-light; the test suite cross-validates it
against ``scipy.optimize``.  It handles one period at a fixed ``P``
(ext-nodes' integer rounding, sensitivity, the relaxation baseline);
the batched log-zoom of :mod:`repro.optimize.period` handles the rest.

Both routines minimise; maximise by negating the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..exceptions import OptimizationError

__all__ = ["ScalarResult", "brent", "minimize_scalar"]

#: Golden-section ratio, ~0.618.
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScalarResult:
    """Outcome of a scalar minimisation.

    Attributes
    ----------
    x:
        Argmin estimate.
    fun:
        Objective value at ``x``.
    iterations:
        Iterations used by the refinement loop.
    nfev:
        Total objective evaluations.
    converged:
        Whether the tolerance was met before the iteration cap.
    """

    x: float
    fun: float
    iterations: int
    nfev: int
    converged: bool


def brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 1e-12,
    rtol: float = 3e-12,
    max_iter: int = 200,
) -> ScalarResult:
    """Brent's method on ``[a, b]``: parabolic interpolation + golden fallback.

    Superlinear on smooth objectives (ours are analytic), with the
    golden-section guarantee in the worst case.
    """
    if not (a < b):
        raise OptimizationError(f"invalid interval [{a}, {b}]")
    x = w = v = a + _GOLD * (b - a)
    fx = fw = fv = f(x)
    nfev = 1
    d = e = 0.0
    for it in range(max_iter):
        m = 0.5 * (a + b)
        tol = rtol * abs(x) + xtol
        tol2 = 2.0 * tol
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return ScalarResult(x=x, fun=fx, iterations=it, nfev=nfev, converged=True)
        use_golden = True
        if abs(e) > tol:
            # Fit a parabola through (v, fv), (w, fw), (x, fx).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol if x < m else -tol
                use_golden = False
        if use_golden:
            e = (b - x) if x < m else (a - x)
            d = (1.0 - _GOLD) * e
        u = x + d if abs(d) >= tol else x + (tol if d > 0.0 else -tol)
        fu = f(u)
        nfev += 1
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return ScalarResult(x=x, fun=fx, iterations=max_iter, nfev=nfev, converged=False)


def minimize_scalar(
    f: Callable[[float], float],
    bounds: tuple[float, float],
    xtol: float = 1e-12,
    rtol: float = 3e-12,
    max_iter: int = 200,
) -> ScalarResult:
    """Minimise ``f`` over the interval ``bounds`` with :func:`brent`."""
    a, b = bounds
    if not (a < b):
        raise OptimizationError(f"invalid bounds [{a}, {b}]")
    return brent(f, a, b, xtol=xtol, rtol=rtol, max_iter=max_iter)
