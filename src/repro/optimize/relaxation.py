"""Iterative-relaxation baseline (Jin et al., ICPP 2010 style).

The paper cites Jin et al. [14] as the prior numerical procedure for
choosing the resource count of a fault-tolerant run: alternate between
(i) the optimal checkpointing period for the current allocation and
(ii) the optimal allocation for the current period, until a fixed point.
We implement that procedure against our exact overhead objective so the
benchmark harness can compare its convergence behaviour and result
quality with the direct nested optimiser
(:mod:`repro.optimize.allocation`) and the closed forms of Theorems 2-3.

On a unimodal objective the relaxation converges to the same optimum;
its interest is as an ablation (iterations vs. nested-search cost) and
as a faithful reproduction of the related-work method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import OptimizationError
from .grid import refine_log_minimum_batch
from .period import optimize_period

__all__ = ["RelaxationResult", "relaxation_optimize"]


@dataclass(frozen=True)
class RelaxationResult:
    """Fixed point of the alternating T/P relaxation.

    Attributes
    ----------
    processors, period, overhead:
        The converged pattern and its exact expected overhead.
    iterations:
        Number of alternation sweeps performed.
    converged:
        Whether both coordinates moved less than the tolerance on the
        final sweep.
    history:
        Per-iteration ``(P, T, overhead)`` triples, for the convergence
        benchmark.
    """

    processors: float
    period: float
    overhead: float
    iterations: int
    converged: bool
    history: tuple[tuple[float, float, float], ...] = field(default_factory=tuple)


def _optimize_p_for_fixed_t(
    model: PatternModel, T: float, p_min: float, p_max: float, points: int = 33, rounds: int = 10
) -> float:
    """Log-space zoom over ``P`` with the period held fixed.

    Thin wrapper over the shared batch zoom engine; allocation-style
    monotone cases report the lower bound, matching the historical
    private loop.
    """

    def objective(xs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(model.overhead(T, xs[:, 0]), dtype=float)[:, None]

    result = refine_log_minimum_batch(
        objective, p_min, p_max, points=points, rounds=rounds, rtol=1e-9
    )
    return float(result.x[0])


def relaxation_optimize(
    model: PatternModel,
    p_start: float = 1024.0,
    p_min: float = 1.0,
    p_max: float | None = None,
    tol: float = 1e-6,
    max_iterations: int = 50,
) -> RelaxationResult:
    """Alternate period / allocation optimisation until a fixed point.

    Parameters
    ----------
    model:
        Platform/application bundle.
    p_start:
        Initial allocation guess (the procedure is insensitive to it on
        unimodal objectives; the default matches a mid-size partition).
    tol:
        Relative movement of both ``P`` and ``T`` below which the
        procedure stops.
    """
    lam = model.errors.lambda_ind
    if lam <= 0.0:
        raise OptimizationError("error-free platform: relaxation has no finite fixed point")
    if p_max is None:
        p_max = max(1e4, 100.0 / lam)
    if not (p_min <= p_start <= p_max):
        raise OptimizationError(
            f"p_start={p_start} outside the search range [{p_min}, {p_max}]"
        )

    P = float(p_start)
    T = optimize_period(model, P).period
    history: list[tuple[float, float, float]] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        P_new = _optimize_p_for_fixed_t(model, T, p_min, p_max)
        T_new = optimize_period(model, P_new).period
        H_new = float(model.overhead(T_new, P_new))
        history.append((P_new, T_new, H_new))
        moved_p = abs(P_new - P) / max(P, 1e-300)
        moved_t = abs(T_new - T) / max(T, 1e-300)
        P, T = P_new, T_new
        if moved_p < tol and moved_t < tol:
            converged = True
            break
    return RelaxationResult(
        processors=P,
        period=T,
        overhead=float(model.overhead(T, P)),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
    )
