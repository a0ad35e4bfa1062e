"""Joint numerical optimisation of the pattern: processors *and* period.

This is the "optimal" solution the paper's figures compare the
first-order formulas against: minimise the exact expected overhead

.. math::

    \\min_{P \\ge 1,\\; T > 0} \\; H(T, P) = H(P)\\,\\frac{E(T, P)}{T}

with :math:`E` from Proposition 1.  The structure is a nested search:
the inner problem (optimal ``T`` for fixed ``P``) is solved by the
vectorised zoom of :mod:`repro.optimize.period`, and the outer problem
is a log-space zoom over ``P`` (values of interest span 1e2 … 1e13
across the figures).  The outer objective
:math:`g(P) = \\min_T H(T, P)` is unimodal: parallelism reduces the
error-free term :math:`H(P)` while failures and resilience costs grow
with ``P``.

Monotone cases (perfectly parallel jobs with cheap resilience — case 3
and parts of case 4) have no interior optimum; the result then carries
``at_upper = True`` and the caller decides how to interpret the bound
(the paper caps those sweeps at the validity limit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pattern import PatternModel, stack_models
from ..exceptions import InvalidParameterError, OptimizationError
from .grid import refine_log_minimum_batch
from .period import optimize_period, optimize_period_batch, optimize_period_batch_grouped

__all__ = ["AllocationResult", "optimize_allocation", "optimize_allocation_batch"]


@dataclass(frozen=True)
class AllocationResult:
    """Jointly optimal pattern found by the numerical search.

    Attributes
    ----------
    processors:
        Optimal processor count ``P_opt`` (integer if requested).
    period:
        Optimal period ``T_opt`` at that allocation.
    overhead:
        Exact expected overhead at ``(T_opt, P_opt)``.
    expected_time:
        Exact expected pattern time at the optimum.
    nfev:
        Total overhead evaluations across both nesting levels.
    at_lower / at_upper:
        The optimum pinned to the search bound — the objective is
        monotone over ``[p_min, p_max]`` in that direction.
    """

    processors: float
    period: float
    overhead: float
    expected_time: float
    nfev: int
    at_lower: bool = False
    at_upper: bool = False

    @property
    def interior(self) -> bool:
        return not (self.at_lower or self.at_upper)

    @property
    def speedup(self) -> float:
        return 1.0 / self.overhead


def optimize_allocation(
    model: PatternModel,
    p_min: float = 1.0,
    p_max: float | None = None,
    integer: bool = False,
    points: int = 33,
    rounds: int = 12,
) -> AllocationResult:
    """Minimise the exact overhead jointly over ``(T, P)``.

    Parameters
    ----------
    model:
        Platform/application bundle.
    p_min, p_max:
        Processor search range.  ``p_max`` defaults to
        ``100 / lambda_ind`` which comfortably contains every optimum
        reported in the paper (:math:`P^* \\lesssim \\lambda^{-1}`, Fig. 6).
    integer:
        Round the final allocation to the better of floor/ceil.
    points, rounds:
        Outer log-grid resolution (see :mod:`repro.optimize.grid`).

    Returns
    -------
    AllocationResult
        With boundary flags set when the objective is monotone over the
        requested range instead of raising, since "enroll the whole
        machine" is a meaningful answer for case-3/4 models.
    """
    lam = model.errors.lambda_ind
    if lam <= 0.0:
        raise OptimizationError("error-free platform: enrol all processors, never checkpoint")
    if p_max is None:
        p_max = max(1e4, 100.0 / lam)
    if not (0.0 < p_min < p_max):
        raise OptimizationError(f"invalid processor range [{p_min}, {p_max}]")

    nfev = 0
    lo, hi = p_min, p_max
    best_P = lo
    best_T = np.nan
    best_H = np.inf
    for _ in range(rounds):
        Ps = np.logspace(np.log10(lo), np.log10(hi), points)
        Ts, Hs = optimize_period_batch(model, Ps)
        nfev += Ps.size * 17 * 14  # inner grid budget (points * rounds)
        Hs = np.where(np.isfinite(Hs), Hs, np.inf)
        i = int(np.argmin(Hs))
        if Hs[i] < best_H:
            best_H = float(Hs[i])
            best_P = float(Ps[i])
            best_T = float(Ts[i])
        lo_new = Ps[max(i - 1, 0)]
        hi_new = Ps[min(i + 1, points - 1)]
        if hi_new / lo_new - 1.0 < 1e-10:
            break
        lo, hi = lo_new, hi_new

    at_lower = best_P / p_min < 1.0 + 1e-6
    at_upper = p_max / best_P < 1.0 + 1e-6

    if integer:
        candidates = sorted({max(1, int(np.floor(best_P))), max(1, int(np.ceil(best_P)))})
        results = [(optimize_period(model, float(P)), P) for P in candidates]
        nfev += sum(r.nfev for r, _ in results)
        inner, P_int = min(results, key=lambda pair: pair[0].overhead)
        return AllocationResult(
            processors=float(P_int),
            period=inner.period,
            overhead=inner.overhead,
            expected_time=inner.expected_time,
            nfev=nfev,
            at_lower=at_lower,
            at_upper=at_upper,
        )

    return AllocationResult(
        processors=best_P,
        period=best_T,
        overhead=best_H,
        expected_time=float(model.expected_time(best_T, best_P)),
        nfev=nfev,
        at_lower=at_lower,
        at_upper=at_upper,
    )


def optimize_allocation_batch(
    models,
    p_min: float = 1.0,
    p_max: float | None = None,
    integer: bool = False,
    points: int = 33,
    rounds: int = 12,
) -> list[AllocationResult]:
    """Jointly optimise ``(T, P)`` for many models in one array sweep.

    Batch counterpart of :func:`optimize_allocation`: the outer
    processor zoom runs all models as columns of one
    :func:`repro.optimize.grid.refine_log_minimum_batch` search, and the
    inner period solves go through
    :func:`repro.optimize.period.optimize_period_batch_grouped` — every
    outer round is a single broadcast ``(T, P)`` overhead evaluation
    over ``points * len(models)`` columns instead of a per-model Python
    loop.  This is the figure sweeps' hot path: a whole grid column of
    scenario models resolves per call.

    Per model the returned :class:`AllocationResult` is bit-identical to
    a scalar :func:`optimize_allocation` call with the same options: the
    abscissa grids, overhead evaluations, best-so-far updates and break
    rounds all replicate the scalar loop exactly (numpy's elementwise
    kernels do not depend on array width), and converged models drop out
    of later rounds without perturbing the rest.

    One exception: :class:`~repro.core.speedup.PowerLawSpeedup`.  A
    stacked model carries ``gamma`` as an array, and numpy's float64
    ``power`` uses a different loop for a scalar (stride-0) exponent
    than for an array one; the two differ in the last ulp for some
    exponents (``P ** -1.0`` at ``gamma = 1``, ``P ** 0.5``).  Power-law
    profiles agree with the scalar model to 1 ulp and the optimal
    overhead to 1e-12 relative (pinned in
    ``tests/optimize/test_batch_optimizers.py``).  Amdahl and Gustafson
    profiles use no ``power`` and stay bit-identical.

    Models whose parameters cannot be stacked into one array-parameter
    model (heterogeneous speedup profile types, mixed recovery
    overrides) transparently fall back to per-model scalar solves.
    """
    models = list(models)
    if not models:
        return []
    p_maxs = np.empty(len(models))
    for j, model in enumerate(models):
        lam = model.errors.lambda_ind
        if lam <= 0.0:
            raise OptimizationError(
                "error-free platform: enrol all processors, never checkpoint"
            )
        p_maxs[j] = p_max if p_max is not None else max(1e4, 100.0 / lam)
        if not (0.0 < p_min < p_maxs[j]):
            raise OptimizationError(f"invalid processor range [{p_min}, {p_maxs[j]}]")
    if len(models) > 1:
        try:
            stack_models(models)
        except InvalidParameterError:
            return [
                optimize_allocation(
                    model, p_min=p_min, p_max=p_max, integer=integer,
                    points=points, rounds=rounds,
                )
                for model in models
            ]

    def objective(xs: np.ndarray, idx: np.ndarray):
        # xs is (points, k) for the k still-active models; flatten
        # model-major so each model gets a contiguous column group of
        # the grouped period solve.
        k = idx.size
        flat_P = xs.T.ravel()
        Ts, Hs = optimize_period_batch_grouped(
            [models[i] for i in idx], flat_P, np.full(k, points)
        )
        return Hs.reshape(k, points).T, Ts.reshape(k, points).T

    result = refine_log_minimum_batch(
        objective,
        p_min,
        p_maxs,
        points=points,
        rounds=rounds,
        rtol=1e-10,
        init_x=p_min,
        require_finite=False,
        track_aux=True,
    )
    # The scalar path flags edges with a 1e-6 tolerance (wider than the
    # batch engine's rtol-based one); reproduce it from the argmins.
    at_lower = result.x / p_min < 1.0 + 1e-6
    at_upper = p_maxs / result.x < 1.0 + 1e-6

    out: list[AllocationResult] = []
    for j, model in enumerate(models):
        # Inner grid budget: 17 * 14 overhead points per outer abscissa.
        nfev = int(result.nfev[j]) * 17 * 14
        best_P = float(result.x[j])
        if integer:
            candidates = sorted(
                {max(1, int(np.floor(best_P))), max(1, int(np.ceil(best_P)))}
            )
            inner_results = [
                (optimize_period(model, float(P)), P) for P in candidates
            ]
            nfev += sum(r.nfev for r, _ in inner_results)
            inner, P_int = min(inner_results, key=lambda pair: pair[0].overhead)
            out.append(
                AllocationResult(
                    processors=float(P_int),
                    period=inner.period,
                    overhead=inner.overhead,
                    expected_time=inner.expected_time,
                    nfev=nfev,
                    at_lower=bool(at_lower[j]),
                    at_upper=bool(at_upper[j]),
                )
            )
            continue
        best_T = float(result.aux[j])
        out.append(
            AllocationResult(
                processors=best_P,
                period=best_T,
                overhead=float(result.fun[j]),
                expected_time=float(model.expected_time(best_T, best_P)),
                nfev=nfev,
                at_lower=bool(at_lower[j]),
                at_upper=bool(at_upper[j]),
            )
        )
    return out
