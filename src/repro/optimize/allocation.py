"""Joint numerical optimisation of the pattern: processors *and* period.

This is the "optimal" solution the paper's figures compare the
first-order formulas against: minimise the exact expected overhead

.. math::

    \\min_{P \\ge 1,\\; T > 0} \\; H(T, P) = H(P)\\,\\frac{E(T, P)}{T}

with :math:`E` from Proposition 1.  The structure is a nested search:
the inner problem (optimal ``T`` for fixed ``P``) is solved by the
vectorised zoom of :mod:`repro.optimize.period`, and the outer problem
is a log-space zoom over ``P`` (values of interest span 1e2 … 1e13
across the figures).  One engine, :func:`optimize_allocation_batch`,
solves both for a whole list of models; :func:`optimize_allocation` is
its one-model call.  The outer objective
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
from .period import _POINTS, _ROUNDS, _optimize_columns, optimize_period

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
        Exact expected overhead at ``(T_opt, P_opt)`` (the expected
        pattern time is ``model.expected_time(period, processors)``).
    nfev:
        Total overhead evaluations across both nesting levels.
    at_lower / at_upper:
        The optimum pinned to the search bound — the objective is
        monotone over ``[p_min, p_max]`` in that direction.
    """

    processors: float
    period: float
    overhead: float
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

    The one-model call of :func:`optimize_allocation_batch`.

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

    Raises
    ------
    OptimizationError
        For an error-free platform, an empty processor range, or a model
        whose exact overhead overflows for every ``P`` in range.
    """
    return optimize_allocation_batch(
        [model], p_min=p_min, p_max=p_max, integer=integer,
        points=points, rounds=rounds,
    )[0]


def optimize_allocation_batch(
    models,
    p_min: float = 1.0,
    p_max: float | None = None,
    integer: bool = False,
    points: int = 33,
    rounds: int = 12,
) -> list[AllocationResult]:
    """Jointly optimise ``(T, P)`` for many models in one array sweep.

    The outer processor zoom runs all models as columns of one
    :func:`repro.optimize.grid.refine_log_minimum_batch` search, and the
    inner period solves are one grouped period zoom per outer round
    over the ``points`` columns of every still-active model, instead of
    a per-model Python loop.  The models are stacked once per call and
    the zooms share one workspace's memory.  This is the figure sweeps'
    hot path: a whole grid column of scenario models resolves per call.

    Per model the returned :class:`AllocationResult` does not depend on
    the other models in the call: the abscissa grids, overhead
    evaluations, best-so-far updates and break rounds are per model,
    converged models drop out of later rounds without perturbing the
    rest, and every elementwise kernel sees operand layouts that do not
    change with the batch width.  A stacked model equals its one-model
    call field for field.

    One exception: :class:`~repro.core.speedup.PowerLawSpeedup`.  A
    stacked model carries ``gamma`` as an array, and numpy's float64
    ``power`` uses a different loop for a scalar (stride-0) exponent
    than for an array one; the two differ in the last ulp for some
    exponents (``P ** -1.0`` at ``gamma = 1``, ``P ** 0.5``).  Stacked
    power-law profiles agree with the one-model call to 1 ulp and the
    optimal overhead to 1e-12 relative (pinned in
    ``tests/optimize/test_batch_optimizers.py``).  Amdahl and Gustafson
    profiles use no ``power`` and stay bit-identical.

    Models whose parameters cannot be stacked into one array-parameter
    model (heterogeneous speedup profile types, mixed recovery
    overrides) fall back to one-model calls.
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
    # Stack once: every outer round prepares its abscissae on all
    # stacked columns and zooms the still-active models' columns, taken
    # by index (the preparation is elementwise, so each column keeps
    # its bits).
    stacked = None
    if len(models) > 1:
        try:
            stacked = stack_models(models, repeat=points)
        except InvalidParameterError:
            return [
                optimize_allocation(
                    model, p_min=p_min, p_max=p_max, integer=integer,
                    points=points, rounds=rounds,
                )
                for model in models
            ]
    abscissae = np.empty((len(models), points))
    offsets = np.arange(points)
    buffers: list[np.ndarray] = []  # every round's zoom workspace memory

    def objective(xs: np.ndarray, idx: np.ndarray):
        # xs is (points, k) for the k still-active models; flatten
        # model-major so each model gets a contiguous column group of
        # the grouped period solve.
        k = idx.size
        flat_P = xs.T.ravel()
        if k == 1:
            # One model zooms alone, unstacked, like a one-model call.
            columns = models[idx[0]].prepare(flat_P)
        else:
            abscissae[idx] = xs.T
            columns = stacked.prepare(abscissae.ravel())
            if k < len(models):
                columns = columns.take((idx[:, None] * points + offsets).ravel())
        Ts, Hs = _optimize_columns(
            columns, [models[i] for i in idx], flat_P, np.full(k, points),
            buffers=buffers,
        )
        return Hs.reshape(k, points).T, Ts.reshape(k, points).T

    result = refine_log_minimum_batch(
        objective, p_min, p_maxs, points=points, rounds=rounds, rtol=1e-10,
        track_aux=True,
    )
    overflowed = np.flatnonzero(~np.isfinite(result.fun))
    if overflowed.size:
        j = overflowed[0]
        raise OptimizationError(
            f"the exact overhead overflows for every P in [{p_min:g}, "
            f"{p_maxs[j]:g}] (lambda_ind={models[j].errors.lambda_ind:g}): "
            "no finite optimum"
        )
    # An optimum within 1e-6 of a bound is the bound: the objective is
    # monotone over the range in that direction.
    at_lower = result.x / p_min < 1.0 + 1e-6
    at_upper = p_maxs / result.x < 1.0 + 1e-6

    out: list[AllocationResult] = []
    for j, model in enumerate(models):
        # Every outer abscissa costs one inner period zoom.
        nfev = int(result.nfev[j]) * _POINTS * _ROUNDS
        P, T, H = float(result.x[j]), float(result.aux[j]), float(result.fun[j])
        if integer:
            candidates = sorted({max(1, int(np.floor(P))), max(1, int(np.ceil(P)))})
            inner_results = [(optimize_period(model, float(c)), c) for c in candidates]
            nfev += sum(r.nfev for r, _ in inner_results)
            inner, P_int = min(inner_results, key=lambda pair: pair[0].overhead)
            P, T, H = float(P_int), inner.period, inner.overhead
        out.append(
            AllocationResult(
                processors=P, period=T, overhead=H, nfev=nfev,
                at_lower=bool(at_lower[j]), at_upper=bool(at_upper[j]),
            )
        )
    return out
