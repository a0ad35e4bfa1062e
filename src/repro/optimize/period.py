"""Numerically optimal checkpointing period for a fixed processor count.

The paper's "optimal" reference curves minimise the **exact** expected
overhead :math:`H(T, P) = H(P)\\,E(T, P)/T` of Proposition 1 (no Taylor
truncation), which is what this module computes.  The objective is
smooth and strictly unimodal in ``T`` — it blows up as
:math:`(V_P + C_P)/T` for small ``T`` and as :math:`e^{\\lambda T}/T`
for large ``T`` — so a log-space zoom plus a Brent polish converges to
machine precision in a few dozen evaluations.

A vectorised variant optimises the period for a whole *array* of
processor counts at once (all rounds evaluate a 2-D ``(T, P)`` grid in a
single broadcast call), which is the hot path of the allocation
optimiser and the figure sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.first_order import optimal_period
from ..core.pattern import PatternModel, stack_models
from ..exceptions import OptimizationError
from .scalar import minimize_scalar

__all__ = [
    "PeriodResult",
    "optimize_period",
    "optimize_period_batch",
    "optimize_period_batch_grouped",
]

#: Log-width of the initial search window around the first-order seed.
_SEED_DECADES = 3.0


@dataclass(frozen=True)
class PeriodResult:
    """Numerically optimal period for a fixed ``P``.

    Attributes
    ----------
    period:
        Argmin :math:`T^{opt}_P` of the exact overhead.
    overhead:
        Exact expected overhead at the optimum.
    expected_time:
        Exact expected pattern time :math:`E(T^{opt}_P, P)`.
    nfev:
        Objective evaluations used.
    converged:
        Whether the scalar solver met its tolerance.
    """

    period: float
    overhead: float
    expected_time: float
    nfev: int
    converged: bool


def _seed_period(model: PatternModel, P: float) -> float:
    """First-order T* (Theorem 1) as the centre of the search window."""
    lam_eff = model.errors.fail_stop_rate(P) / 2.0 + model.errors.silent_rate(P)
    if lam_eff <= 0.0:
        raise OptimizationError(
            "the platform is error-free: the optimal period is unbounded "
            "(never checkpoint)"
        )
    return float(optimal_period(P, model.errors, model.costs))


def optimize_period(model: PatternModel, P: float, seed: float | None = None) -> PeriodResult:
    """Minimise the exact overhead over ``T`` for a fixed ``P``.

    Parameters
    ----------
    model:
        The platform/application bundle.
    P:
        Processor count (fixed).
    seed:
        Optional centre for the search window; defaults to the
        first-order optimum of Theorem 1, which is within a small factor
        of the exact optimum everywhere in the validity regime.
    """
    T0 = seed if seed is not None else _seed_period(model, P)
    lo = T0 * 10.0**-_SEED_DECADES
    hi = T0 * 10.0**_SEED_DECADES

    def objective(T: float) -> float:
        value = model.overhead(T, P)
        return float(value) if np.isfinite(value) else np.inf

    result = minimize_scalar(objective, bounds=(lo, hi), rtol=1e-12)
    # If the optimum pinned to the window edge the seed was off; widen once.
    if result.x / lo < 1.001 or hi / result.x < 1.001:
        lo, hi = lo * 1e-3, hi * 1e3
        result = minimize_scalar(objective, bounds=(lo, hi), rtol=1e-12)
        if result.x / lo < 1.001 or hi / result.x < 1.001:
            raise OptimizationError(
                f"optimal period not interior to [{lo:g}, {hi:g}] for P={P:g}; "
                "the overhead appears monotone in T"
            )
    return PeriodResult(
        period=result.x,
        overhead=result.fun,
        expected_time=float(model.expected_time(result.x, P)),
        nfev=result.nfev,
        converged=result.converged,
    )


def _zoom_batch_grouped(
    model: PatternModel,
    P: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    points: int,
    rounds: int,
    starts: np.ndarray,
    group_of: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column log-space zoom of the exact overhead over ``[lo, hi]``.

    Column group ``g`` starts at ``starts[g]``; ``group_of`` maps each
    column to its group.  A group stops once the max bracket ratio over
    its own columns converges, so a slow-converging group never forces
    extra rounds on an already-converged one; converged groups keep
    their brackets frozen, and per column the evaluated abscissae,
    bracket updates and break round are bit-identical to a one-group
    call on that group alone.

    ``P`` is fixed for the whole zoom, so its terms are prepared once
    (:meth:`~repro.core.pattern.PatternModel.prepare`); overflowed
    regions of the search domain read as +inf, never NaN, so the argmins
    stay well-defined.
    """
    columns = model.prepare(P)
    rows = np.arange(points)[:, None]
    cols = np.arange(P.size)
    active = np.ones(starts.size, dtype=bool)
    col_active = np.ones(P.size, dtype=bool)
    for _ in range(rounds):
        ratio = hi / lo
        Ts = lo[None, :] * ratio[None, :] ** (rows / (points - 1))
        Hs = columns.overhead(Ts)
        best = np.argmin(Hs, axis=0)
        lo = np.where(col_active, Ts[np.maximum(best - 1, 0), cols], lo)
        hi = np.where(col_active, Ts[np.minimum(best + 1, points - 1), cols], hi)
        group_max = np.maximum.reduceat(hi / lo, starts)
        active &= ~(group_max - 1.0 < 1e-11)
        if not active.any():
            break
        col_active = active[group_of]
    T_opt = np.sqrt(lo * hi)
    return T_opt, columns.overhead(T_opt)


def optimize_period_batch_grouped(
    models,
    P: np.ndarray,
    sizes,
    points: int = 17,
    rounds: int = 14,
    seed_decades: float = _SEED_DECADES,
) -> tuple[np.ndarray, np.ndarray]:
    """Period optimisation for several models' ``P`` columns in one sweep.

    ``models`` is a list of scalar-parameter models; model ``g`` takes the
    next ``sizes[g]`` entries of the flat ``P`` array (contiguous,
    model-major layout).  All models are fused into one array-parameter
    model via :func:`repro.core.pattern.stack_models` so every zoom round
    is a single broadcast ``(points, sum(sizes))`` overhead evaluation —
    this is what lets the allocation optimiser resolve a whole grid
    column of models per round instead of looping model by model.

    Per column the result is bit-identical to
    ``optimize_period_batch(models[g], P[block_g])``: the overhead
    evaluators are elementwise, the zoom brackets never interact across
    columns, and each group breaks on its own columns' joint tolerance.

    Returns
    -------
    (T_opt, H_opt):
        Flat arrays aligned with ``P``.
    """
    P = np.asarray(P, dtype=float)
    sizes = np.asarray(sizes, dtype=int)
    if P.ndim != 1 or P.size == 0:
        raise OptimizationError("P must be a non-empty 1-D array")
    if sizes.size != len(models) or np.any(sizes < 1) or sizes.sum() != P.size:
        raise OptimizationError(
            f"group sizes {sizes!r} do not partition {P.size} columns "
            f"over {len(models)} models"
        )
    # A single group needs no stacking: use the model as-is, which also
    # keeps exotic (non-stackable) speedup profiles working.
    stacked = models[0] if len(models) == 1 else stack_models(models, repeat=sizes)
    lam_eff = stacked.errors.fail_stop_rate(P) / 2.0 + stacked.errors.silent_rate(P)
    if np.any(lam_eff <= 0.0):
        raise OptimizationError("error-free platform: optimal period unbounded")
    T0 = np.asarray(optimal_period(P, stacked.errors, stacked.costs), dtype=float)
    lo = T0 * 10.0**-seed_decades
    hi = T0 * 10.0**seed_decades

    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    group_of = np.repeat(np.arange(len(models)), sizes)
    T_opt, H_opt = _zoom_batch_grouped(
        stacked, P, lo, hi, points, rounds, starts, group_of
    )
    # Columns whose overhead overflows everywhere legitimately report
    # +inf (the outer allocation search discards them); only a *finite*
    # optimum sitting on a bracket edge means the seed window was off.
    pinned = ((T_opt / lo < 1.001) | (hi / T_opt < 1.001)) & np.isfinite(H_opt)
    if np.any(pinned):
        # Widen those once (1e3 each side, like the scalar path) and
        # re-zoom only the pinned columns, per owning model (the widened
        # re-zoom is rare and small, so scalar-model calls are fine).
        T_opt = T_opt.copy()
        H_opt = H_opt.copy()
        for g, member in enumerate(models):
            idx = np.flatnonzero(pinned & (group_of == g))
            if idx.size == 0:
                continue
            lo_w = lo[idx] * 1e-3
            hi_w = hi[idx] * 1e3
            T_wide, H_wide = _zoom_batch_grouped(
                member, P[idx], lo_w, hi_w, points, rounds,
                np.zeros(1, dtype=int), np.zeros(idx.size, dtype=int),
            )
            T_opt[idx] = T_wide
            H_opt[idx] = H_wide
            still = ((T_wide / lo_w < 1.001) | (hi_w / T_wide < 1.001)) & np.isfinite(
                H_wide
            )
            if np.any(still):
                bad = P[idx][still]
                raise OptimizationError(
                    f"optimal period not interior to the widened bracket for "
                    f"P={np.array2string(bad, max_line_width=60)}; the overhead "
                    "appears monotone in T"
                )
    return T_opt, H_opt


def optimize_period_batch(
    model: PatternModel,
    P: np.ndarray,
    points: int = 17,
    rounds: int = 14,
    seed_decades: float = _SEED_DECADES,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-``P`` period optimisation.

    For each entry of ``P`` the exact overhead is minimised over ``T``
    by a per-column log-space zoom: every round evaluates one broadcast
    ``(points, len(P))`` overhead matrix and shrinks each column's
    bracket around its own argmin.  Precision after ``rounds`` rounds is
    ``(2 * seed_decades) * (2/(points-1))**rounds`` decades — below 1e-9
    relative with the defaults.

    Columns whose optimum pins to a bracket edge (the first-order seed
    was off by more than ``seed_decades`` decades) are re-zoomed once on
    a window widened by three decades each side — the same fallback the
    scalar :func:`optimize_period` applies — and an
    :class:`~repro.exceptions.OptimizationError` is raised if any column
    is still edge-pinned after widening (the overhead appears monotone
    over the searchable range).

    This is :func:`optimize_period_batch_grouped` with a single group.

    Returns
    -------
    (T_opt, H_opt):
        Arrays of optimal periods and exact overheads, aligned with ``P``.
    """
    P = np.asarray(P, dtype=float)
    return optimize_period_batch_grouped(
        [model], P, [P.size], points, rounds, seed_decades
    )
