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
optimiser and the figure sweeps.  Its result for a column does not
depend on how many other columns share the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.first_order import optimal_period
from ..core.pattern import PatternModel, PreparedColumns, _validate_overhead_period
from ..exceptions import OptimizationError
from .scalar import minimize_scalar

__all__ = ["PeriodResult", "optimize_period", "optimize_period_batch"]

#: Log-width of the initial search window around the first-order seed.
_SEED_DECADES = 3.0

#: Abscissae per column and rounds of the vectorised period zoom:
#: ``_POINTS * _ROUNDS`` overhead evaluations per column.
_POINTS = 17
_ROUNDS = 14


@dataclass(frozen=True)
class PeriodResult:
    """Numerically optimal period for a fixed ``P``.

    Attributes
    ----------
    period:
        Argmin :math:`T^{opt}_P` of the exact overhead.
    overhead:
        Exact expected overhead at the optimum (the expected pattern
        time is ``model.expected_time(period, P)``).
    nfev:
        Objective evaluations used.
    converged:
        Whether the scalar solver met its tolerance.
    """

    period: float
    overhead: float
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
        nfev=result.nfev,
        converged=result.converged,
    )


def _zoom_batch_grouped(
    columns: PreparedColumns,
    lo: np.ndarray,
    hi: np.ndarray,
    starts: np.ndarray,
    group_of: np.ndarray,
    buffers: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column log-space zoom of the exact overhead over ``[lo, hi]``.

    Column group ``g`` starts at ``starts[g]``; ``group_of`` maps each
    column to its group.  A group stops once the max bracket ratio over
    its own columns converges, so a slow-converging group never forces
    extra rounds on an already-converged one; converged groups keep
    their brackets frozen, and per column the evaluated abscissae,
    bracket updates and break round are bit-identical to a one-group
    call on that group alone.

    ``P`` is fixed for the whole zoom, so its terms come prepared
    (:meth:`~repro.core.pattern.PatternModel.prepare`) and every round
    evaluates in place in one :class:`~repro.core.pattern.ColumnWorkspace`
    carved from ``buffers``; overflowed regions of the search domain
    read as +inf, never NaN, so the argmins stay well-defined.
    """
    points, rounds = _POINTS, _ROUNDS
    n = lo.size
    ws = columns.workspace((points, n), buffers)
    T, flat_T = ws.T, ws.T.reshape(-1)
    rows = np.arange(points)
    exponents = rows[:, None] / (points - 1)
    cols = np.arange(n)
    # Flat offsets in T of the rows bracketing each possible argmin row.
    below = np.maximum(rows - 1, 0) * n
    above = np.minimum(rows + 1, points - 1) * n
    active = np.ones(starts.size, dtype=bool)
    col_active = None  # every column zooms until some group converges
    ratio = hi / lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for r in range(rounds):
            # numpy's power takes another loop for a broadcast (points, 1)
            # exponent on wide arrays (about 2,800 columns up), and its
            # bits differ from a narrow call's: raise to a contiguous
            # (points, n) exponent matrix, staged in H, which is free
            # until this round's overhead().
            np.copyto(ws.H, exponents)
            np.power(ratio[None, :], ws.H, out=T)
            np.multiply(lo[None, :], T, out=T)
            if r == 0:
                # Later rounds stay inside this round's brackets.
                _validate_overhead_period(T, T)
            H = ws.overhead()
            best = np.argmin(H, axis=0)
            lo_new = flat_T.take(below.take(best) + cols)
            hi_new = flat_T.take(above.take(best) + cols)
            if col_active is None:
                lo, hi = lo_new, hi_new
            else:
                lo = np.where(col_active, lo_new, lo)
                hi = np.where(col_active, hi_new, hi)
            ratio = hi / lo
            active &= ~(np.maximum.reduceat(ratio, starts) - 1.0 < 1e-11)
            left = np.count_nonzero(active)
            if not left:
                break
            if left < active.size:
                col_active = active[group_of]
    T_opt = np.sqrt(lo * hi)
    return T_opt, columns.overhead(T_opt)


def _optimize_columns(
    columns: PreparedColumns,
    models,
    P: np.ndarray,
    sizes: np.ndarray,
    seed_decades: float = _SEED_DECADES,
    buffers: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal periods for several models' ``P`` columns in one sweep.

    ``columns`` holds the flat ``P`` prepared for ``models`` stacked in
    contiguous blocks of ``sizes`` (the model itself when there is
    one), so every zoom round is one ``(_POINTS, P.size)`` overhead
    evaluation.  Each block stops on its own columns' joint tolerance,
    and the widened re-zoom prepares the pinned columns of each member
    model on its own, so a block's result equals a one-model call on it.
    Every zoom carves its workspace from ``buffers`` (see
    :class:`~repro.core.pattern.ColumnWorkspace`).

    Returns
    -------
    (T_opt, H_opt):
        Flat arrays aligned with ``P``.
    """
    if buffers is None:
        buffers = []
    # Theorem 1's first-order period centres each column's window,
    # computed from the prepared terms in optimal_period's operation order.
    lam_eff = columns.lam_f / 2.0 + columns.lam_s
    if np.any(lam_eff <= 0.0):
        raise OptimizationError("error-free platform: optimal period unbounded")
    T0 = np.sqrt((columns.C + columns.V) / lam_eff)
    lo = T0 * 10.0**-seed_decades
    hi = T0 * 10.0**seed_decades

    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    group_of = np.repeat(np.arange(len(models)), sizes)
    T_opt, H_opt = _zoom_batch_grouped(columns, lo, hi, starts, group_of, buffers)
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
                member.prepare(P[idx]), lo_w, hi_w,
                np.zeros(1, dtype=int), np.zeros(idx.size, dtype=int), buffers,
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
    model: PatternModel, P: np.ndarray, seed_decades: float = _SEED_DECADES
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-``P`` period optimisation.

    For each entry of ``P`` the exact overhead is minimised over ``T``
    by a per-column log-space zoom: every round evaluates one broadcast
    ``(17, len(P))`` overhead matrix and shrinks each column's bracket
    around its own argmin.  Precision after its 14 rounds is
    ``(2 * seed_decades) * (2/16)**14`` decades — below 1e-9 relative.

    Columns whose optimum pins to a bracket edge (the first-order seed
    was off by more than ``seed_decades`` decades) are re-zoomed once on
    a window widened by three decades each side — the same fallback the
    scalar :func:`optimize_period` applies — and an
    :class:`~repro.exceptions.OptimizationError` is raised if any column
    is still edge-pinned after widening (the overhead appears monotone
    over the searchable range).

    Returns
    -------
    (T_opt, H_opt):
        Arrays of optimal periods and exact overheads, aligned with ``P``.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 1 or P.size == 0:
        raise OptimizationError("P must be a non-empty 1-D array")
    return _optimize_columns(model.prepare(P), [model], P, [P.size], seed_decades)
