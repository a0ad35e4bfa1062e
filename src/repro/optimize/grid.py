"""Logarithmic grid-search utilities.

The numerical processor-allocation optimum spans two orders of magnitude
on the real platforms (Figure 2) and up to *eleven* in the perfectly
parallel sweeps (Figure 6, :math:`P^* \\sim \\lambda^{-1}` at
:math:`\\lambda = 10^{-12}`).  A linear scan is hopeless there; instead
we search in :math:`\\log_{10} P` with iterative zoom: evaluate on a
coarse grid, keep the best point, re-grid between its neighbours, and
repeat until the grid spacing is below tolerance.  Each zoom multiplies
resolution by ``(points - 1) / 2``, giving geometric convergence with a
budget of ``points * rounds`` evaluations.

The zoom loop assumes unimodality on the searched interval (true for the
overhead objective: parallelism gains vs. growing error rates produce a
single interior optimum, or a monotone edge case which the caller
detects from the returned argmin).

:func:`refine_log_minimum_batch` zooms many columns at once (one
objective call per round evaluates a ``(points, columns)`` matrix) with
per-column convergence masking.  Ext-segments' period search and the
outer loop of :func:`repro.optimize.allocation.optimize_allocation` go
through it (a single search is a one-column call).  Its own arithmetic is per column,
so a column's abscissae, updates and break round do not depend on the
other columns; the objective must keep that property for batched
columns to equal one-column solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import OptimizationError

__all__ = [
    "BatchGridResult",
    "log_grid",
    "refine_log_minimum_batch",
]


@dataclass(frozen=True)
class BatchGridResult:
    """Per-column outcome of a batched zooming log-grid search.

    Attributes
    ----------
    x, fun:
        Per-column argmin estimates and objective values.
    aux:
        Per-column auxiliary payload captured at each column's best
        point (``None`` unless the objective returned one) — the batch
        allocation optimiser threads the inner optimal period through
        this channel instead of re-solving it at the end.
    nfev:
        Per-column objective evaluations (``points`` per executed round).
    rounds:
        Zoom rounds each column executed before converging.
    """

    x: np.ndarray
    fun: np.ndarray
    aux: np.ndarray | None
    nfev: np.ndarray
    rounds: np.ndarray


def log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """Geometrically spaced grid on ``[lo, hi]`` (inclusive).

    Vectorised over array ``lo``/``hi`` (columns of a batched zoom):
    per column the values are bit-identical to a scalar call.
    """
    if np.any(np.asarray(lo) <= 0.0) or np.any(np.asarray(hi) <= np.asarray(lo)):
        raise OptimizationError(f"invalid log-grid range [{lo}, {hi}]")
    if points < 2:
        raise OptimizationError(f"need at least 2 grid points, got {points}")
    return np.logspace(np.log10(lo), np.log10(hi), points)


def refine_log_minimum_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    points: int = 33,
    rounds: int = 14,
    rtol: float = 1e-10,
    track_aux: bool = False,
) -> BatchGridResult:
    """Minimise a column-vectorised objective over per-column intervals.

    Parameters
    ----------
    f:
        Objective ``f(xs, idx)`` where ``xs`` is a ``(points, k)``
        abscissa matrix for the ``k`` still-active columns and ``idx``
        their original column indices; returns a matching value matrix
        (or a ``(values, aux)`` pair when ``track_aux``).  Non-finite
        values are treated as ``+inf``; a column that never produces a
        finite value reports its lower bound with ``fun = inf``.
        Converged columns are dropped from subsequent calls, so
        expensive objectives never waste work on frozen columns.
    lo, hi:
        Per-column search intervals (scalars broadcast to all columns).
    track_aux:
        Capture the objective's auxiliary payload at each column's
        best-so-far point.

    Returns
    -------
    BatchGridResult
        Per-column argmins, objective values and evaluation counts.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
        lo, hi = lo.copy(), hi.copy()
    n = lo.size
    best_x = lo.copy()
    best_f = np.full(n, np.inf)
    best_aux = np.full(n, np.nan) if track_aux else None
    nfev = np.zeros(n, dtype=int)
    executed = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    for _ in range(rounds):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xs = log_grid(lo[idx], hi[idx], points)
        out = f(xs, idx)
        fs, aux = out if track_aux else (out, None)
        fs = np.where(np.isfinite(np.asarray(fs, dtype=float)), fs, np.inf)
        nfev[idx] += points
        executed[idx] += 1
        i = np.argmin(fs, axis=0)
        cols = np.arange(idx.size)
        round_best = fs[i, cols]
        better = round_best < best_f[idx]
        upd = idx[better]
        best_f[upd] = round_best[better]
        best_x[upd] = xs[i[better], cols[better]]
        if track_aux:
            best_aux[upd] = np.asarray(aux)[i[better], cols[better]]
        # Zoom between the neighbours of each column's best grid point.
        lo_i = xs[np.maximum(i - 1, 0), cols]
        hi_i = xs[np.minimum(i + 1, points - 1), cols]
        done = hi_i / lo_i - 1.0 < rtol
        lo[idx] = lo_i
        hi[idx] = hi_i
        active[idx[done]] = False
    return BatchGridResult(
        x=best_x, fun=best_f, aux=best_aux, nfev=nfev, rounds=executed
    )

