"""Numerical optimisation of checkpointing patterns.

The "optimal" reference curves in the paper's figures are numerical
minimisations of the exact overhead from Proposition 1; this package
provides those solvers:

``scalar``
    Brent's method on a fixed interval (scipy-free).
``grid``
    Batched log-space zooming grid search (processor counts span
    1e0..1e13).
``period``
    Optimal ``T`` for fixed ``P``: Brent for one ``P``, a vectorised
    zoom for an array of them.
``allocation``
    Joint ``(T, P)`` optimum — the paper's "optimal" solution.  One
    engine, ``optimize_allocation_batch``, solves a list of models;
    ``optimize_allocation`` is its one-model call.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".allocation": (
        "AllocationResult", "optimize_allocation", "optimize_allocation_batch",
    ),
    ".grid": ("BatchGridResult", "log_grid", "refine_log_minimum_batch"),
    ".period": (
        "PeriodResult", "optimize_period", "optimize_period_batch",
    ),
    ".scalar": ("ScalarResult", "brent", "minimize_scalar"),
})

__all__ = [
    "ScalarResult",
    "brent",
    "minimize_scalar",
    "BatchGridResult",
    "log_grid",
    "refine_log_minimum_batch",
    "PeriodResult",
    "optimize_period",
    "optimize_period_batch",
    "AllocationResult",
    "optimize_allocation",
    "optimize_allocation_batch",
]
