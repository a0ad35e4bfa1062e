"""Baseline models the paper compares against or extends."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".error_free": ("ErrorFreeModel",),
    ".failstop_only": (
        "NaiveDeployment", "failstop_optimal_period", "failstop_projection",
        "naive_pattern", "price_of_ignoring_silent",
    ),
})

__all__ = [
    "ErrorFreeModel",
    "failstop_projection",
    "failstop_optimal_period",
    "naive_pattern",
    "price_of_ignoring_silent",
    "NaiveDeployment",
]
