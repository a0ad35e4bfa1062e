"""Post-processing analytics: asymptotic slope fits and waste breakdowns."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".asymptotics": ("SlopeFit", "fit_loglog_slope"),
    ".waste": (
        "WasteBreakdown", "compare_with_simulation", "simulated_waste",
        "waste_breakdown",
    ),
})

__all__ = [
    "SlopeFit",
    "fit_loglog_slope",
    "WasteBreakdown",
    "waste_breakdown",
    "simulated_waste",
    "compare_with_simulation",
]
