"""Post-processing analytics: asymptotic slope fits and sensitivity."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".asymptotics": (
        "SlopeFit", "estimate_order", "fit_loglog_slope", "reference_power_law",
    ),
    ".sensitivity": (
        "RobustnessCurve", "first_order_gap", "period_robustness",
        "processor_robustness",
    ),
    ".waste": (
        "WasteBreakdown", "compare_with_simulation", "simulated_waste",
        "waste_breakdown",
    ),
})

__all__ = [
    "SlopeFit",
    "fit_loglog_slope",
    "estimate_order",
    "reference_power_law",
    "RobustnessCurve",
    "period_robustness",
    "processor_robustness",
    "first_order_gap",
    "WasteBreakdown",
    "waste_breakdown",
    "simulated_waste",
    "compare_with_simulation",
]
