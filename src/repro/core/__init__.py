"""Core analytical models of *When Amdahl Meets Young/Daly*.

Submodules
----------
``speedup``
    Failure-free speedup profiles (Amdahl, Gustafson, power-law).
``costs``
    Resilience cost models :math:`C_P = a + b/P + cP`, :math:`V_P = v + u/P`.
``errors``
    Fail-stop / silent error model and platform-level rates.
``pattern``
    Exact expected pattern time (Proposition 1) and overhead objective.
``first_order``
    Closed-form optimal patterns (Theorems 1-3 and degenerate cases).
``makespan``
    Application-level makespan projection.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".costs": ("CheckpointCost", "CostRegime", "ResilienceCosts", "VerificationCost"),
    ".errors": ("ErrorModel", "expected_time_lost"),
    ".first_order": (
        "FirstOrderSolution", "optimal_pattern", "optimal_pattern_batch",
        "optimal_period", "theorem2_solution", "theorem3_solution",
    ),
    ".makespan": (
        "ApplicationSpec", "MakespanReport", "project_makespan", "weak_scaled_work",
    ),
    ".pattern": (
        "PatternModel", "expected_pattern_time", "expected_recovery_time",
        "pattern_overhead", "pattern_speedup", "stack_models",
    ),
    ".speedup": (
        "AmdahlSpeedup", "GustafsonSpeedup", "PerfectSpeedup", "PowerLawSpeedup",
        "SpeedupModel",
    ),
})

__all__ = [
    # speedup
    "SpeedupModel",
    "AmdahlSpeedup",
    "PerfectSpeedup",
    "GustafsonSpeedup",
    "PowerLawSpeedup",
    # costs
    "CheckpointCost",
    "VerificationCost",
    "ResilienceCosts",
    "CostRegime",
    # errors
    "ErrorModel",
    "expected_time_lost",
    # pattern
    "PatternModel",
    "expected_pattern_time",
    "expected_recovery_time",
    "pattern_overhead",
    "pattern_speedup",
    "stack_models",
    # first order
    "FirstOrderSolution",
    "optimal_period",
    "optimal_pattern",
    "optimal_pattern_batch",
    "theorem2_solution",
    "theorem3_solution",
    # makespan
    "ApplicationSpec",
    "MakespanReport",
    "project_makespan",
    "weak_scaled_work",
]
