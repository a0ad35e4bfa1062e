"""repro — *When Amdahl Meets Young/Daly* (Cavelan, Li, Robert, Sun; Cluster 2016).

A production-quality reproduction of the paper's system: the exact
expected execution time of a verified periodic checkpointing pattern
under fail-stop **and** silent errors (Proposition 1), the first-order
optimal period and processor allocation (Theorems 1-3), numerical
optimisers, the four SCR platform parameter sets, two Monte-Carlo
simulators, and a harness regenerating Figures 2-7 of the evaluation.

Quick start
-----------
>>> from repro import build_model, optimal_pattern
>>> model = build_model("Hera", scenario_id=1)       # Table II x Table III
>>> sol = optimal_pattern(model)                      # Theorem 2
>>> round(sol.processors), round(sol.period)
(219, 6239)

Packages
--------
``repro.core``
    Analytical models (speedup, costs, errors, Proposition 1,
    Theorems 1-3, makespan projection).
``repro.optimize``
    Numerical optimisers for the exact objective.
``repro.platforms``
    Table II platforms and Table III scenarios.
``repro.sim``
    Event-driven and vectorised Monte-Carlo simulators.
``repro.baselines``
    Error-free and fail-stop-only comparison models.
``repro.analysis``
    Slope fits and waste breakdowns.
``repro.experiments``
    Figure-regeneration harness (also ``python -m repro``).
"""

from ._lazy import lazy_exports
from ._version import __version__

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core": (
        "AmdahlSpeedup", "ApplicationSpec", "CheckpointCost", "CostRegime",
        "ErrorModel", "FirstOrderSolution", "GustafsonSpeedup", "PatternModel",
        "PerfectSpeedup", "PowerLawSpeedup", "ResilienceCosts", "SpeedupModel",
        "VerificationCost", "expected_pattern_time", "optimal_pattern",
        "optimal_period", "pattern_overhead", "project_makespan",
        "theorem2_solution", "theorem3_solution",
    ),
    ".exceptions": (
        "InvalidParameterError", "OptimizationError", "ReproError",
        "SimulationError", "UnknownPlatformError", "UnknownScenarioError",
        "ValidityError",
    ),
    ".optimize": (
        "AllocationResult", "PeriodResult", "optimize_allocation",
        "optimize_period",
    ),
    ".platforms": (
        "PLATFORM_NAMES", "PLATFORMS", "SCENARIO_IDS", "Platform", "Scenario",
        "build_model", "get_platform", "get_scenario", "scenario_costs",
    ),
    ".sim": (
        "OverheadEstimate", "simulate_batch", "simulate_overhead", "simulate_run",
    ),
})

__all__ = [
    "__version__",
    # core
    "SpeedupModel",
    "AmdahlSpeedup",
    "PerfectSpeedup",
    "GustafsonSpeedup",
    "PowerLawSpeedup",
    "CheckpointCost",
    "VerificationCost",
    "ResilienceCosts",
    "CostRegime",
    "ErrorModel",
    "PatternModel",
    "expected_pattern_time",
    "pattern_overhead",
    "FirstOrderSolution",
    "optimal_period",
    "optimal_pattern",
    "theorem2_solution",
    "theorem3_solution",
    "ApplicationSpec",
    "project_makespan",
    # optimize
    "PeriodResult",
    "optimize_period",
    "AllocationResult",
    "optimize_allocation",
    # platforms
    "Platform",
    "PLATFORMS",
    "PLATFORM_NAMES",
    "get_platform",
    "Scenario",
    "SCENARIO_IDS",
    "get_scenario",
    "scenario_costs",
    "build_model",
    # sim
    "OverheadEstimate",
    "simulate_overhead",
    "simulate_batch",
    "simulate_run",
    # exceptions
    "ReproError",
    "InvalidParameterError",
    "ValidityError",
    "OptimizationError",
    "SimulationError",
    "UnknownPlatformError",
    "UnknownScenarioError",
]
