"""Platform catalog (Table II) and resilience scenarios (Table III)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".catalog": (
        "DEFAULT_ALPHA", "DEFAULT_DOWNTIME", "PLATFORM_NAMES", "PLATFORMS",
        "Platform", "get_platform",
    ),
    ".scenarios": (
        "SCENARIO_IDS", "SCENARIOS", "Scenario", "build_model", "get_scenario",
        "scenario_costs",
    ),
})

__all__ = [
    "Platform",
    "PLATFORMS",
    "PLATFORM_NAMES",
    "get_platform",
    "DEFAULT_DOWNTIME",
    "DEFAULT_ALPHA",
    "Scenario",
    "SCENARIOS",
    "SCENARIO_IDS",
    "get_scenario",
    "scenario_costs",
    "build_model",
]
