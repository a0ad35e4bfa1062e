"""Scenario lab: resampled & perturbed study-grid families.

The registry's studies are data; this package treats them as raw
material.  A :class:`~repro.experiments.scenarios.transforms.GridTransform`
chain (axis jitter, seed resampling, platform cross products) derives
whole families of study variants from one
:class:`~repro.experiments.spec.StudySpec`; a
:class:`~repro.experiments.scenarios.scenario_set.ScenarioSet` stages
the family onto the shared event-driven pipeline (one global in-flight
window, planner-level dedup, result-cache reuse across replicates);
and the aggregation layer reduces the replicate cloud into per-point
quantile bands with optimum-flip robustness flags
(:mod:`~repro.experiments.scenarios.aggregate`).  Scenario files are
TOML (:func:`~repro.experiments.scenarios.toml_loader.load_scenario_toml`,
see ``examples/scenario_jitter.toml``), driven by
``repro-experiments scenario generate|report``.
"""

from .adaptive import AdaptiveFamily, AdaptivePolicy, AdaptiveRun
from .aggregate import (
    OPTIMUM_COLUMNS,
    BandSpec,
    FamilyAccumulator,
    band_tables,
    relative_width,
)
from .scenario_set import ScenarioFamily, ScenarioMember, ScenarioSet
from .toml_loader import load_scenario_toml
from .transforms import (
    DISTRIBUTIONS,
    PERTURB_AXES,
    PERTURB_MODES,
    GridTransform,
    Jitter,
    Perturbation,
    PlatformProduct,
    Resample,
    Variant,
    derive_variants,
    replicate_seed,
    split_replicates,
)

__all__ = [
    "AdaptiveFamily",
    "AdaptivePolicy",
    "AdaptiveRun",
    "BandSpec",
    "FamilyAccumulator",
    "OPTIMUM_COLUMNS",
    "band_tables",
    "relative_width",
    "ScenarioSet",
    "ScenarioFamily",
    "ScenarioMember",
    "load_scenario_toml",
    "GridTransform",
    "Jitter",
    "Resample",
    "PlatformProduct",
    "Perturbation",
    "Variant",
    "derive_variants",
    "replicate_seed",
    "split_replicates",
    "PERTURB_AXES",
    "PERTURB_MODES",
    "DISTRIBUTIONS",
]
