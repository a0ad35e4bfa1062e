"""Names the command line is built from, defined without numpy.

``repro-experiments`` builds its whole parser (platform and backend
choices, the default seed, the runs directory) before any model module
loads.  Each name is defined here once; the module that owns its
meaning re-exports it (:mod:`repro.platforms.catalog`,
:mod:`repro.sim.montecarlo`, :mod:`repro.sim.rng`,
:mod:`repro.sim.manifest`, :mod:`repro.obs.trace`).
"""

from __future__ import annotations

__all__ = [
    "PLATFORM_NAMES",
    "METHODS",
    "DEFAULT_SEED",
    "DEFAULT_RUNS_DIR",
    "TRACE_NAME",
]

#: Canonical platform order used by the figures (Table II).
PLATFORM_NAMES: tuple[str, ...] = ("Hera", "Atlas", "Coastal", "CoastalSSD")

#: Valid ``method=`` choices of :func:`repro.sim.montecarlo.simulate_overhead`.
METHODS = ("auto", "batch", "des", "vectorized")

#: Default master seed used across the experiment harness (fixed so the
#: published tables regenerate bit-identically).
DEFAULT_SEED = 20160913  # Cluster'16 conference week

#: Default directory run manifests live under (one subdirectory per
#: run id), relative to the working directory unless ``--runs-dir``
#: points elsewhere.
DEFAULT_RUNS_DIR = ".repro-runs"

#: Default file name of a run's trace journal, next to its manifest.
TRACE_NAME = "trace.jsonl"
