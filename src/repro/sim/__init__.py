"""Monte-Carlo simulation of the VC protocol.

Three backends sample the paper's exponential model, one distribution:

``des``
    The event-level protocol loop (:func:`~repro.sim.protocol.simulate_run`;
    the legible specification, with per-event stats).
``batch``
    Vectorised closed-form sampler, one row per pattern.
``vectorized``
    Whole-budget aggregated sampler (negative-binomial failure counts,
    chunked dispatch; the paper-fidelity hot path).

The event-level loop keeps a persistent failure stream, so it also
runs the laws the closed forms cannot express: a renewal fail-stop
law (``simulate_run(..., fail_stop=law)``, the Weibull robustness
studies) and ``P`` superposed per-node streams
(:func:`~repro.sim.nodes.simulate_run_nodes`, Proposition 1.2).

Plus reproducible RNG streams, estimators, the fused planner
(:mod:`repro.sim.plan`), through which every Monte-Carlo point maps to
jobs, and the single-point
:func:`~repro.sim.montecarlo.simulate_overhead` driver.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".batch": (
        "BatchStats", "PatternRates", "merge_batch_stats", "plan_chunks",
        "simulate_batch", "truncated_exponential",
    ),
    ".montecarlo": (
        "FAST", "METHODS", "PAPER", "VECTORIZED_THRESHOLD", "Fidelity",
        "resolve_method", "simulate_overhead",
    ),
    ".executors": ("Executor", "PoolExecutor", "SerialExecutor", "make_executor"),
    ".nodes": ("NodePool", "simulate_run_nodes"),
    ".protocol": ("RunStats", "TimeBreakdown", "simulate_run"),
    ".plan": (
        "BACKEND_VERSION", "ResultCache", "SimRequest", "SimulationPlan",
        "plan_simulations",
    ),
    ".vectorized": ("simulate_vectorized",),
    ".results": ("OverheadEstimate", "overhead_estimate", "overhead_samples"),
    ".rng": ("make_rng", "spawn_rngs", "spawn_seed_sequences"),
    ".streams": ("ArrivalProcess", "ExponentialArrivals", "WeibullArrivals"),
})

__all__ = [
    "RunStats",
    "TimeBreakdown",
    "simulate_run",
    "BatchStats",
    "PatternRates",
    "simulate_batch",
    "simulate_vectorized",
    "plan_chunks",
    "merge_batch_stats",
    "truncated_exponential",
    "OverheadEstimate",
    "overhead_estimate",
    "overhead_samples",
    "make_rng",
    "spawn_rngs",
    "spawn_seed_sequences",
    "Fidelity",
    "FAST",
    "PAPER",
    "METHODS",
    "VECTORIZED_THRESHOLD",
    "resolve_method",
    "simulate_overhead",
    "BACKEND_VERSION",
    "SimRequest",
    "SimulationPlan",
    "ResultCache",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "make_executor",
    "plan_simulations",
    "NodePool",
    "simulate_run_nodes",
    "ArrivalProcess",
    "ExponentialArrivals",
    "WeibullArrivals",
]
