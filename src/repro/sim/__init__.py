"""Monte-Carlo simulation of the VC protocol.

Three backends sample the paper's exponential model, one distribution:

``protocol``
    Event-driven reference (legible specification, per-event stats).
``batch``
    Vectorised closed-form sampler (~1000x faster than the reference).
``vectorized``
    Whole-budget aggregated sampler (negative-binomial failure counts,
    chunked dispatch; the paper-fidelity hot path).

Two more drive one shared protocol loop with a persistent failure
stream, for the laws the closed forms cannot express:

``renewal``
    One renewal fail-stop stream (Weibull robustness studies).
``nodes``
    ``P`` per-node streams, superposed (Proposition 1.2).

Plus the :class:`~repro.sim.engine.EventEngine` kernel, reproducible
RNG streams, estimators, the fused planner (:mod:`repro.sim.plan`),
through which every Monte-Carlo point maps to jobs, and the
single-point :func:`~repro.sim.montecarlo.simulate_overhead` driver.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".batch": (
        "BatchStats", "PatternRates", "merge_batch_stats", "plan_chunks",
        "simulate_batch", "truncated_exponential",
    ),
    ".engine": ("EventEngine",),
    ".events": ("Event", "EventKind"),
    ".montecarlo": (
        "FAST", "METHODS", "PAPER", "VECTORIZED_THRESHOLD", "Fidelity",
        "resolve_method", "simulate_overhead",
    ),
    ".executors": ("Executor", "PoolExecutor", "SerialExecutor", "make_executor"),
    ".nodes": ("NodePool", "simulate_run_nodes"),
    ".protocol": ("RunStats", "TimeBreakdown", "simulate_run"),
    ".plan": (
        "BACKEND_VERSION", "ResultCache", "SimRequest", "SimulationPlan",
        "plan_simulations", "simulate_requests",
    ),
    ".renewal": ("simulate_run_renewal",),
    ".vectorized": ("simulate_vectorized",),
    ".results": ("OverheadEstimate", "overhead_estimate", "overhead_samples"),
    ".rng": ("make_rng", "spawn_rngs", "spawn_seed_sequences"),
    ".streams": ("ArrivalProcess", "ExponentialArrivals", "WeibullArrivals"),
    ".trace": ("Trace", "TraceEvent", "TraceEventKind", "format_trace"),
})

__all__ = [
    "EventEngine",
    "Event",
    "EventKind",
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
    "simulate_requests",
    "simulate_run_renewal",
    "NodePool",
    "simulate_run_nodes",
    "ArrivalProcess",
    "ExponentialArrivals",
    "WeibullArrivals",
    "Trace",
    "TraceEvent",
    "TraceEventKind",
    "format_trace",
]
