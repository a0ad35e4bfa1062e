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

from .batch import (
    BatchStats,
    PatternRates,
    merge_batch_stats,
    plan_chunks,
    simulate_batch,
    truncated_exponential,
)
from .engine import EventEngine
from .events import Event, EventKind
from .montecarlo import (
    FAST,
    METHODS,
    PAPER,
    VECTORIZED_THRESHOLD,
    Fidelity,
    resolve_method,
    simulate_overhead,
)
from .executors import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    ShardedExecutor,
    make_executor,
    merge_shard_dirs,
)
from .nodes import NodePool, simulate_run_nodes
from .protocol import RunStats, TimeBreakdown, simulate_run
from .plan import (
    BACKEND_VERSION,
    ResultCache,
    SimRequest,
    SimulationPlan,
    plan_simulations,
    simulate_requests,
)
from .renewal import simulate_run_renewal
from .vectorized import simulate_vectorized
from .results import OverheadEstimate, overhead_estimate, overhead_samples
from .rng import make_rng, spawn_rngs, spawn_seed_sequences
from .streams import ArrivalProcess, ExponentialArrivals, WeibullArrivals
from .trace import Trace, TraceEvent, TraceEventKind, format_trace

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
    "ShardedExecutor",
    "make_executor",
    "merge_shard_dirs",
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
