"""Single-point Monte-Carlo driver: one estimate per call.

Runs one point on any of the simulation backends behind one call:

>>> from repro.platforms import build_model
>>> from repro.sim import simulate_overhead
>>> est = simulate_overhead(build_model("Hera", 1), T=6000.0, P=256,
...                         n_runs=20, n_patterns=50, seed=1)
>>> 0.1 < est.mean < 0.2
True

The paper's protocol (Section IV-A) averages 500 runs of at least 500
patterns; those are the ``paper``-fidelity defaults, while tests and
quick sweeps use far smaller numbers (the estimator is unbiased at any
size, only the CI widens).

Backends
--------
``"des"``
    The event-level protocol loop (:func:`repro.sim.protocol.simulate_run`);
    legible specification, about 20x slower than ``"batch"``, for
    validation.
``"batch"``
    Per-pattern closed-form sampler (:func:`repro.sim.batch.simulate_batch`).
``"vectorized"``
    Whole-budget aggregated sampler
    (:func:`repro.sim.vectorized.simulate_vectorized`); chunked and
    optionally multiprocess, another order of magnitude faster on
    paper-fidelity budgets.
``"auto"`` (default)
    ``vectorized`` for budgets of at least
    :data:`VECTORIZED_THRESHOLD` pattern cells, ``batch`` below.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import METHODS
from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from .results import OverheadEstimate

__all__ = [
    "Fidelity",
    "FAST",
    "PAPER",
    "METHODS",
    "VECTORIZED_THRESHOLD",
    "resolve_method",
    "simulate_overhead",
]


@dataclass(frozen=True)
class Fidelity:
    """A (runs x patterns) Monte-Carlo budget."""

    n_runs: int
    n_patterns: int
    name: str = "custom"

    @property
    def n_cells(self) -> int:
        """Total pattern cells in the budget."""
        return self.n_runs * self.n_patterns


#: Quick sweeps / CI: wide CIs but unbiased.
FAST = Fidelity(n_runs=50, n_patterns=100, name="fast")
#: The paper's protocol: 500 runs, each >= 500 patterns.
PAPER = Fidelity(n_runs=500, n_patterns=500, name="paper")

#: ``method="auto"`` switches from ``batch`` to ``vectorized`` at this
#: many ``runs x patterns`` cells (the PAPER budget is 250 000).
VECTORIZED_THRESHOLD = 100_000


def resolve_method(method: str, n_runs: int, n_patterns: int) -> str:
    """Resolve ``"auto"`` to a concrete backend for the given budget."""
    if method not in METHODS:
        raise SimulationError(
            f"unknown simulation method {method!r}; valid choices are "
            + ", ".join(repr(m) for m in METHODS)
        )
    if method == "auto":
        return "vectorized" if n_runs * n_patterns >= VECTORIZED_THRESHOLD else "batch"
    return method


def simulate_overhead(
    model: PatternModel,
    T: float,
    P: float,
    n_runs: int = FAST.n_runs,
    n_patterns: int = FAST.n_patterns,
    seed: int | None = None,
    method: str = "auto",
) -> OverheadEstimate:
    """Estimate the expected execution overhead of PATTERN(T, P) by simulation.

    Parameters
    ----------
    model:
        Platform/application bundle.
    T, P:
        Pattern parameters (P is used as given, fractional allocations
        are meaningful in the model and accepted).
    n_runs, n_patterns:
        Monte-Carlo budget; see :data:`FAST` and :data:`PAPER`.
    seed:
        Master seed (default: the library-wide fixed seed).
    method:
        One of :data:`METHODS`.  ``"auto"`` (default) picks
        ``"vectorized"`` for budgets of at least
        :data:`VECTORIZED_THRESHOLD` cells and ``"batch"`` below;
        ``"des"`` is the event-level protocol loop (about 20x slower
        than ``"batch"``, for validation).

    One call runs in-process; to spread many points over worker
    processes, declare them on a
    :class:`~repro.experiments.pipeline.SimulationPipeline` with
    ``jobs > 1`` (:meth:`~repro.experiments.pipeline.SimulationPipeline.simulate_mean`,
    then ``resolve``): its memoised estimates are bit-identical.
    """
    # The point runs as the planner's jobs, in-process: one dispatch for
    # every backend (``plan`` imports this module, hence the local import).
    from .plan import SimRequest, merge_request_results, request_jobs, run_job

    request = SimRequest(model, T, P, n_runs, n_patterns, seed, method)
    method = request.resolved_method
    parts = [run_job(job) for job in request_jobs(request, method)]
    return merge_request_results(request, method, parts)
