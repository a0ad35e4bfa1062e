"""Extension experiment: per-node failure laws vs the aggregated platform.

The paper's Proposition 1.2 collapses ``P`` per-node failure processes
into one platform-level Poisson process of rate ``P * lambda_ind``.
This experiment simulates the optimal pattern with failures generated
**per node** under three regimes and compares against the aggregated
analytic prediction:

* exponential nodes (must match — Proposition 1.2 end-to-end);
* stationary Weibull nodes (Palm-Khintchine: the superposition of
  hundreds of renewal streams is effectively Poisson, so the paper's
  exponential assumption holds even for bursty nodes);
* fresh Weibull nodes (every node at age zero: the infant-mortality
  transient measurably raises the overhead — the one regime where the
  aggregated model is optimistic).
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternModel
from ..optimize.allocation import optimize_allocation_batch
from ..platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME
from ..platforms.scenarios import build_model
from ..sim.nodes import simulate_run_nodes
from ..sim.rng import spawn_seed_sequences
from ..sim.streams import WeibullArrivals
from .common import FigureResult
from .pipeline import materialize
from .spec import StudyContext, StudySpec

__all__ = ["SPEC"]


def _nodes_overhead(
    model: PatternModel,
    T: float,
    P: int,
    n_patterns: int,
    n_runs: int,
    seed: int,
    **kwargs,
) -> float:
    """Mean simulated overhead under per-node failure generation.

    Module-level and picklable so the pipeline can dispatch one failure
    regime to a pool worker; replicates the historical sequential loop
    (same spawned seeds, same run order) bit for bit.
    """
    work = n_patterns * T * float(model.speedup.speedup(P))
    seeds = spawn_seed_sequences(n_runs, seed=seed)
    times = np.array(
        [
            simulate_run_nodes(
                model, T, P, n_patterns, np.random.default_rng(ss), **kwargs
            ).total_time
            for ss in seeds
        ]
    )
    return float(times.mean() / work)


def _declare(ctx: StudyContext):
    shape = ctx.options.get("shape", 0.7)
    alpha = ctx.fixed["alpha"]
    downtime = ctx.fixed["downtime"]
    n_runs, n_patterns = ctx.settings.budget()
    # Event-driven per-node simulation: keep the budget interactive.
    n_runs = min(n_runs, 30)
    n_patterns = min(n_patterns, 60)

    panels = []
    models = [
        build_model(ctx.platform, scenario_id, alpha=alpha, downtime=downtime)
        for scenario_id in ctx.scenarios
    ]
    optima = optimize_allocation_batch(models, integer=True)
    for scenario_id, model, opt in zip(ctx.scenarios, models, optima):
        T, P = opt.period, int(opt.processors)
        lam_node = model.errors.lambda_ind * model.errors.fail_stop_fraction
        weibull = WeibullArrivals.from_mean(shape, 1.0 / lam_node)

        def overhead_of(seed_offset: int, **kwargs):
            if not ctx.settings.simulate:
                return None
            return ctx.pipeline.call(
                _nodes_overhead,
                model,
                T,
                P,
                n_patterns,
                n_runs,
                ctx.settings.seed + seed_offset,
                **kwargs,
            )

        rows = (
            ("aggregated analytic (paper)", float(model.overhead(T, P))),
            ("exponential nodes", overhead_of(1)),
            (f"Weibull {shape:g} nodes, stationary", overhead_of(2, node_process=weibull)),
            (
                f"Weibull {shape:g} nodes, fresh machine",
                overhead_of(3, node_process=weibull, stationary=False),
            ),
        )
        panels.append((scenario_id, T, P, rows))
    return {"panels": panels, "shape": shape, "n_runs": n_runs, "n_patterns": n_patterns}


def _assemble(ctx: StudyContext, state: dict) -> list[FigureResult]:
    results: list[FigureResult] = []
    for scenario_id, T, P, rows in state["panels"]:
        results.append(
            FigureResult(
                figure_id=f"ext_nodes_sc{scenario_id}_{ctx.platform.lower()}",
                title=(
                    f"Extension [{ctx.platform} sc{scenario_id}]: per-node failure "
                    f"laws at the optimal pattern (T={T:.0f}s, P={P})"
                ),
                columns=("failure model", "overhead"),
                rows=materialize(rows),
                notes=(
                    "exponential nodes validate Proposition 1.2 end-to-end",
                    "stationary Weibull ~ Poisson platform (Palm-Khintchine)",
                    "fresh Weibull machines pay an infant-mortality transient",
                    f"simulation: {state['n_runs']} runs x {state['n_patterns']} "
                    "patterns (node-level DES)"
                    if ctx.settings.simulate
                    else "simulation disabled",
                ),
            )
        )
    return results


SPEC = StudySpec(
    name="ext-nodes",
    description="extension: per-node failure laws vs the aggregated platform",
    scenarios=(1,),
    platforms=("Hera",),
    fixed={"alpha": DEFAULT_ALPHA, "downtime": DEFAULT_DOWNTIME},
    declare=_declare,
    assemble=_assemble,
)
