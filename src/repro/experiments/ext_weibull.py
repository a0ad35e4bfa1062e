"""Extension experiment: robustness under Weibull fail-stop arrivals.

Not a figure of the paper — a robustness study its exponential
assumption invites: deploy the exponential-optimal pattern of a
platform/scenario and simulate it under Weibull renewal arrivals of
equal MTBF for a range of shape parameters (shape 1 = the paper's
Poisson assumption; field studies fit HPC platforms with shape 0.5-0.8).
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternModel
from ..optimize.allocation import optimize_allocation_batch
from ..platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME
from ..platforms.scenarios import build_model
from ..sim.protocol import simulate_run
from ..sim.rng import spawn_seed_sequences
from ..sim.streams import WeibullArrivals
from .common import FigureResult
from .pipeline import materialize
from .spec import StudyContext, StudySpec

__all__ = ["DEFAULT_SHAPES", "SPEC"]

DEFAULT_SHAPES: tuple[float, ...] = (0.5, 0.7, 1.0, 1.5)


def _renewal_overhead(
    model: PatternModel,
    T: float,
    P: float,
    n_patterns: int,
    stream: WeibullArrivals,
    n_runs: int,
    seed: int,
) -> float:
    """Mean simulated overhead under renewal fail-stop arrivals.

    Module-level and picklable-argument-only so the pipeline can ship
    one (scenario, shape) cell to a pool worker; the seed spawning and
    run loop replicate the historical sequential sweep bit for bit.
    """
    work = n_patterns * T * float(model.speedup.speedup(P))
    seeds = spawn_seed_sequences(n_runs, seed=seed)
    times = np.array(
        [
            simulate_run(
                model, T, P, n_patterns, np.random.default_rng(ss),
                fail_stop=stream,
            ).total_time
            for ss in seeds
        ]
    )
    return float(times.mean() / work)


def _declare(ctx: StudyContext):
    shapes = ctx.options.get("shapes", DEFAULT_SHAPES)
    alpha = ctx.fixed["alpha"]
    downtime = ctx.fixed["downtime"]
    n_runs, n_patterns = ctx.settings.budget()
    # The renewal simulator is event-driven; cap the budget so the
    # extension stays interactive even at --paper settings.
    n_runs = min(n_runs, 60)
    n_patterns = min(n_patterns, 100)

    rows = []
    notes = []
    models = [
        build_model(ctx.platform, scenario_id, alpha=alpha, downtime=downtime)
        for scenario_id in ctx.scenarios
    ]
    optima = optimize_allocation_batch(models)
    for scenario_id, model, opt in zip(ctx.scenarios, models, optima):
        T, P = opt.period, opt.processors
        lam_f = float(model.errors.fail_stop_rate(P))
        row: list = [scenario_id, round(P, 1), round(T, 1), opt.overhead]
        for i, shape in enumerate(shapes):
            if not ctx.settings.simulate:
                row.append(None)
                continue
            stream = WeibullArrivals.from_mean(shape, 1.0 / lam_f)
            row.append(
                ctx.pipeline.call(
                    _renewal_overhead,
                    model,
                    T,
                    P,
                    n_patterns,
                    stream,
                    n_runs,
                    ctx.settings.seed + 1000 * i,
                )
            )
        rows.append(tuple(row))
        notes.append(
            f"scenario {scenario_id}: pattern optimised under the exponential "
            f"assumption (T={T:.0f}s, P={P:.0f}); shape 1.0 column should "
            "match the analytic overhead"
        )
    return {
        "rows": rows,
        "notes": notes,
        "shapes": shapes,
        "n_runs": n_runs,
        "n_patterns": n_patterns,
    }


def _assemble(ctx: StudyContext, state: dict) -> list[FigureResult]:
    shapes = state["shapes"]
    return [
        FigureResult(
            figure_id=f"ext_weibull_{ctx.platform.lower()}",
            title=(
                f"Extension [{ctx.platform}]: exponential-optimal pattern under "
                "Weibull fail-stop arrivals (equal MTBF)"
            ),
            columns=("scenario", "P_opt", "T_opt", "H_analytic")
            + tuple(f"H_sim(shape={s:g})" for s in shapes),
            rows=tuple(materialize(state["rows"])),
            notes=tuple(state["notes"])
            + (
                f"simulation: {state['n_runs']} runs x {state['n_patterns']} patterns "
                "(renewal DES)",
            ),
        )
    ]


SPEC = StudySpec(
    name="ext-weibull",
    description="extension: robustness under Weibull fail-stop arrivals",
    scenarios=(1, 3),
    platforms=("Hera",),
    fixed={"alpha": DEFAULT_ALPHA, "downtime": DEFAULT_DOWNTIME},
    declare=_declare,
    assemble=_assemble,
)
