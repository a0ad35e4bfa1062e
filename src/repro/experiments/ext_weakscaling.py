"""Extension experiment: weak vs. strong scaling under failures.

The paper's future-work list opens with "weak vs strong scalability".
This experiment quantifies both on a failure-prone platform:

* **Strong scaling** — fixed total work ``W``: the expected makespan
  :math:`H(T^*_P, P)\\,W` first shrinks with ``P`` (parallelism), then
  grows (failures); the minimum is the paper's ``P*``.
* **Weak scaling** — Gustafson-style work ``W(P) = W_1(\\alpha + (1-\\alpha)P)``
  with a Gustafson speedup profile: error-free, the makespan is flat in
  ``P`` (that is the point of weak scaling); with failures it inflates
  as :math:`1 + 2\\sqrt{(\\lambda^f_P/2 + \\lambda^s_P)(V_P + C_P)}`,
  which *grows* with the machine.  The experiment reports the inflation
  factor per machine size and the largest machine that keeps it under a
  budget (10% by default) — a hard failure-imposed ceiling on weak
  scaling that has no error-free counterpart.
"""

from __future__ import annotations

import numpy as np

from ..core.makespan import weak_scaled_work
from ..core.pattern import PatternModel
from ..core.speedup import GustafsonSpeedup
from ..optimize.period import optimize_period_batch
from ..platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME
from ..platforms.scenarios import build_model, scenario_costs
from .common import FigureResult
from .spec import AxisSpec, StudyContext, StudySpec

__all__ = ["default_machine_grid", "SPEC"]


def default_machine_grid() -> np.ndarray:
    """Machine sizes 2^7 .. 2^17 (weak scaling reaches further than strong)."""
    return 2.0 ** np.arange(7, 18)


def _declare(ctx: StudyContext) -> list[FigureResult]:
    """Fully analytic: strong-scaling overhead + weak-scaling inflation."""
    Ps = np.asarray(ctx.grid, dtype=float)
    alpha = ctx.fixed["alpha"]
    downtime = ctx.fixed["downtime"]
    inflation_budget = ctx.options.get("inflation_budget", 1.10)

    results: list[FigureResult] = []
    for scenario_id in ctx.scenarios:
        strong_model = build_model(
            ctx.platform, scenario_id, alpha=alpha, downtime=downtime
        )
        weak_model = PatternModel(
            errors=strong_model.errors,
            costs=scenario_costs(ctx.platform, scenario_id, downtime),
            speedup=GustafsonSpeedup(alpha),
        )

        # Strong scaling: expected time per unit of (fixed) work.
        _, H_strong = optimize_period_batch(strong_model, Ps)
        strong_best = int(np.argmin(H_strong))

        # Weak scaling: per-P work W(P), error-free flat makespan; the
        # failure inflation is H_weak(T*_P, P) * W(P) / (error-free).
        _, H_weak = optimize_period_batch(weak_model, Ps)
        W = np.array([weak_scaled_work(1.0, float(P), alpha) for P in Ps])
        error_free = np.asarray(weak_model.speedup.overhead(Ps)) * W  # == 1.0
        inflation = H_weak * W / error_free

        within = Ps[inflation <= inflation_budget]
        ceiling = float(within.max()) if within.size else float("nan")

        rows = tuple(
            (
                float(P),
                float(H_strong[i]),
                float(W[i]),
                float(inflation[i]),
                bool(inflation[i] <= inflation_budget),
            )
            for i, P in enumerate(Ps)
        )
        results.append(
            FigureResult(
                figure_id=f"ext_weakscaling_sc{scenario_id}_{ctx.platform.lower()}",
                title=(
                    f"Extension [{ctx.platform} sc{scenario_id}]: strong-scaling "
                    "overhead and weak-scaling failure inflation vs machine size"
                ),
                columns=(
                    "P",
                    "strong_overhead",
                    "weak_work_W(P)",
                    "weak_inflation",
                    f"within_{inflation_budget:.0%}_budget",
                ),
                rows=rows,
                notes=(
                    f"strong-scaling optimum at P = {Ps[strong_best]:.0f} "
                    f"(overhead {H_strong[strong_best]:.4f})",
                    f"weak-scaling ceiling at {inflation_budget:.0%} inflation: "
                    f"P <= {ceiling:.0f}",
                    "error-free weak scaling is flat (inflation 1.0 at any P): "
                    "the ceiling is entirely failure-imposed",
                ),
            )
        )
    return results


SPEC = StudySpec(
    name="ext-weakscaling",
    description="extension: weak vs strong scaling under failures",
    scenarios=(1, 3),
    platforms=("Hera",),
    axis=AxisSpec(name="machines", header="P", grid=default_machine_grid),
    fixed={"alpha": DEFAULT_ALPHA, "downtime": DEFAULT_DOWNTIME},
    declare=_declare,
    assemble=lambda ctx, state: state,
)
