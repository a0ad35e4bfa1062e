"""Figure 3: impact of the processor allocation (platform Hera).

Three panels over a sweep of ``P``:

* (a) first-order optimal period ``T*_P`` (Theorem 1) per scenario —
  decreasing in ``P`` everywhere, flat only where ``C_P = cP`` makes it
  ``P``-independent;
* (b) simulated execution overhead at ``(T*_P, P)`` per scenario —
  U-shaped: parallelism first wins, then failures dominate;
* (c) overhead difference between the first-order period and the
  numerically optimal period, in percent — the paper reports < 0.2%
  over the whole range.

Scenario pairs sharing the same ``C_P`` form (1/2, 3/4, 5/6) produce
nearly overlapping curves, as the paper notes.
"""

from __future__ import annotations

import numpy as np

from ..core.first_order import optimal_period
from ..optimize.period import optimize_period_batch
from ..platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME
from ..platforms.scenarios import SCENARIO_IDS
from .spec import AxisSpec, PanelSpec, StudyContext, StudySpec

__all__ = ["default_processor_grid", "SPEC"]


def default_processor_grid() -> np.ndarray:
    """The paper's x-range: a dense sweep of 128..1536 processors."""
    return np.arange(128, 1537, 128, dtype=float)


def _sweep_scenario(ctx: StudyContext, model) -> dict:
    """Vectorized per-scenario evaluation over the whole P grid.

    Uses the batch period optimizer (same bracket-widening path as the
    historical figure) so the analytic columns stay bit-identical to
    the per-figure code this spec replaced.
    """
    P_grid = np.asarray(ctx.grid, dtype=float)
    T_fo = np.asarray(optimal_period(P_grid, model.errors, model.costs))
    H_fo = np.asarray(model.overhead(T_fo, P_grid))
    _, H_num = optimize_period_batch(model, P_grid)
    gap_pct = (H_fo - H_num) * 100.0
    return {
        "T_fo": [float(v) for v in T_fo],
        "H_sim": [
            ctx.pipeline.simulate_mean(model, float(T_fo[i]), float(P), ctx.settings)
            for i, P in enumerate(P_grid)
        ],
        "gap_pct": [float(v) for v in gap_pct],
    }


def _declare(ctx: StudyContext) -> dict:
    """Evaluate each scenario over the whole grid at once."""
    return {sc: _sweep_scenario(ctx, ctx.build(sc)) for sc in ctx.scenarios}


def _gap_note(ctx: StudyContext, data: dict) -> str:
    max_gap_pct = 0.0
    for sc in ctx.scenarios:
        max_gap_pct = max(max_gap_pct, float(np.max(np.asarray(data[sc]["gap_pct"]))))
    return f"max gap {max_gap_pct:.4f} percentage points (paper: < 0.2%)"


_NOTE = "platform {platform}, alpha={alpha:g}, D={downtime:g}s"

SPEC = StudySpec(
    name="fig3",
    description="sweep of the processor count (period, overhead, first-order gap)",
    scenarios=SCENARIO_IDS,
    platforms=("Hera",),
    axis=AxisSpec(name="processors", header="P", grid=default_processor_grid),
    fixed={"alpha": DEFAULT_ALPHA, "downtime": DEFAULT_DOWNTIME},
    figure_base="fig3_{platform_l}",
    declare=_declare,
    panels=(
        PanelSpec(
            suffix="a_period",
            title="Figure 3(a) [{platform}]: first-order optimal period T*_P vs P",
            columns=("T_fo",),
            notes=(_NOTE, "T*_P decreases with P except when C_P = cP (flat)"),
        ),
        PanelSpec(
            suffix="b_overhead",
            title="Figure 3(b) [{platform}]: simulated overhead at (T*_P, P) vs P",
            columns=("H_sim",),
            notes=(_NOTE, "U-shape: parallelism gains then failure losses"),
        ),
        PanelSpec(
            suffix="c_gap",
            title=(
                "Figure 3(c) [{platform}]: overhead excess of first-order period "
                "over numerical optimum (percentage points)"
            ),
            columns=("gap_pct",),
            notes=(_NOTE, _gap_note),
        ),
    ),
)
