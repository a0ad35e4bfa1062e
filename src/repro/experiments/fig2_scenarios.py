"""Figure 2: optimal patterns across resilience scenarios and platforms.

For each of the six Table-III scenarios on a given platform (the paper
shows all four platforms side by side), regenerate the three panels:

* optimal number of processors ``P*`` — first-order vs numerical;
* optimal checkpointing period ``T*`` — first-order vs numerical;
* execution overhead — first-order/optimal *predictions* (closed form
  and exact model) and first-order/optimal *simulations* (Monte Carlo
  at the respective patterns).

Shape checks (paper, Section IV-B.1): first-order ≈ optimal under
scenarios 1-4; scenario 5's first-order deviates (few-% overhead gap);
scenario 6 admits no first-order solution (numerical only); all
overheads ≈ 0.11 at ``alpha = 0.1``.
"""

from __future__ import annotations

from ..platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME, PLATFORM_NAMES
from ..platforms.scenarios import SCENARIO_IDS
from .spec import PanelSpec, StudyContext, StudySpec

__all__ = ["SPEC"]


def _max_gap_note(ctx: StudyContext, data: dict) -> str:
    max_gap = 0.0
    for sc in ctx.scenarios:
        h_fo = data[sc]["H_pred_fo"][0]
        if h_fo is not None:
            max_gap = max(max_gap, abs(h_fo - data[sc]["H_pred_num"][0]))
    return (
        "max |H_fo - H_opt| prediction gap over closed-form scenarios: "
        f"{max_gap:.5f}"
    )


def _sim_note(ctx: StudyContext, data: dict) -> str:
    s = ctx.settings
    if not s.simulate:
        return "simulation disabled"
    return (
        f"simulation: {s.fidelity.n_runs} runs x "
        f"{s.fidelity.n_patterns} patterns, seed {s.seed}"
    )


SPEC = StudySpec(
    name="fig2",
    description="optimal patterns per scenario and platform",
    scenarios=SCENARIO_IDS,
    platforms=tuple(PLATFORM_NAMES),
    axis=None,  # rows are the Table-III scenarios themselves
    fixed={"alpha": DEFAULT_ALPHA, "downtime": DEFAULT_DOWNTIME},
    figure_base="fig2_{platform_l}",
    supports_all_platforms=True,
    panels=(
        PanelSpec(
            suffix="",
            title=(
                "Figure 2 [{platform}]: optimal patterns per scenario "
                "(alpha={alpha:g}, D={downtime:g}s)"
            ),
            columns=(
                "P_fo",
                "P_num",
                "T_fo",
                "T_num",
                "H_pred_fo",
                "H_pred_num",
                "H_sim_fo",
                "H_sim_num",
            ),
            headers=(
                "scenario",
                "P*_first_order",
                "P*_optimal",
                "T*_first_order",
                "T*_optimal",
                "H_first_order_pred",
                "H_optimal_pred",
                "H_first_order_sim",
                "H_optimal_sim",
            ),
            notes=(_max_gap_note, _sim_note),
        ),
    ),
)
