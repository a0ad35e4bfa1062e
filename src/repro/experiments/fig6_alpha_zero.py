"""Figure 6: perfectly parallel jobs (alpha = 0) under the rate sweep.

With ``alpha = 0`` the first-order analysis admits no optimum (Section
III-D.4), so the paper reports the numerical optimum only.  Sweep
``lambda_ind`` over 1e-12 .. 1e-8 for scenarios 1, 3, 5 on Hera and
regenerate the three panels: numerical ``P*``, ``T*`` and simulated
overhead.

Shape checks (paper, Section IV-B.4): scenario 1 follows
:math:`P^* \\approx \\Theta(\\lambda^{-1/2})`,
:math:`T^* \\approx \\Theta(\\lambda^{-1/2})`,
:math:`H^* \\approx \\Theta(\\lambda^{1/2})`; scenarios 3/5 follow
:math:`P^* \\approx \\Theta(\\lambda^{-1})`, :math:`T^* \\approx O(1)`,
:math:`H^* \\approx \\Theta(\\lambda)`.  Slope fits in the notes.
"""

from __future__ import annotations

import numpy as np

from ..analysis.asymptotics import fit_loglog_slope
from ..platforms.catalog import DEFAULT_DOWNTIME
from .fig5_error_rate import default_lambda_grid
from .spec import AxisSpec, PanelSpec, StudyContext, StudySpec

__all__ = ["SPEC"]


def _expected_orders(sc: int) -> tuple[float, float, float]:
    """(x, y, z): P* ~ λ^-x, T* ~ λ^-y, H* ~ λ^z (numerical, Fig. 6)."""
    return (0.5, 0.5, 0.5) if sc in (1, 2) else (1.0, 0.0, 1.0)


def _slope_notes(ctx: StudyContext, data: dict) -> list[str]:
    lams = np.asarray(ctx.grid, dtype=float)
    notes = []
    for sc in ctx.scenarios:
        x_exp, _, z_exp = _expected_orders(sc)
        p_fit = fit_loglog_slope(lams, np.asarray(data[sc]["P_num"], dtype=float))
        h_fit = fit_loglog_slope(lams, np.asarray(data[sc]["H_pred_num"], dtype=float))
        notes.append(
            f"scenario {sc}: fitted P* order {p_fit.slope:+.3f} (paper ~{-x_exp:+.2f}), "
            f"H* order {h_fit.slope:+.3f} (paper ~{z_exp:+.2f})"
        )
    return notes


_NOTE = "platform {platform}, alpha=0 (perfectly parallel), D={downtime:g}s"

SPEC = StudySpec(
    name="fig6",
    description="sweep of the error rate for perfectly parallel jobs (alpha = 0)",
    scenarios=(1, 3, 5),
    platforms=("Hera",),
    axis=AxisSpec(
        name="lambda_ind",
        header="lambda_ind",
        model_kwarg="lambda_ind",
        grid=default_lambda_grid,
    ),
    fixed={"alpha": 0.0, "downtime": DEFAULT_DOWNTIME},
    figure_base="fig6_{platform_l}",
    panels=(
        PanelSpec(
            suffix="a_processors",
            title="Figure 6(a) [{platform}]: numerical optimal P* vs lambda_ind (alpha=0)",
            columns=("P_num",),
            notes=(_NOTE, _slope_notes),
        ),
        PanelSpec(
            suffix="b_period",
            title="Figure 6(b) [{platform}]: numerical optimal T* vs lambda_ind (alpha=0)",
            columns=("T_num",),
            notes=(_NOTE, "scenario 1: T* ~ lambda^-1/2; scenarios 3/5: T* ~ O(1)"),
        ),
        PanelSpec(
            suffix="c_overhead",
            title="Figure 6(c) [{platform}]: simulated overhead vs lambda_ind (alpha=0)",
            columns=("H_sim_num",),
            notes=(_NOTE, "H ~ lambda^1/2 (sc 1) and ~ lambda (sc 3/5)"),
        ),
    ),
)
