"""Figure 5: impact of the individual error rate (alpha = 0.1, Hera).

Sweep ``lambda_ind`` over 1e-12 .. 1e-8 for scenarios 1, 3, 5 and
regenerate:

* (a) optimal processor count ``P*`` — first-order and numerical, with
  the asymptotic guide lines :math:`\\lambda^{-1/4}` (scenario 1) and
  :math:`\\lambda^{-1/3}` (scenarios 3/5);
* (b) optimal period ``T*`` — guide lines :math:`\\lambda^{-1/2}` and
  :math:`\\lambda^{-1/3}`;
* (c) simulated execution overhead — tending to the 0.1 floor as
  processors become reliable.

The notes carry least-squares slope fits of the numerical optima so the
order claims of Theorems 2-3 are checked quantitatively, not by eye.
"""

from __future__ import annotations

import numpy as np

from ..analysis.asymptotics import fit_loglog_slope
from ..platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME
from .spec import AxisSpec, PanelSpec, StudyContext, StudySpec

__all__ = ["default_lambda_grid", "SPEC"]


def default_lambda_grid() -> np.ndarray:
    """The paper's x-range: 1e-12 .. 1e-8, two points per decade."""
    return np.logspace(-12, -8, 9)


def _expected_orders(sc: int) -> tuple[float, float]:
    """(x, y) in P* = Θ(λ^-x), T* = Θ(λ^-y) per Theorems 2-3."""
    return (0.25, 0.5) if sc in (1, 2) else (1.0 / 3.0, 1.0 / 3.0)


def _slope_notes(ctx: StudyContext, data: dict) -> list[str]:
    lams = np.asarray(ctx.grid, dtype=float)
    notes = []
    for sc in ctx.scenarios:
        x_exp, y_exp = _expected_orders(sc)
        p_fit = fit_loglog_slope(lams, np.asarray(data[sc]["P_num"], dtype=float))
        t_fit = fit_loglog_slope(lams, np.asarray(data[sc]["T_num"], dtype=float))
        notes.append(
            f"scenario {sc}: fitted P* order {p_fit.slope:+.3f} (theory {-x_exp:+.3f}), "
            f"T* order {t_fit.slope:+.3f} (theory {-y_exp:+.3f})"
        )
    return notes


_NOTE = "platform {platform}, alpha={alpha:g}, D={downtime:g}s"

SPEC = StudySpec(
    name="fig5",
    description="sweep of the error rate (alpha = 0.1) with slope fits",
    scenarios=(1, 3, 5),
    platforms=("Hera",),
    axis=AxisSpec(
        name="lambda_ind",
        header="lambda_ind",
        model_kwarg="lambda_ind",
        grid=default_lambda_grid,
    ),
    fixed={"alpha": DEFAULT_ALPHA, "downtime": DEFAULT_DOWNTIME},
    figure_base="fig5_{platform_l}",
    panels=(
        PanelSpec(
            suffix="a_processors",
            title="Figure 5(a) [{platform}]: optimal P* vs lambda_ind (alpha={alpha:g})",
            columns=("P_fo", "P_num"),
            notes=(_NOTE, _slope_notes),
        ),
        PanelSpec(
            suffix="b_period",
            title="Figure 5(b) [{platform}]: optimal T* vs lambda_ind (alpha={alpha:g})",
            columns=("T_fo", "T_num"),
            notes=(_NOTE,),
        ),
        PanelSpec(
            suffix="c_overhead",
            title="Figure 5(c) [{platform}]: simulated overhead vs lambda_ind",
            columns=("H_sim_fo", "H_sim_num"),
            notes=(_NOTE, "overhead tends to the alpha={alpha:g} floor as lambda drops"),
        ),
    ),
)
