"""Figure 7: impact of the downtime D (alpha = 0.1, Hera).

Sweep the downtime from 0 to 3 hours (repair vs. replacement-based
restoration) for scenarios 1, 3, 5 and regenerate: optimal ``P*``,
optimal ``T*``, and simulated overhead, for both the first-order and
the numerically optimal solutions.

Shape checks (paper, Section IV-B.5): ``D`` does not appear in the
first-order formulas, so the first-order pattern is exactly flat in
``D``; the numerical ``P*`` decreases slightly as ``D`` grows (longer
outages argue for fewer failures, i.e. fewer processors); yet the
*simulated overheads* of the two solutions stay nearly identical
because even a 3-hour downtime is small against the platform MTBF.
"""

from __future__ import annotations

import numpy as np

from ..platforms.catalog import DEFAULT_ALPHA
from ..units import SECONDS_PER_HOUR
from .spec import AxisSpec, PanelSpec, StudySpec

__all__ = ["default_downtime_grid", "SPEC"]


def default_downtime_grid() -> np.ndarray:
    """0 .. 3 hours in half-hour steps (seconds)."""
    return np.linspace(0.0, 3.0, 7) * SECONDS_PER_HOUR


_NOTE = "platform {platform}, alpha={alpha:g}"

SPEC = StudySpec(
    name="fig7",
    description="sweep of the downtime D",
    scenarios=(1, 3, 5),
    platforms=("Hera",),
    axis=AxisSpec(
        name="downtime",
        header="D_hours",
        model_kwarg="downtime",
        grid=default_downtime_grid,
        display=lambda D: float(D) / SECONDS_PER_HOUR,
    ),
    fixed={"alpha": DEFAULT_ALPHA},
    figure_base="fig7_{platform_l}",
    panels=(
        PanelSpec(
            suffix="a_processors",
            title="Figure 7(a) [{platform}]: optimal P* vs downtime (hours)",
            columns=("P_fo", "P_num"),
            notes=(_NOTE, "first-order P* flat in D; numerical P* mildly decreasing"),
        ),
        PanelSpec(
            suffix="b_period",
            title="Figure 7(b) [{platform}]: optimal T* vs downtime (hours)",
            columns=("T_fo", "T_num"),
            notes=(_NOTE, "first-order T* flat in D"),
        ),
        PanelSpec(
            suffix="c_overhead",
            title="Figure 7(c) [{platform}]: simulated overhead vs downtime (hours)",
            columns=("H_sim_fo", "H_sim_num"),
            notes=(_NOTE, "first-order and optimal overheads remain close for all D"),
        ),
    ),
)
