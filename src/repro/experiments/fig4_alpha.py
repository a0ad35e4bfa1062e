"""Figure 4: impact of the sequential fraction ``alpha`` (platform Hera).

Sweep ``alpha`` over {0.1, 0.01, 0.001, 0.0001, 0} for scenarios 1, 3
and 5 (2/4/6 behave like their same-``C_P`` siblings) and regenerate:

* (a) optimal processor count ``P*`` — first-order and numerical;
* (b) optimal period ``T*`` — first-order and numerical;
* (c) simulated execution overhead at both patterns.

Shape checks (paper, Section IV-B.3): ``P*`` grows as ``alpha`` drops
(Amdahl headroom); overhead tends to the ``alpha`` floor; scenario 5
overtakes the others at small ``alpha`` thanks to its cheaper
checkpoints; at ``alpha = 0`` no first-order solution exists and the
numerical ``P*`` stays finite with overhead strictly above 1e-5.
"""

from __future__ import annotations

from ..platforms.catalog import DEFAULT_DOWNTIME
from .spec import AxisSpec, PanelSpec, StudySpec

__all__ = ["DEFAULT_ALPHAS", "SPEC"]

#: The paper's x-axis, largest to smallest (0 = perfectly parallel).
DEFAULT_ALPHAS: tuple[float, ...] = (0.1, 0.01, 0.001, 0.0001, 0.0)

_NOTE = "platform {platform}, D={downtime:g}s, scenarios {scenarios}"

SPEC = StudySpec(
    name="fig4",
    description="sweep of the sequential fraction alpha",
    scenarios=(1, 3, 5),
    platforms=("Hera",),
    axis=AxisSpec(
        name="alpha",
        header="alpha",
        model_kwarg="alpha",
        grid=lambda: DEFAULT_ALPHAS,
    ),
    fixed={"downtime": DEFAULT_DOWNTIME},
    figure_base="fig4_{platform_l}",
    panels=(
        PanelSpec(
            suffix="a_processors",
            title="Figure 4(a) [{platform}]: optimal processor count P* vs alpha",
            columns=("P_fo", "P_num"),
            notes=(_NOTE, "P* grows as alpha decreases; finite even at alpha=0"),
        ),
        PanelSpec(
            suffix="b_period",
            title="Figure 4(b) [{platform}]: optimal period T* vs alpha",
            columns=("T_fo", "T_num"),
            notes=(_NOTE, "T* shrinks with alpha except scenario 1 (P-independent)"),
        ),
        PanelSpec(
            suffix="c_overhead",
            title="Figure 4(c) [{platform}]: simulated overhead vs alpha",
            columns=("H_sim_fo", "H_sim_num"),
            notes=(_NOTE, "overhead approaches the alpha floor; sc5 wins at small alpha"),
        ),
    ),
)
