"""Extension experiment: interleaved verifications (segment-count sweep).

Not a figure of the paper — an implemented piece of its future-work
direction (and of its reference [2]): for each platform under
scenario 3, sweep the number of verified segments per checkpoint ``k``
at the numerically optimal allocation and report the exact overhead,
the first-order ``k*``, the numerical best ``k``, and the improvement
over the paper's single-verification protocol.
"""

from __future__ import annotations

import numpy as np

from ..extensions.twolevel import (
    optimal_segment_count,
    optimize_segments,
    segmented_overhead,
    segmented_period,
)
from ..optimize.allocation import optimize_allocation_batch
from ..platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME, PLATFORM_NAMES
from ..platforms.scenarios import build_model
from .common import FigureResult
from .spec import StudyContext, StudySpec

__all__ = ["DEFAULT_SEGMENTS", "SPEC"]

DEFAULT_SEGMENTS: tuple[int, ...] = (1, 2, 4, 8, 16)


def _declare(ctx: StudyContext) -> list[FigureResult]:
    """Fully analytic: the declare phase already produces the tables."""
    segments = ctx.options.get("segments", DEFAULT_SEGMENTS)
    alpha = ctx.fixed["alpha"]
    downtime = ctx.fixed["downtime"]
    platforms = (
        PLATFORM_NAMES if ctx.options.get("all_platforms", True) else (ctx.platform,)
    )
    ks = np.asarray(segments, dtype=float)
    results: list[FigureResult] = []
    for scenario_id in ctx.scenarios:
        models = [
            build_model(name, scenario_id, alpha=alpha, downtime=downtime)
            for name in platforms
        ]
        rows = []
        notes = []
        for name, model, opt in zip(platforms, models, optimize_allocation_batch(models)):
            P = opt.processors
            T = segmented_period(P, ks, model.errors, model.costs)
            row: list = [name, round(P, 1)]
            row += [float(h) for h in segmented_overhead(T, P, ks, model)]
            k_star = optimal_segment_count(P, model.errors, model.costs)
            best = optimize_segments(model, P)
            h_k1 = row[2]  # k = 1 column
            gain = (h_k1 - best.overhead) / h_k1
            row += [round(k_star, 2), int(best.segments), f"{gain:.2%}"]
            rows.append(tuple(row))
            notes.append(
                f"{name}: first-order k* = {k_star:.2f}, numerical best k = "
                f"{best.segments:.0f}, overhead gain vs k=1: {gain:.2%}"
            )
        results.append(
            FigureResult(
                figure_id=f"ext_segments_sc{scenario_id}",
                title=(
                    f"Extension: overhead vs verified segments per checkpoint "
                    f"(scenario {scenario_id}, alpha={alpha:g}, at each "
                    "platform's optimal P)"
                ),
                columns=("platform", "P_opt")
                + tuple(f"H(k={k})" for k in segments)
                + ("k*_first_order", "k_best", "gain_vs_k1"),
                rows=tuple(rows),
                notes=tuple(notes),
            )
        )
    return results


SPEC = StudySpec(
    name="ext-segments",
    description="extension: interleaved verifications (segments per checkpoint)",
    scenarios=(3,),
    # One staged study: _declare iterates the platform grid itself
    # (rows per platform), so the spec must not also fan out.
    platforms=("Hera",),
    fixed={"alpha": DEFAULT_ALPHA, "downtime": DEFAULT_DOWNTIME},
    declare=_declare,
    assemble=lambda ctx, state: state,
)
