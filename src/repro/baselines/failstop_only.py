"""Fail-stop-only baseline (Zheng et al., IEEE TC 2015 style).

The closest prior work the paper compares against is the
reliability-aware speedup model of Zheng, Yu and Lan [22]: periodic
checkpointing with *fail-stop* errors only — no silent errors and hence
no verification.  Two uses here:

1. **The model itself** — expected pattern time, overhead and optimal
   pattern when the platform genuinely has only fail-stop errors.  We
   get this for free by projecting our general model: set the silent
   fraction to zero while keeping the fail-stop rate, and drop the
   verification cost.  Every formula of Proposition 1 / Theorems 1-3
   specialises correctly (the tests assert e.g. Theorem 1 reduces to a
   Young-like :math:`\\sqrt{2 C_P/\\lambda^f_P}`).

2. **The "price of ignoring silent errors"** — a practitioner who sizes
   ``(T, P)`` from the fail-stop-only formulas but runs on a platform
   where a fraction ``s`` of errors are silent.  The benchmark harness
   quantifies the resulting overhead penalty against the paper's
   two-source optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.costs import ResilienceCosts, VerificationCost
from ..core.errors import ErrorModel
from ..core.first_order import FirstOrderSolution, optimal_pattern
from ..core.pattern import PatternModel

__all__ = [
    "failstop_projection",
    "naive_pattern",
    "price_of_ignoring_silent",
    "NaiveDeployment",
]


def failstop_projection(model: PatternModel, keep_verification: bool = False) -> PatternModel:
    """A copy of ``model`` with silent errors (and verification) removed.

    The fail-stop rate is preserved: the projected individual rate is
    ``f * lambda_ind`` with a fail-stop fraction of 1.  With
    ``keep_verification=False`` the verification cost is dropped too —
    a pure checkpoint/restart protocol, as in the fail-stop-only
    literature.
    """
    errors = ErrorModel(
        lambda_ind=model.errors.lambda_ind * model.errors.fail_stop_fraction,
        fail_stop_fraction=1.0,
    )
    costs = model.costs
    if not keep_verification:
        costs = ResilienceCosts(
            checkpoint=costs.checkpoint,
            verification=VerificationCost(),
            downtime=costs.downtime,
            recovery=costs.recovery,
        )
    return PatternModel(errors=errors, costs=costs, speedup=model.speedup)


@dataclass(frozen=True)
class NaiveDeployment:
    """A pattern sized while ignoring silent errors, evaluated truthfully.

    Attributes
    ----------
    naive_solution:
        The first-order pattern computed from fail-stop-only rates.
    true_overhead:
        Exact expected overhead of that pattern under the *full*
        two-source model (verification still performed, so silent
        errors are caught — just not accounted for when sizing).
    optimal_overhead:
        Exact overhead of the correctly sized two-source first-order
        pattern, for reference.
    """

    naive_solution: FirstOrderSolution
    true_overhead: float
    optimal_overhead: float

    @property
    def penalty(self) -> float:
        """Multiplicative overhead penalty for ignoring silent errors."""
        return self.true_overhead / self.optimal_overhead


def naive_pattern(model: PatternModel) -> FirstOrderSolution:
    """First-order pattern sized with silent errors ignored.

    Keeps the verification cost in the sizing (the protocol still runs
    it), but uses the fail-stop-only effective rate ``(f/2) lambda_ind``.
    """
    projected = failstop_projection(model, keep_verification=True)
    return optimal_pattern(projected)


def price_of_ignoring_silent(model: PatternModel) -> NaiveDeployment:
    """Quantify the overhead penalty of sizing ``(T, P)`` without SDC awareness."""
    naive = naive_pattern(model)
    informed = optimal_pattern(model)
    true_overhead = float(model.overhead(naive.period, naive.processors))
    optimal_overhead = float(model.overhead(informed.period, informed.processors))
    return NaiveDeployment(
        naive_solution=naive,
        true_overhead=true_overhead,
        optimal_overhead=optimal_overhead,
    )

