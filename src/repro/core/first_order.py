"""First-order optimal pattern parameters (Theorems 1-3 of the paper).

Section III of the paper derives closed-form approximations for the
optimal checkpointing period :math:`T^*` and processor allocation
:math:`P^*` by Taylor-expanding the exact expectation of Proposition 1.
Writing :math:`L = (f/2 + s)\\,\\lambda_{ind}` (the *effective* rate — a
fail-stop error loses half a period on average, a silent error a full
period):

**Theorem 1** (optimal period for fixed ``P``):

.. math::

    T^*_P = \\sqrt{\\frac{V_P + C_P}{\\lambda^f_P/2 + \\lambda^s_P}},
    \\qquad
    H(T^*_P, P) = H(P)\\Big(1 + 2\\sqrt{(\\lambda^f_P/2 + \\lambda^s_P)(V_P + C_P)}\\Big).

**Theorem 2** (``alpha > 0``, checkpoint cost ``C_P = cP + o(P)``):

.. math::

    P^* = \\Big(\\frac{1}{cL}\\Big)^{1/4}\\Big(\\frac{1-\\alpha}{2\\alpha}\\Big)^{1/2},
    \\quad T^* = \\Big(\\frac{c}{L}\\Big)^{1/2},
    \\quad H^* = \\alpha + 2\\big(4\\alpha^2(1-\\alpha)^2 c L\\big)^{1/4}.

**Theorem 3** (``alpha > 0``, combined cost ``C_P + V_P = d + o(1)``):

.. math::

    P^* = \\Big(\\frac{1}{dL}\\Big)^{1/3}\\Big(\\frac{1-\\alpha}{\\alpha}\\Big)^{2/3},
    \\quad T^* = \\Big(\\frac{d^2}{L}\\Big)^{1/3}\\Big(\\frac{\\alpha}{1-\\alpha}\\Big)^{1/3},
    \\quad H^* = \\alpha + 3\\big(\\alpha^2(1-\\alpha) d L\\big)^{1/3}.

**Case 3** (``C_P + V_P = h/P``): the first-order overhead
:math:`H(P)(1 + 2\\sqrt{hL})` decreases monotonically with ``P`` — no
finite first-order optimum exists; callers must use the numerical
optimiser (:mod:`repro.optimize.allocation`).

**Case 4** (``alpha = 0``): same situation — the overhead decreases
monotonically in every cost regime; :func:`case4_overhead` gives the
first-order overhead curves listed in Section III-D.4.

The striking asymptotic orders are: :math:`P^* = \\Theta(\\lambda^{-1/4})`
with :math:`T^* = \\Theta(\\lambda^{-1/2})` for linear checkpoint cost,
versus :math:`P^* = T^* = \\Theta(\\lambda^{-1/3})` for bounded cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidityError
from .costs import CostRegime, ResilienceCosts
from .errors import ErrorModel
from .pattern import PatternModel
from .speedup import AmdahlSpeedup

__all__ = [
    "FirstOrderSolution",
    "optimal_period",
    "overhead_at_optimal_period",
    "theorem2_solution",
    "theorem3_solution",
    "optimal_pattern",
    "optimal_pattern_batch",
    "case3_overhead",
    "case4_overhead",
    "asymptotic_orders",
]


@dataclass(frozen=True)
class FirstOrderSolution:
    """Closed-form optimal pattern ``(P*, T*)`` and its predicted overhead.

    Attributes
    ----------
    processors:
        First-order optimal processor count :math:`P^*` (continuous —
        round as needed for deployment).
    period:
        First-order optimal pattern length :math:`T^*` in seconds.
    overhead:
        Predicted expected execution overhead :math:`H(T^*, P^*)`
        (sequential-work normalised; its floor is ``alpha``).
    theorem:
        Which result produced the numbers: ``"theorem-2"`` (linear
        checkpoint cost) or ``"theorem-3"`` (bounded combined cost).
    regime:
        The cost regime of the model.
    """

    processors: float
    period: float
    overhead: float
    theorem: str
    regime: CostRegime

    @property
    def speedup(self) -> float:
        """Predicted expected speedup :math:`1/H^*`."""
        return 1.0 / self.overhead


def optimal_period(P, errors: ErrorModel, costs: ResilienceCosts):
    """Theorem 1, Eq. (7): first-order optimal period for fixed ``P``.

    Vectorised over ``P``.  This is the Young/Daly formula generalised to
    two error sources and a verified checkpoint: the "cost" is
    :math:`V_P + C_P` and the "rate" is :math:`\\lambda^f_P/2 + \\lambda^s_P`.
    """
    lam = errors.fail_stop_rate(P) / 2.0 + errors.silent_rate(P)
    combined = costs.combined_cost(P)
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr <= 0.0):
        raise ValidityError(
            "Theorem 1 needs a positive error rate; with lambda = 0 the optimal "
            "period is unbounded (never checkpoint)."
        )
    result = np.sqrt(np.asarray(combined) / lam_arr)
    return float(result) if np.ndim(P) == 0 else result


def overhead_at_optimal_period(P, model: PatternModel):
    """Theorem 1, Eq. (8): first-order overhead :math:`H(T^*_P, P)`.

    Vectorised over ``P``; this is the curve swept in Figure 3.
    """
    errors, costs = model.errors, model.costs
    lam = errors.fail_stop_rate(P) / 2.0 + errors.silent_rate(P)
    combined = costs.combined_cost(P)
    H = model.speedup.overhead(P)
    result = np.asarray(H) * (1.0 + 2.0 * np.sqrt(np.asarray(lam) * np.asarray(combined)))
    return float(result) if np.ndim(P) == 0 else result


def _require_amdahl_interior(model: PatternModel, theorem: str) -> float:
    if not isinstance(model.speedup, AmdahlSpeedup):
        raise ValidityError(
            f"{theorem} is derived for Amdahl's law; got "
            f"{type(model.speedup).__name__}. Use repro.optimize.allocation instead."
        )
    alpha = model.speedup.alpha
    if alpha == 0.0:
        raise ValidityError(
            f"{theorem} requires a positive sequential fraction; with alpha = 0 the "
            "first-order overhead decreases monotonically in P (Section III-D.4). "
            "Use repro.optimize.allocation for the numerical optimum."
        )
    if alpha == 1.0:
        raise ValidityError(
            f"{theorem} requires alpha < 1; a fully sequential job gains nothing "
            "from parallelism (use P = 1)."
        )
    return alpha


def theorem2_solution(model: PatternModel) -> FirstOrderSolution:
    """Theorem 2: optimal pattern for ``C_P = cP + o(P)`` and ``alpha > 0``.

    Raises
    ------
    ValidityError
        If the cost regime is not LINEAR, or alpha is 0 or 1, or the
        speedup profile is not Amdahl.
    """
    alpha = _require_amdahl_interior(model, "Theorem 2")
    costs = model.costs
    if costs.regime is not CostRegime.LINEAR:
        raise ValidityError(
            f"Theorem 2 needs a linearly growing checkpoint cost (c != 0); "
            f"this model is in the {costs.regime.value!r} regime."
        )
    c = costs.c
    L = model.errors.effective_lambda
    if L <= 0.0:
        raise ValidityError("Theorem 2 needs a positive error rate.")
    P_star = (1.0 / (c * L)) ** 0.25 * ((1.0 - alpha) / (2.0 * alpha)) ** 0.5
    T_star = (c / L) ** 0.5
    H_star = alpha + 2.0 * (4.0 * alpha**2 * (1.0 - alpha) ** 2 * c * L) ** 0.25
    return FirstOrderSolution(
        processors=P_star,
        period=T_star,
        overhead=H_star,
        theorem="theorem-2",
        regime=CostRegime.LINEAR,
    )


def theorem3_solution(model: PatternModel) -> FirstOrderSolution:
    """Theorem 3: optimal pattern for ``C_P + V_P = d + o(1)`` and ``alpha > 0``.

    Raises
    ------
    ValidityError
        If the cost regime is not CONSTANT, or alpha is 0 or 1, or the
        speedup profile is not Amdahl.
    """
    alpha = _require_amdahl_interior(model, "Theorem 3")
    costs = model.costs
    if costs.regime is not CostRegime.CONSTANT:
        raise ValidityError(
            f"Theorem 3 needs a bounded, non-vanishing combined cost (c = 0, d != 0); "
            f"this model is in the {costs.regime.value!r} regime."
        )
    d = costs.d
    L = model.errors.effective_lambda
    if L <= 0.0:
        raise ValidityError("Theorem 3 needs a positive error rate.")
    P_star = (1.0 / (d * L)) ** (1.0 / 3.0) * ((1.0 - alpha) / alpha) ** (2.0 / 3.0)
    T_star = (d**2 / L) ** (1.0 / 3.0) * (alpha / (1.0 - alpha)) ** (1.0 / 3.0)
    H_star = alpha + 3.0 * (alpha**2 * (1.0 - alpha) * d * L) ** (1.0 / 3.0)
    return FirstOrderSolution(
        processors=P_star,
        period=T_star,
        overhead=H_star,
        theorem="theorem-3",
        regime=CostRegime.CONSTANT,
    )


def optimal_pattern(model: PatternModel) -> FirstOrderSolution:
    """Dispatch to Theorem 2 or 3 based on the model's cost regime.

    Raises
    ------
    ValidityError
        In the DECAYING regime (case 3) or for ``alpha`` in ``{0, 1}``,
        where no finite first-order optimum exists — use
        :func:`repro.optimize.allocation.optimize_allocation` there.
    """
    regime = model.costs.regime
    if regime is CostRegime.LINEAR:
        return theorem2_solution(model)
    if regime is CostRegime.CONSTANT:
        return theorem3_solution(model)
    raise ValidityError(
        f"No first-order optimal processor count exists in the {regime.value!r} "
        "regime: the first-order overhead decreases monotonically with P "
        "(Section III-D case 3). Use the numerical optimiser."
    )


def optimal_pattern_batch(models) -> list["FirstOrderSolution | None"]:
    """:func:`optimal_pattern` for a column of models, ``None`` where it raises.

    The sweep engine's closed-form column: models with no finite
    first-order optimum (the :class:`~repro.exceptions.ValidityError`
    cases) map to ``None``.
    """
    out: list[FirstOrderSolution | None] = []
    for model in models:
        try:
            out.append(optimal_pattern(model))
        except ValidityError:
            out.append(None)
    return out


def case3_overhead(P, model: PatternModel):
    """Case 3 first-order overhead: ``C_P + V_P = h/P``.

    :math:`H(T^*_P, P) = H(P)\\,(1 + 2\\sqrt{hL})` — monotonically
    decreasing in ``P``; valid only while ``P`` stays within
    :math:`O(\\lambda^{-1/2})` (Section III-B).  Vectorised over ``P``.
    """
    costs = model.costs
    if costs.regime is not CostRegime.DECAYING:
        raise ValidityError(
            f"case3_overhead applies to the decaying regime; model is {costs.regime.value!r}."
        )
    h = costs.h
    L = model.errors.effective_lambda
    H = model.speedup.overhead(P)
    result = np.asarray(H) * (1.0 + 2.0 * np.sqrt(h * L))
    return float(result) if np.ndim(P) == 0 else result


def case4_overhead(P, model: PatternModel):
    """Case 4 (``alpha = 0``): first-order overhead of a perfectly parallel job.

    Section III-D.4 gives, with :math:`L = (f/2+s)\\lambda_{ind}`:

    * ``c != 0``            : :math:`1/P + 2\\sqrt{cL}`
    * ``c = 0, d != 0``     : :math:`1/P + 2\\sqrt{dL/P}`
    * ``c = 0, d = 0``      : :math:`(1/P)(1 + 2\\sqrt{hL})`

    All decrease monotonically in ``P``; vectorised over ``P``.
    """
    if not (isinstance(model.speedup, AmdahlSpeedup) and model.speedup.alpha == 0.0):
        raise ValidityError("case4_overhead requires a perfectly parallel job (alpha = 0).")
    costs = model.costs
    L = model.errors.effective_lambda
    P_arr = np.asarray(P, dtype=float)
    if costs.c != 0.0:
        result = 1.0 / P_arr + 2.0 * np.sqrt(costs.c * L)
    elif costs.d != 0.0:
        result = 1.0 / P_arr + 2.0 * np.sqrt(costs.d * L / P_arr)
    else:
        result = (1.0 + 2.0 * np.sqrt(costs.h * L)) / P_arr
    return float(result) if np.ndim(P) == 0 else result


def asymptotic_orders(regime: CostRegime, alpha: float) -> dict[str, float | None]:
    """Asymptotic orders ``P* = Θ(λ^-x)``, ``T* = Θ(λ^-y)``, ``H*-α = Θ(λ^z)``.

    Returns a dict with keys ``"x"``, ``"y"``, ``"z"`` (``None`` where the
    quantity is unbounded / not a power law).  These are the slopes the
    Figure 5/6 log-log fits validate:

    * LINEAR, alpha>0:   x=1/4, y=1/2, z=1/4   (Theorem 2)
    * CONSTANT, alpha>0: x=1/3, y=1/3, z=1/3   (Theorem 3)
    * LINEAR, alpha=0:   x≈1/2, y≈1/2, z≈1/2   (numerical, Fig. 6)
    * CONSTANT/DECAYING, alpha=0: x≈1, y≈0, z≈1 (numerical, Fig. 6)
    """
    if alpha > 0.0:
        if regime is CostRegime.LINEAR:
            return {"x": 0.25, "y": 0.5, "z": 0.25}
        if regime is CostRegime.CONSTANT:
            return {"x": 1.0 / 3.0, "y": 1.0 / 3.0, "z": 1.0 / 3.0}
        # Case 3: first-order P* unbounded (within validity x < 1/2).
        return {"x": None, "y": None, "z": None}
    if regime is CostRegime.LINEAR:
        return {"x": 0.5, "y": 0.5, "z": 0.5}
    if regime is CostRegime.CONSTANT:
        return {"x": 1.0, "y": 0.0, "z": 1.0}
    return {"x": 1.0, "y": 0.0, "z": 1.0}
