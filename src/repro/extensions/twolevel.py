"""Segmented patterns: k verified segments per checkpoint.

The paper verifies once per checkpoint (the VC pattern).  Its reference
[2] (Benoit, Cavelan, Robert, Sun, IPDPS 2016) interleaves *several*
verifications per checkpoint: PATTERN(T, P, k) splits the work ``T``
into ``k`` segments of ``T/k``, each followed by a verification ``V``,
with a single checkpoint ``C`` at the end.  Intermediate verifications
catch silent errors earlier — on average ``(k+1)/(2k)`` of the pattern
is re-executed instead of the full pattern — at the price of ``k - 1``
extra verifications.  The paper's VC protocol is exactly ``k = 1``.

Exact expectation
-----------------
Failures restart the pattern from the last checkpoint (its beginning).
With ``s = T/k``, ``A = s + V``, segment survival
:math:`p = e^{-\\lambda^f A - \\lambda^s s}` and chain survival
:math:`p^k`, a renewal argument over i.i.d. chain rounds gives

.. math::

    E_{chain} = \\frac{1 - p^k}{p^k}\\,
        \\big( m_{p,k}\\,A + E_{seg}^{fail} + E^{post} \\big) + k A,

where :math:`m_{p,k} = E[J - 1 \\mid \\text{round fails at segment } J]`
is a truncated-geometric mean, :math:`E_{seg}^{fail}` mixes the
truncated-exponential fail-stop loss with the full ``A`` of a
silent-detected segment, and :math:`E^{post}` is the downtime (fail-stop
only) plus the expected recovery.  The checkpoint adds

.. math::

    E(C) = (e^{\\lambda^f C} - 1)\\,(1/\\lambda^f + D + E(R) + E_{chain}).

``k = 1`` reduces *exactly* to Proposition 1 — asserted to round-off in
the tests, along with Monte-Carlo validation of the general ``k``.

First-order optima
------------------
Expanding to first order (segment work loss :math:`T (k+1)/(2k)` for
silent errors, :math:`T/2` for fail-stop):

.. math::

    T^*_{P,k} = \\sqrt{\\frac{k V_P + C_P}
        {\\lambda^f_P/2 + \\lambda^s_P (k+1)/(2k)}},
    \\qquad
    k^* = \\sqrt{\\frac{C_P\\,\\lambda^s}{V_P(\\lambda^f + \\lambda^s)}},

the latter clamped to ``k >= 1``; verification-cheap, silent-heavy
platforms favour ``k > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import expected_time_lost
from ..core.pattern import PatternModel, expected_recovery_time
from ..exceptions import InvalidParameterError, ValidityError
from ..optimize.grid import refine_log_minimum_batch

__all__ = [
    "expected_segmented_time",
    "segmented_overhead",
    "segmented_period",
    "optimal_segment_count",
    "optimal_segmented_pattern",
    "optimize_segments",
    "SegmentedSolution",
]


def _validate_k(k) -> None:
    k_arr = np.asarray(k)
    if np.any(k_arr < 1) or not np.all(np.isfinite(np.asarray(k_arr, dtype=float))):
        raise InvalidParameterError(f"segment count k must be >= 1, got {k!r}")


def _truncated_geometric_mean(p, k):
    """E[J - 1] for J ~ Geometric(1-p) truncated to 1..k (failure position).

    :math:`\\sum_{j=1}^{k} (j-1) p^{j-1} (1-p) / (1 - p^k)`, evaluated in
    the cancellation-free form (with :math:`u = -\\ln p`)

    .. math:: m = \\frac{1}{e^{u} - 1} - \\frac{k}{e^{ku} - 1},

    with the Taylor series :math:`m = (k-1)/2 - (k^2-1)u/12 + O(u^3)`
    for tiny ``k u`` (the naive polynomial form loses all digits as
    ``p -> 1``, which hypothesis testing caught at platform-scale rates).
    Limits: 0 for p -> 0, (k-1)/2 (uniform failing position) for p -> 1.
    """
    p = np.asarray(p, dtype=float)
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = -np.log(np.where(p > 0.0, p, 1.0))  # placeholder for p <= 0
        generic = 1.0 / np.expm1(u) - k / np.expm1(k * u)
        series = (k - 1.0) / 2.0 - (k**2 - 1.0) * u / 12.0
    small = k * u < 1e-4
    value = np.where(small, series, generic)
    return np.where(p <= 0.0, 0.0, value)


def expected_segmented_time(T, P, k, errors, costs):
    """Exact expected time of PATTERN(T, P, k) (k verified segments).

    Parameters mirror :func:`repro.core.pattern.expected_pattern_time`
    plus the integer segment count ``k`` (``k = 1`` is the paper's VC
    pattern).  Vectorised over broadcastable ``T``/``P``/``k``.
    """
    _validate_k(k)
    T_arr = np.asarray(T, dtype=float)
    if np.any(T_arr <= 0.0):
        raise InvalidParameterError(f"segmented pattern needs T > 0, got {T!r}")
    k = np.asarray(k, dtype=float) if np.ndim(k) else float(k)

    lam_f = errors.fail_stop_rate(P)
    lam_s = errors.silent_rate(P)
    C = costs.checkpoint_cost(P)
    R = costs.recovery_cost(P)
    V = costs.verification_cost(P)
    D = costs.downtime

    s = T_arr / k  # work per segment
    A = s + V

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_fs_ok = np.exp(-lam_f * A)
        p_sil_ok = np.exp(-lam_s * s)
        p_seg = p_fs_ok * p_sil_ok
        q_seg = -np.expm1(-lam_f * A - lam_s * s)  # 1 - p_seg, stably

        # Segment-failure mixture: fail-stop (truncated-exp loss + D)
        # vs silent detected at the verification (full A, no D).
        q_fs = -np.expm1(-lam_f * A)
        w_fs = np.where(q_seg > 0.0, q_fs / q_seg, 0.0)
        w_sil = 1.0 - w_fs
        e_lost = expected_time_lost(lam_f, A)
        ER = expected_recovery_time(P, errors, costs)
        fail_seg_time = w_fs * e_lost + w_sil * A
        post_fail = w_fs * D + ER

        # Renewal over chain rounds: E[failed rounds] = 1/p_chain - 1
        # = expm1(k * segment_rate), exact even for tiny rates.
        rate_seg = lam_f * A + lam_s * s
        n_fails = np.expm1(k * rate_seg)
        prefix = _truncated_geometric_mean(p_seg, k) * A
        E_chain = n_fails * (prefix + fail_seg_time + post_fail) + k * A

        # Checkpoint with full-chain re-execution on failure.
        EC_generic = np.expm1(lam_f * C) * (1.0 / np.asarray(lam_f) + D + ER + E_chain)
    EC = np.where(np.asarray(lam_f) > 0.0, EC_generic, np.asarray(C, dtype=float))
    result = E_chain + EC
    result = np.where(np.isnan(result), np.inf, result)
    if all(np.ndim(x) == 0 for x in (T, P, k)):
        return float(result)
    return result


def segmented_overhead(T, P, k, model: PatternModel):
    """Expected execution overhead :math:`H(P)\\,E(T,P,k)/T`."""
    E = expected_segmented_time(T, P, k, model.errors, model.costs)
    result = np.asarray(model.speedup.overhead(P)) * np.asarray(E) / np.asarray(T, dtype=float)
    if all(np.ndim(x) == 0 for x in (T, P, k)):
        return float(result)
    return result


def segmented_period(P, k, errors, costs):
    """First-order optimal period for ``k`` segments.

    :math:`T^*_{P,k} = \\sqrt{(k V_P + C_P) /
    (\\lambda^f_P/2 + \\lambda^s_P (k+1)/(2k))}` — Theorem 1 at k = 1.
    """
    _validate_k(k)
    k = np.asarray(k, dtype=float) if np.ndim(k) else float(k)
    lam_f = errors.fail_stop_rate(P)
    lam_s = errors.silent_rate(P)
    lam_eff = lam_f / 2.0 + lam_s * (k + 1.0) / (2.0 * k)
    if np.any(np.asarray(lam_eff) <= 0.0):
        raise ValidityError("segmented period needs a positive error rate")
    cost = k * np.asarray(costs.verification_cost(P)) + np.asarray(costs.checkpoint_cost(P))
    result = np.sqrt(cost / lam_eff)
    if all(np.ndim(x) == 0 for x in (P, k)):
        return float(result)
    return result


def optimal_segment_count(P, errors, costs) -> float:
    """First-order optimal (continuous) segment count.

    :math:`k^* = \\sqrt{C_P \\lambda^s / (V_P(\\lambda^f + \\lambda^s))}`,
    clamped to 1.  Large checkpoints, cheap verifications and
    silent-dominated error mixes push ``k*`` up.
    """
    V = float(np.asarray(costs.verification_cost(P)))
    C = float(np.asarray(costs.checkpoint_cost(P)))
    lam_f = float(np.asarray(errors.fail_stop_rate(P)))
    lam_s = float(np.asarray(errors.silent_rate(P)))
    if V <= 0.0:
        raise ValidityError(
            "k* diverges for free verifications; choose k numerically "
            "(optimize_segments) with a cost floor"
        )
    if lam_f + lam_s <= 0.0:
        raise ValidityError("k* needs a positive error rate")
    k_star = np.sqrt(C * lam_s / (V * (lam_f + lam_s)))
    return max(1.0, float(k_star))


@dataclass(frozen=True)
class SegmentedSolution:
    """An optimised segmented pattern.

    ``segments`` is integer for numerical solutions and possibly
    fractional for the first-order one (round for deployment).
    """

    period: float
    segments: float
    overhead: float
    expected_time: float

    @property
    def segment_length(self) -> float:
        return self.period / self.segments


def optimal_segmented_pattern(model: PatternModel, P: float) -> SegmentedSolution:
    """First-order optimal ``(T*, k*)`` for fixed ``P``.

    Continuous ``k*`` from the closed form, then the matching period;
    overhead and expected time are evaluated on the *exact* segmented
    model.
    """
    k_star = optimal_segment_count(P, model.errors, model.costs)
    T_star = float(segmented_period(P, k_star, model.errors, model.costs))
    return SegmentedSolution(
        period=T_star,
        segments=k_star,
        overhead=float(segmented_overhead(T_star, P, k_star, model)),
        expected_time=float(
            expected_segmented_time(T_star, P, k_star, model.errors, model.costs)
        ),
    )


def optimize_segments(
    model: PatternModel, P: float, k_max: int = 64
) -> SegmentedSolution:
    """Numerically optimal integer ``k`` (and its exact-optimal ``T``).

    One batched log-zoom (:func:`repro.optimize.grid.refine_log_minimum_batch`)
    searches ``T`` for every ``k = 1..k_max`` at once, one column per
    ``k`` bracketed by ``[T*_k 1e-3, T*_k 1e3]`` around the first-order
    period.  The column minima are then scanned in ``k`` order: the
    first strict minimum is kept and the scan stops after three
    consecutive rises, the rule of the historical per-k Brent scan.  A
    column whose overhead overflows everywhere reports ``inf`` at its
    lower bound and never wins.
    """
    integral = isinstance(k_max, (int, np.integer)) and not isinstance(k_max, bool)
    if not integral or k_max < 1:
        raise InvalidParameterError(f"k_max must be an integer >= 1, got {k_max!r}")
    ks = np.arange(1, int(k_max) + 1, dtype=float)
    seeds = segmented_period(P, ks, model.errors, model.costs)
    result = refine_log_minimum_batch(
        lambda Ts, idx: segmented_overhead(Ts, P, ks[idx], model),
        seeds * 1e-3,
        seeds * 1e3,
    )
    best = 0
    rising = 0
    for j in range(1, ks.size):
        if result.fun[j] < result.fun[best]:
            best = j
            rising = 0
        else:
            rising += 1
            # Every column is already solved; the early stop only picks
            # which one is reported, matching the historical per-k scan
            # even where the overhead in k is not unimodal.
            if rising >= 3:
                break
    period = float(result.x[best])
    return SegmentedSolution(
        period=period,
        segments=float(ks[best]),
        overhead=float(result.fun[best]),
        expected_time=float(
            expected_segmented_time(period, P, ks[best], model.errors, model.costs)
        ),
    )
