"""Oracles for Proposition 1's proof and Theorem 1's Taylor expansion.

The recurrences :math:`E(T + V_P)` and :math:`E(C_P)` of Proposition 1's
proof, and the second-order expansion of :math:`E(T, P)` that Theorem 1
minimises.  No command evaluates them; the tests check that the two
recurrences sum to Eq. (2) (``repro.core.pattern.expected_pattern_time``)
and that the expansion agrees with it where errors are rare.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import ResilienceCosts
from repro.core.errors import ErrorModel
from repro.core.pattern import (
    _rates_and_costs,
    _scalarize,
    _validate_period,
    expected_recovery_time,
)


def expected_work_time(T, P, errors: ErrorModel, costs: ResilienceCosts):
    """Expected time to complete the work + verification segment, E(T + V_P).

    Both error sources can force re-execution: fail-stop errors interrupt
    anywhere in ``T + V_P``; silent errors (struck during ``T`` only) are
    caught by the verification and trigger a recovery plus re-execution.
    """
    _validate_period(T)
    T, lam_f, lam_s, C, R, V, D = _rates_and_costs(T, P, errors, costs)
    A = T + V
    ER = expected_recovery_time(P, errors, costs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        generic = np.exp(lam_s * T) * np.expm1(lam_f * A) * (1.0 / np.asarray(lam_f) + D) + np.expm1(
            lam_f * A + lam_s * T
        ) * np.asarray(ER)
        # lambda_f == 0 limit: every attempt of A survives fail-stop errors;
        # silent errors force a geometric number of (A + R) re-executions.
        silent_only = np.exp(lam_s * T) * A + np.expm1(lam_s * T) * np.asarray(R)
    result = np.where(np.asarray(lam_f) > 0.0, generic, silent_only)
    result = np.where(np.isnan(result), np.inf, result)
    return _scalarize(result, T, P, lam_f)


def expected_checkpoint_time(T, P, errors: ErrorModel, costs: ResilienceCosts):
    """Expected time to store the checkpoint at the end of a pattern, E(C_P).

    A fail-stop error during checkpointing costs the lost time, the
    downtime, a recovery and a *full pattern re-execution* before the
    checkpoint can be retried — hence the dependence on ``T``.
    """
    _validate_period(T)
    T, lam_f, lam_s, C, R, V, D = _rates_and_costs(T, P, errors, costs)
    ER = expected_recovery_time(P, errors, costs)
    EA = expected_work_time(T, P, errors, costs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        generic = np.expm1(lam_f * C) * (
            1.0 / np.asarray(lam_f) + D + np.asarray(ER) + np.asarray(EA)
        )
    result = np.where(np.asarray(lam_f) > 0.0, generic, np.asarray(C, dtype=float))
    # 0 * inf (free checkpoint but overflowed work expectation) is 0: a
    # cost-free segment completes instantly regardless.
    zero_cost = np.asarray(C, dtype=float) == 0.0
    result = np.where(np.isnan(result) & zero_cost, 0.0, result)
    result = np.where(np.isnan(result), np.inf, result)
    return _scalarize(result, T, P, lam_f)


def expected_pattern_time_first_order(T, P, errors: ErrorModel, costs: ResilienceCosts):
    """Second-order Taylor expansion of E(T, P) used in the proof of Theorem 1.

    .. math::

        E \\approx T + V + C
            + (\\lambda^f/2 + \\lambda^s) T^2
            + \\lambda^f T (V + C + R + D)
            + \\lambda^s T (V + R)
            + \\lambda^f C (C/2 + R + V + D)
            + \\lambda^f V (V + R + D)

    Valid when all of :math:`\\lambda^f_P (T + V + C + R)` and
    :math:`\\lambda^s_P T` are :math:`\\ll 1` (Section III-B).
    """
    _validate_period(T)
    T, lam_f, lam_s, C, R, V, D = _rates_and_costs(T, P, errors, costs)
    result = (
        T
        + V
        + C
        + (lam_f / 2.0 + lam_s) * T**2
        + lam_f * T * (V + C + R + D)
        + lam_s * T * (V + R)
        + lam_f * C * (C / 2.0 + R + V + D)
        + lam_f * V * (V + R + D)
    )
    return _scalarize(result, T, P)
