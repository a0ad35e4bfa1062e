"""Exact expected execution time of a periodic checkpointing pattern.

This module implements **Proposition 1** of the paper, which is its core
analytical result: for a pattern ``PATTERN(T, P)`` (work ``T``, then
verification ``V_P``, then checkpoint ``C_P``) under fail-stop errors of
rate :math:`\\lambda^f_P` (striking anywhere except downtime) and silent
errors of rate :math:`\\lambda^s_P` (striking only computation),

.. math::

    E(T, P) = \\Big(\\frac{1}{\\lambda^f_P} + D\\Big)
        \\Big( e^{\\lambda^f_P C_P}\\,(1 - e^{\\lambda^s_P T})
            + e^{\\lambda^f_P R_P}\\,
              \\big(e^{\\lambda^f_P (C_P + T + V_P) + \\lambda^s_P T} - 1\\big)
        \\Big).

The proof decomposes :math:`E = E(T + V_P) + E(C_P)` with

.. math::

    E(R_P)     &= (1/\\lambda^f + D)(e^{\\lambda^f R} - 1), \\\\
    E(C_P)     &= (e^{\\lambda^f C} - 1)(1/\\lambda^f + D + E(R) + E(T+V)), \\\\
    E(T + V_P) &= e^{\\lambda^s T}(e^{\\lambda^f (T+V)} - 1)(1/\\lambda^f + D)
                  + (e^{\\lambda^f (T+V) + \\lambda^s T} - 1) E(R),

all of which are exposed here because the Monte-Carlo simulators validate
against them component by component.  (The published text of the paper
renders the :math:`E(T+V_P)` intermediate with a stray
:math:`e^{\\lambda^s(T+V)}(T+V)` term; re-deriving the recurrence — done in
``tests/test_pattern.py`` symbolically and numerically — confirms the two-term
form above, which is the one consistent with the final Eq. (2).)

Every function is vectorised: ``T`` and ``P`` may be scalars or numpy
arrays (broadcast together), which is how the figure sweeps evaluate
whole parameter grids in one call.  The fail-stop-free case
(:math:`\\lambda^f = 0`) is handled through its exact limit

.. math::

    E = C - R + e^{\\lambda^s T} (R + T + V),

avoiding the ``inf * 0`` indeterminacy of the general formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from .costs import CheckpointCost, ResilienceCosts, VerificationCost
from .errors import ErrorModel
from .speedup import AmdahlSpeedup, GustafsonSpeedup, PowerLawSpeedup, SpeedupModel

__all__ = [
    "expected_pattern_time",
    "expected_recovery_time",
    "expected_checkpoint_time",
    "expected_work_time",
    "expected_pattern_time_first_order",
    "pattern_overhead",
    "pattern_speedup",
    "PatternModel",
    "PreparedColumns",
    "stack_models",
]


def _validate_period(T) -> None:
    arr = np.asarray(T, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"pattern period T must be finite and >= 0, got {T!r}")


def _validate_overhead_period(T_arr: np.ndarray, T) -> None:
    # One pass for both failure classes: NaN fails both comparisons.
    if T_arr.size and not (T_arr.min() > 0.0 and T_arr.max() < np.inf):
        raise InvalidParameterError(f"overhead needs a finite T > 0, got {T!r}")


def _rates_and_costs(T, P, errors: ErrorModel, costs: ResilienceCosts):
    """Broadcast-compatible platform rates and resilience costs; callers validate ``T``."""
    T = np.asarray(T, dtype=float) if (np.ndim(T) or np.ndim(P)) else float(T)
    lam_f = errors.fail_stop_rate(P)
    lam_s = errors.silent_rate(P)
    C = costs.checkpoint_cost(P)
    R = costs.recovery_cost(P)
    V = costs.verification_cost(P)
    return T, lam_f, lam_s, C, R, V, costs.downtime


def _scalarize(x, *inputs):
    """Collapse 0-d results back to Python floats when all inputs are scalars."""
    if all(np.ndim(i) == 0 for i in inputs):
        return float(x)
    return np.asarray(x)


def expected_recovery_time(P, errors: ErrorModel, costs: ResilienceCosts):
    """Expected time to complete one recovery, :math:`E(R_P)`.

    A recovery of cost ``R_P`` may itself be hit by fail-stop errors
    (each retry paying the time lost plus the downtime ``D``):

    .. math:: E(R_P) = (1/\\lambda^f_P + D)(e^{\\lambda^f_P R_P} - 1).
    """
    lam_f = errors.fail_stop_rate(P)
    R = costs.recovery_cost(P)
    D = costs.downtime
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        generic = (1.0 / np.asarray(lam_f, dtype=float) + D) * np.expm1(
            np.asarray(lam_f) * np.asarray(R)
        )
    result = np.where(np.asarray(lam_f) > 0.0, generic, np.asarray(R, dtype=float))
    return _scalarize(result, P, lam_f)


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


def expected_pattern_time(T, P, errors: ErrorModel, costs: ResilienceCosts):
    """Exact expected execution time of PATTERN(T, P) — Proposition 1, Eq. (2).

    Parameters
    ----------
    T:
        Pattern length (useful computation time per checkpoint), seconds.
        Scalar or array.
    P:
        Number of processors.  Scalar or array (broadcast with ``T``).
    errors:
        Platform error model (individual rate + fail-stop fraction).
    costs:
        Resilience costs :math:`C_P, R_P, V_P, D`.

    Returns
    -------
    float or ndarray
        :math:`E(T, P)` in seconds.

    Notes
    -----
    The implementation evaluates Eq. (2) in the ``expm1`` form

    .. math::

        E = (1/\\lambda^f + D)\\big(
              e^{\\lambda^f R}\\,\\mathrm{expm1}(\\lambda^f(C+T+V) + \\lambda^s T)
            - e^{\\lambda^f C}\\,\\mathrm{expm1}(\\lambda^s T)\\big)

    which keeps full precision for rates down to ``1e-300``.
    """
    _validate_period(T)
    return _pattern_time(T, P, errors, costs)


def _pattern_time(T, P, errors: ErrorModel, costs: ResilienceCosts):
    """:func:`expected_pattern_time` for a ``T`` the caller has validated."""
    T, lam_f, lam_s, C, R, V, D = _rates_and_costs(T, P, errors, costs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Cancellation-free factoring of Eq. (2):
        #   term = e^{lf R + ls T} expm1(lf (C+T+V))
        #        + e^{lf C} expm1(ls T) expm1(lf (R - C))
        # (algebraically identical; avoids subtracting two nearly equal
        # exponentials when lf is many orders below ls).
        term = np.exp(lam_f * R + lam_s * T) * np.expm1(lam_f * (C + T + V)) + np.exp(
            lam_f * C
        ) * np.expm1(lam_s * T) * np.expm1(lam_f * (R - C))
        generic = (1.0 / np.asarray(lam_f) + D) * term
        # Exact lambda_f -> 0 limit (silent errors only).
        silent_only = C - R + np.exp(lam_s * T) * (R + T + V)
    result = np.where(np.asarray(lam_f) > 0.0, generic, silent_only)
    # When the exponentials overflow, products involving inf can read as
    # NaN; the true expectation is beyond float range: report +inf.
    result = np.where(np.isnan(result), np.inf, result)
    return _scalarize(result, T, P)


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


def pattern_overhead(T, P, errors: ErrorModel, costs: ResilienceCosts, speedup: SpeedupModel):
    """Expected execution overhead :math:`H(T, P) = H(P) \\, E(T, P) / T`.

    This is the paper's optimisation objective: the expected time per
    unit of *sequential* work, whose error-free floor is ``H(P)``.
    Requires a finite ``T > 0``.
    """
    T_arr = np.asarray(T, dtype=float)
    _validate_overhead_period(T_arr, T)
    E = _pattern_time(T, P, errors, costs)
    result = np.asarray(speedup.overhead(P)) * np.asarray(E) / T_arr
    return _scalarize(result, T, P)


def pattern_speedup(T, P, errors: ErrorModel, costs: ResilienceCosts, speedup: SpeedupModel):
    """Expected speedup :math:`S(T, P) = T\\,S(P)/E(T, P) = 1/H(T, P)`."""
    return 1.0 / pattern_overhead(T, P, errors, costs, speedup)


#: The P-only column factors; each enters only ``+ - * /``.
_FACTORS = (
    "lam_f", "lam_s", "C", "R", "V", "floor",
    "lf_R", "exp_lf_C", "expm1_lf_RC", "scale", "C_minus_R",
)
#: The factors used only by the silent-only (lambda^f = 0) limit.
_SILENT_FACTORS = ("R", "C_minus_R")


class PreparedColumns:
    """:func:`pattern_overhead` on processor columns fixed for a whole solve.

    The period optimisers evaluate :math:`H(T, P)` on many ``T`` grids
    against one ``P`` row.  Everything that depends on ``P`` alone — the
    rates :math:`\\lambda^f, \\lambda^s`, the costs ``C, R, V, D``, the
    floor ``H(P)`` and the ``P``-only factors of the expm1 form of
    :func:`expected_pattern_time` — is computed here once; a
    :class:`ColumnWorkspace` evaluates only the ``T``-dependent
    remainder, in the same operation order.  Its output is therefore
    bit-identical to ``pattern_overhead(T, P, ...)`` once non-finite
    values of the latter are read as ``+inf``, which is how every
    optimiser consumes it.

    Build it with :meth:`PatternModel.prepare`.
    """

    __slots__ = _FACTORS + ("fail_stop",)

    def __init__(self, P, errors: ErrorModel, costs: ResilienceCosts, speedup: SpeedupModel):
        self.lam_f = lam_f = np.asarray(errors.fail_stop_rate(P), dtype=float)
        self.lam_s = np.asarray(errors.silent_rate(P), dtype=float)
        self.C = C = np.asarray(costs.checkpoint_cost(P), dtype=float)
        self.R = R = np.asarray(costs.recovery_cost(P), dtype=float)
        self.V = np.asarray(costs.verification_cost(P), dtype=float)
        self.floor = np.asarray(speedup.overhead(P))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.lf_R = lam_f * R
            self.exp_lf_C = np.exp(lam_f * C)
            self.expm1_lf_RC = np.expm1(lam_f * (R - C))
            self.scale = 1.0 / lam_f + costs.downtime
        self.C_minus_R = C - R
        # Mask of the lambda^f > 0 columns, or None when there is no
        # lambda^f = 0 column whose silent-only limit must be evaluated.
        fail_stop = lam_f > 0.0
        self.fail_stop = None if fail_stop.all() else fail_stop

    def take(self, index) -> "PreparedColumns":
        """The prepared columns at ``index`` (every field indexed alike)."""
        taken = object.__new__(type(self))
        for name in _FACTORS:
            setattr(taken, name, getattr(self, name)[index])
        fail_stop = None if self.fail_stop is None else self.fail_stop[index]
        taken.fail_stop = None if fail_stop is None or fail_stop.all() else fail_stop
        return taken

    def workspace(self, shape, buffers: list | None = None) -> "ColumnWorkspace":
        """A :class:`ColumnWorkspace` evaluating ``T`` arrays of ``shape``."""
        return ColumnWorkspace(self, shape, buffers)

    def overhead(self, T) -> np.ndarray:
        """:math:`H(T, P)` with every non-finite value read as ``+inf``.

        ``T`` broadcasts against the prepared columns (trailing axis).
        Raises :class:`~repro.exceptions.InvalidParameterError` unless
        every ``T`` is finite and ``> 0``.
        """
        T = np.asarray(T, dtype=float)
        _validate_overhead_period(T, T)
        ws = self.workspace(np.broadcast_shapes(T.shape, self.lam_f.shape))
        np.copyto(ws.T, T)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return ws.overhead()


class ColumnWorkspace:
    """Buffers that evaluate :class:`PreparedColumns` in place.

    A solve that evaluates many ``T`` arrays of one ``shape`` (the
    period zoom's ``(points, columns)`` rounds) writes each into ``T``
    and calls :meth:`overhead`, which fills ``H`` without allocating.
    The ``P``-only factors are broadcast to ``shape`` once, and only
    those that enter ``+ - * /``: these are correctly rounded whatever
    the operand layout, while the ``exp``/``expm1`` inputs stay
    contiguous ``shape`` arrays as in :func:`expected_pattern_time`, so
    numpy picks the same loops and every value is bit-identical.

    Every array is carved from ``buffers``, a list of flat float arrays
    that is refilled in place when it is too small: solves that pass the
    same list one after another allocate their memory once.
    """

    __slots__ = _FACTORS + ("T", "H", "_a", "_b", "_c", "_finite", "silent")

    def __init__(self, columns: PreparedColumns, shape, buffers: list | None = None):
        shape = tuple(shape)
        size = math.prod(shape)
        self.silent = None if columns.fail_stop is None else ~columns.fail_stop
        factors = [
            name for name in _FACTORS
            if self.silent is not None or name not in _SILENT_FACTORS
        ]
        carved = [name for name in factors if getattr(columns, name).shape != shape]
        carved += ["T", "H", "_a", "_b"] + (["_c"] if self.silent is not None else [])
        if buffers is None:
            buffers = []
        if buffers and buffers[0].size < size:
            buffers.clear()
        capacity = buffers[0].size if buffers else size
        buffers.extend(np.empty(capacity) for _ in range(len(carved) - len(buffers)))
        for name, buffer in zip(carved, buffers):
            setattr(self, name, buffer[:size].reshape(shape))
        for name in factors:
            if name in carved:
                np.copyto(getattr(self, name), getattr(columns, name))
            else:
                setattr(self, name, getattr(columns, name))
        self._finite = np.empty(shape, dtype=bool)

    def overhead(self) -> np.ndarray:
        """:math:`H` at the periods in ``T``, into ``H`` (returned).

        Non-finite values read as ``+inf``.  The caller validates ``T``
        and ignores floating-point warnings (``np.errstate``).
        """
        T, H, a, b = self.T, self.H, self._a, self._b
        np.multiply(self.lam_s, T, out=a)  # lambda^s T
        np.add(self.lf_R, a, out=b)
        np.exp(b, out=b)
        np.add(self.C, T, out=H)
        np.add(H, self.V, out=H)
        np.multiply(self.lam_f, H, out=H)
        np.expm1(H, out=H)
        np.multiply(b, H, out=b)  # e^{lf R + ls T} expm1(lf (C + T + V))
        if self.silent is not None:
            # Exact lambda_f -> 0 limit: C - R + e^{ls T} (R + T + V).
            c = self._c
            np.exp(a, out=c)
            np.add(self.R, T, out=H)
            np.add(H, self.V, out=H)
            np.multiply(c, H, out=c)
            np.add(self.C_minus_R, c, out=c)
        np.expm1(a, out=a)
        np.multiply(self.exp_lf_C, a, out=a)
        np.multiply(a, self.expm1_lf_RC, out=a)
        np.add(b, a, out=b)
        np.multiply(self.scale, b, out=b)  # E
        if self.silent is not None:
            np.copyto(b, c, where=self.silent)
        np.multiply(self.floor, b, out=H)
        np.divide(H, T, out=H)
        finite = np.isfinite(H, out=self._finite)
        if not finite.all():
            np.copyto(H, np.inf, where=np.logical_not(finite, out=finite))
        return H


@dataclass(frozen=True)
class PatternModel:
    """Bundle of error model, resilience costs and speedup profile.

    This is the main user-facing object: it fixes the *platform and
    application*, leaving the pattern parameters ``(T, P)`` free.  All
    evaluators are thin wrappers over the module-level functions, and
    the optimisers in :mod:`repro.optimize` and the closed forms in
    :mod:`repro.core.first_order` consume it directly.

    >>> from repro.core import ErrorModel, ResilienceCosts, AmdahlSpeedup
    >>> model = PatternModel(
    ...     errors=ErrorModel(lambda_ind=1e-8, fail_stop_fraction=0.25),
    ...     costs=ResilienceCosts.simple(checkpoint=300.0, verification=15.0),
    ...     speedup=AmdahlSpeedup(0.1),
    ... )
    >>> round(model.overhead(T=3600.0, P=1000), 4) > 0.1
    True
    """

    errors: ErrorModel
    costs: ResilienceCosts
    speedup: SpeedupModel

    # -- exact evaluators -------------------------------------------------

    def expected_time(self, T, P):
        """Exact :math:`E(T, P)` (Proposition 1)."""
        return expected_pattern_time(T, P, self.errors, self.costs)

    def expected_time_first_order(self, T, P):
        """Taylor-expanded :math:`E(T, P)` (Theorem 1 proof)."""
        return expected_pattern_time_first_order(T, P, self.errors, self.costs)

    def overhead(self, T, P):
        """Expected execution overhead :math:`H(T, P)`."""
        return pattern_overhead(T, P, self.errors, self.costs, self.speedup)

    def prepare(self, P) -> PreparedColumns:
        """:class:`PreparedColumns` evaluating :math:`H(T, P)` on fixed ``P``."""
        return PreparedColumns(P, self.errors, self.costs, self.speedup)

    def expected_speedup(self, T, P):
        """Expected speedup :math:`S(T, P)`."""
        return pattern_speedup(T, P, self.errors, self.costs, self.speedup)

    def error_free_overhead(self, P):
        """Failure-free floor :math:`H(P)`."""
        return self.speedup.overhead(P)

    def expected_recovery(self, P):
        """:math:`E(R_P)` (proof of Proposition 1)."""
        return expected_recovery_time(P, self.errors, self.costs)

    def expected_work(self, T, P):
        """:math:`E(T + V_P)` (proof of Proposition 1)."""
        return expected_work_time(T, P, self.errors, self.costs)

    def expected_checkpoint(self, T, P):
        """:math:`E(C_P)` (proof of Proposition 1)."""
        return expected_checkpoint_time(T, P, self.errors, self.costs)

    # -- makespan projection ----------------------------------------------

    def pattern_work(self, T, P):
        """Sequential-equivalent work :math:`T \\cdot S(P)` done per pattern."""
        return np.asarray(T, dtype=float) * np.asarray(self.speedup.speedup(P)) \
            if (np.ndim(T) or np.ndim(P)) else float(T) * float(self.speedup.speedup(P))

    def expected_makespan(self, total_work: float, T, P):
        """Expected application makespan for total sequential work ``W_total``.

        :math:`E(W_{final}) \\approx H(T, P) \\cdot W_{total}` — the
        long-job approximation of Section II (the application is an
        integral number of patterns).
        """
        if total_work <= 0.0:
            raise InvalidParameterError(f"total work must be positive, got {total_work!r}")
        return self.overhead(T, P) * total_work

    def pattern_count(self, total_work: float, T, P):
        """Approximate number of patterns :math:`W_{total}/(T\\,S(P))`."""
        if total_work <= 0.0:
            raise InvalidParameterError(f"total work must be positive, got {total_work!r}")
        return total_work / self.pattern_work(T, P)

    # -- convenience -------------------------------------------------------

    @property
    def alpha(self) -> float:
        """Sequential fraction when the profile is Amdahl; raises otherwise."""
        if not isinstance(self.speedup, AmdahlSpeedup):
            raise InvalidParameterError(
                "alpha is only defined for AmdahlSpeedup profiles; "
                f"got {type(self.speedup).__name__}"
            )
        return self.speedup.alpha

    def with_downtime(self, downtime: float) -> "PatternModel":
        """Copy with a different downtime (Figure 7)."""
        return PatternModel(self.errors, self.costs.with_downtime(downtime), self.speedup)

    def with_lambda(self, lambda_ind: float) -> "PatternModel":
        """Copy with a different individual error rate (Figures 5-6)."""
        return PatternModel(self.errors.with_lambda(lambda_ind), self.costs, self.speedup)

    def with_alpha(self, alpha: float) -> "PatternModel":
        """Copy with a different sequential fraction (Figure 4)."""
        return PatternModel(self.errors, self.costs, AmdahlSpeedup(alpha))


# -- model stacking (batch optimisers) ----------------------------------------
#
# The batch optimisers evaluate many models at once by fusing them into
# one :class:`PatternModel` whose leaf parameters are per-column numpy
# arrays.  Every evaluator above is elementwise over its inputs, so a
# stacked model's column ``i`` produces bit-identical values to
# ``models[i]`` evaluated alone (numpy's elementwise ufuncs are
# value-deterministic regardless of array length or element position).


def _stack_field(models, getter, repeat) -> np.ndarray:
    values = np.asarray([float(getter(m)) for m in models], dtype=float)
    return np.repeat(values, repeat)


def stack_models(models, repeat=1) -> PatternModel:
    """Fuse scalar-parameter models into one array-parameter model.

    ``repeat`` (an int, or one int per model) replicates every model's
    parameters that many times in a row, so the stacked model lines up
    with a column layout that gives each source model a contiguous
    block of columns (the batch allocation optimiser assigns each model
    a block of outer grid points).

    Raises
    ------
    InvalidParameterError
        When the models are structurally heterogeneous (different
        speedup profiles, or recovery overridden on some models only) —
        callers fall back to per-model evaluation there.
    """
    models = list(models)
    if not models:
        raise InvalidParameterError("stack_models needs at least one model")

    speedup_type = type(models[0].speedup)
    if any(type(m.speedup) is not speedup_type for m in models):
        raise InvalidParameterError(
            "cannot stack models with heterogeneous speedup profiles"
        )
    if speedup_type is AmdahlSpeedup:
        speedup = AmdahlSpeedup(_stack_field(models, lambda m: m.speedup.alpha, repeat))
    elif speedup_type is GustafsonSpeedup:
        speedup = GustafsonSpeedup(_stack_field(models, lambda m: m.speedup.alpha, repeat))
    elif speedup_type is PowerLawSpeedup:
        speedup = PowerLawSpeedup(_stack_field(models, lambda m: m.speedup.gamma, repeat))
    else:
        raise InvalidParameterError(
            f"cannot stack models with speedup profile {speedup_type.__name__}"
        )

    has_recovery = [m.costs.recovery is not None for m in models]
    if any(has_recovery) and not all(has_recovery):
        raise InvalidParameterError(
            "cannot stack models where only some override the recovery cost"
        )
    recovery = (
        CheckpointCost(
            a=_stack_field(models, lambda m: m.costs.recovery.a, repeat),
            b=_stack_field(models, lambda m: m.costs.recovery.b, repeat),
            c=_stack_field(models, lambda m: m.costs.recovery.c, repeat),
        )
        if all(has_recovery)
        else None
    )
    return PatternModel(
        errors=ErrorModel(
            lambda_ind=_stack_field(models, lambda m: m.errors.lambda_ind, repeat),
            fail_stop_fraction=_stack_field(
                models, lambda m: m.errors.fail_stop_fraction, repeat
            ),
        ),
        costs=ResilienceCosts(
            checkpoint=CheckpointCost(
                a=_stack_field(models, lambda m: m.costs.checkpoint.a, repeat),
                b=_stack_field(models, lambda m: m.costs.checkpoint.b, repeat),
                c=_stack_field(models, lambda m: m.costs.checkpoint.c, repeat),
            ),
            verification=VerificationCost(
                v=_stack_field(models, lambda m: m.costs.verification.v, repeat),
                u=_stack_field(models, lambda m: m.costs.verification.u, repeat),
            ),
            downtime=_stack_field(models, lambda m: m.costs.downtime, repeat),
            recovery=recovery,
        ),
        speedup=speedup,
    )
