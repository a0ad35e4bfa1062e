"""Batched analytic-optimum evaluation with a cross-replicate memo.

The declare phase of every default-evaluator study spends nearly all of
its time on the *analytic* columns: a first-order closed form plus a
numerical ``(T, P)`` optimisation per grid cell, ~10 ms each when run
one cell at a time.  This module hands a whole study column to
:func:`repro.core.first_order.optimal_pattern_batch` for the closed
forms and to one :func:`repro.optimize.allocation.optimize_allocation_batch`
call for the numerical optima, so the column resolves per broadcast
round, bit-identical to solving each cell alone.

On top sits :class:`AnalyticMemo`: scenario families re-run the same
study with jittered *simulation* settings, so their analytic cells are
literally identical across family members.  The memo keys each model by
a hash of its result-relevant parameters (:func:`model_key`) and serves
repeats without recompute, within one run (always) and across runs
(persisted to ``analytic_memo.json`` inside the pipeline's cache
directory, so a run without ``--cache-dir`` persists nothing).

Solving one cell at a time remains the parity oracle: the test suite
checks every study's ``--no-sim`` tables against it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.costs import CheckpointCost, VerificationCost
from ..core.first_order import optimal_pattern_batch
from ..core.speedup import AmdahlSpeedup
from ..optimize.allocation import optimize_allocation_batch

__all__ = [
    "ANALYTIC_VERSION",
    "AnalyticPoint",
    "AnalyticMemo",
    "model_key",
    "evaluate_analytic",
]

#: Bump when the optimisers' numerics change: persisted memo entries
#: from another version are discarded wholesale on load.  Version 2:
#: optima no longer depend on the batch width, and a version-1 entry
#: solved in a wide batch may hold the width-dependent bits.
ANALYTIC_VERSION = 2


@dataclass(frozen=True)
class AnalyticPoint:
    """The six analytic columns of one sweep cell.

    ``*_fo`` entries are ``None`` where the first-order closed form has
    no finite optimum (exactly where :func:`optimal_pattern` raises);
    the numerical optimum always exists.
    """

    P_fo: float | None
    T_fo: float | None
    H_pred_fo: float | None
    P_num: float
    T_num: float
    H_pred_num: float

    def as_list(self) -> list:
        return [self.P_fo, self.T_fo, self.H_pred_fo,
                self.P_num, self.T_num, self.H_pred_num]


def model_key(model) -> str | None:
    """Content hash of every model parameter the analytic optimum reads.

    ``None`` marks a model the memo must not cache: a non-Amdahl (or
    subclassed) speedup profile, non-standard cost classes, or stacked
    array-valued parameters.  The optimisers depend on nothing else —
    the key doubles every parameter through ``struct`` so distinct bit
    patterns never collide.
    """
    speedup = model.speedup
    costs = model.costs
    checkpoint, verification, recovery = (
        costs.checkpoint, costs.verification, costs.recovery,
    )
    if (
        type(speedup) is not AmdahlSpeedup
        or type(checkpoint) is not CheckpointCost
        or type(verification) is not VerificationCost
        or (recovery is not None and type(recovery) is not CheckpointCost)
    ):
        return None
    fields = (
        model.errors.lambda_ind,
        model.errors.fail_stop_fraction,
        speedup.alpha,
        checkpoint.a,
        checkpoint.b,
        checkpoint.c,
        verification.v,
        verification.u,
        costs.downtime,
        1.0 if recovery is not None else 0.0,
        recovery.a if recovery is not None else 0.0,
        recovery.b if recovery is not None else 0.0,
        recovery.c if recovery is not None else 0.0,
    )
    if any(np.ndim(value) != 0 for value in fields):
        return None
    packed = struct.pack(f"<{len(fields)}d", *(float(v) for v in fields))
    return hashlib.sha1(packed).hexdigest()


class AnalyticMemo:
    """Keyed store of evaluated :class:`AnalyticPoint` values.

    Always deduplicates in memory within its lifetime; with a ``path``
    it also persists entries (plus cumulative served/evaluated
    counters) as JSON, guarded by :data:`ANALYTIC_VERSION`.  JSON float
    serialisation round-trips ``float64`` exactly, so values served
    from disk are bit-identical to freshly computed ones.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._table: dict[str, AnalyticPoint] = {}
        #: Cumulative points served without compute / computed.
        self.served = 0
        self.evaluated = 0
        self._dirty = False
        if self.path is not None and self.path.exists():
            try:
                payload = json.loads(self.path.read_text())
            except (OSError, ValueError):
                payload = None
            if isinstance(payload, dict) and payload.get("version") == ANALYTIC_VERSION:
                self.served = int(payload.get("served", 0))
                self.evaluated = int(payload.get("evaluated", 0))
                for key, values in payload.get("entries", {}).items():
                    self._table[key] = AnalyticPoint(
                        *(None if v is None else float(v) for v in values)
                    )

    def __len__(self) -> int:
        return len(self._table)

    @property
    def lookups(self) -> int:
        """Total points that went through the memo."""
        return self.served + self.evaluated

    @property
    def hit_rate(self) -> float:
        return self.served / self.lookups if self.lookups else 0.0

    def get(self, key: str) -> AnalyticPoint | None:
        return self._table.get(key)

    def put(self, key: str, point: AnalyticPoint) -> None:
        self._table[key] = point
        self._dirty = True

    def count(self, served: int, evaluated: int) -> None:
        """Record engine traffic (kept here so it persists across runs)."""
        self.served += served
        self.evaluated += evaluated
        if served or evaluated:
            self._dirty = True

    def flush(self) -> None:
        """Write the table to ``path`` (atomic rename); no-op when clean."""
        if self.path is None or not self._dirty:
            return
        payload = {
            "version": ANALYTIC_VERSION,
            "served": self.served,
            "evaluated": self.evaluated,
            "entries": {key: point.as_list() for key, point in self._table.items()},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(self.path)
        self._dirty = False


def _evaluate_models(models) -> list[AnalyticPoint]:
    fos = optimal_pattern_batch(models)
    nums = optimize_allocation_batch(models)
    return [
        AnalyticPoint(
            P_fo=fo.processors if fo is not None else None,
            T_fo=fo.period if fo is not None else None,
            H_pred_fo=fo.overhead if fo is not None else None,
            P_num=num.processors,
            T_num=num.period,
            H_pred_num=num.overhead,
        )
        for fo, num in zip(fos, nums)
    ]


def evaluate_analytic(
    models, memo: AnalyticMemo | None = None
) -> tuple[list[AnalyticPoint], int, int]:
    """Analytic columns for a column of models, memo-served where possible.

    Models are deduplicated by :func:`model_key` both against ``memo``
    and within the call, then the remaining unique models go through
    the batch engine in one sweep.

    Returns
    -------
    (points, evaluated, served):
        Points aligned with ``models``; how many were computed this
        call and how many came from the memo / intra-call dedup.
    """
    models = list(models)
    points: list[AnalyticPoint | None] = [None] * len(models)
    evaluated = 0
    served = 0
    todo: dict[object, list[int]] = {}
    for j, model in enumerate(models):
        key = model_key(model)
        if key is None:
            todo[("unkeyed", j)] = [j]
            continue
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                points[j] = hit
                served += 1
                continue
        todo.setdefault(key, []).append(j)
    groups = list(todo.items())
    fresh = _evaluate_models([models[idxs[0]] for _, idxs in groups])
    for (key, idxs), point in zip(groups, fresh):
        evaluated += 1
        served += len(idxs) - 1
        if memo is not None and isinstance(key, str):
            memo.put(key, point)
        for j in idxs:
            points[j] = point
    if memo is not None:
        memo.count(served, evaluated)
    return points, evaluated, served
