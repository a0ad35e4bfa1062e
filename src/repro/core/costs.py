"""Resilience cost models: checkpoint, recovery, verification, downtime.

The paper (Section II) adopts general scalable forms:

* checkpoint  :math:`C_P = a + b/P + cP`
* recovery    :math:`R_P = C_P` (same I/O volume; an independent recovery
  model is still supported for ablations)
* verification :math:`V_P = v + u/P`
* downtime    ``D`` — a constant, immune to errors.

Interpretation of the coefficients (Section II):

* ``a`` — start-up/latency term, or the I/O time :math:`\\beta + M/\\tau_{io}`
  when stable storage is the bottleneck;
* ``b/P`` — per-processor share :math:`M/(\\tau_{net} P)` of the memory
  footprint for in-memory checkpointing;
* ``cP`` — coordination/message-passing overhead growing with scale;
* ``v`` / ``u/P`` — same split for in-memory verification.

The first-order analysis of Section III-D distinguishes three *regimes*
based on the combined cost :math:`C_P + V_P = cP + d + h/P` with
``d = a + v`` and ``h = b + u``:

* :attr:`CostRegime.LINEAR`   (``c != 0``)          — Theorem 2;
* :attr:`CostRegime.CONSTANT` (``c == 0, d != 0``)  — Theorem 3;
* :attr:`CostRegime.DECAYING` (``c == d == 0``)     — case 3, numerical only.

All evaluators are vectorised over numpy arrays of ``P``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidParameterError
from .speedup import positive_processors

__all__ = [
    "CheckpointCost",
    "VerificationCost",
    "ResilienceCosts",
    "CostRegime",
]


class CostRegime(enum.Enum):
    """Scalability regime of the combined cost :math:`C_P + V_P`."""

    #: ``c != 0``: combined cost grows linearly with P (Theorem 2).
    LINEAR = "linear"
    #: ``c == 0`` and ``d = a + v != 0``: combined cost bounded (Theorem 3).
    CONSTANT = "constant"
    #: ``c == d == 0`` and ``h = b + u != 0``: cost decays as h/P (case 3).
    DECAYING = "decaying"
    #: All coefficients zero: free resilience (degenerate, testing only).
    FREE = "free"


@dataclass(frozen=True)
class CheckpointCost:
    """Checkpoint (and recovery) time model :math:`a + b/P + cP`."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self) -> None:
        # Array-tolerant: the batch optimisers stack models into one
        # whose coefficients are per-column arrays.
        for name in ("a", "b", "c"):
            value = np.asarray(getattr(self, name))
            if np.any(value < 0.0) or not np.all(np.isfinite(value)):
                raise InvalidParameterError(
                    f"checkpoint coefficient {name} must be finite and >= 0, "
                    f"got {getattr(self, name)!r}"
                )

    def __call__(self, P):
        """Evaluate :math:`C_P` for scalar or array ``P``."""
        return self._at(positive_processors(P))

    def _at(self, P):
        return self.a + self.b / P + self.c * P

    def derivative(self, P):
        """:math:`dC_P/dP = -b/P^2 + c`."""
        P = positive_processors(P)
        return -self.b / P**2 + self.c

    @property
    def is_zero(self) -> bool:
        return self.a == 0.0 and self.b == 0.0 and self.c == 0.0

    @classmethod
    def constant(cls, cost: float) -> "CheckpointCost":
        """A cost independent of P (scenario 3/4 form)."""
        return cls(a=cost)

    @classmethod
    def linear(cls, per_processor: float) -> "CheckpointCost":
        """A cost ``c * P`` (scenario 1/2 form)."""
        return cls(c=per_processor)

    @classmethod
    def scaling(cls, total: float) -> "CheckpointCost":
        """A cost ``b / P`` that shrinks with P (scenario 5/6 form)."""
        return cls(b=total)


@dataclass(frozen=True)
class VerificationCost:
    """Verification time model :math:`v + u/P`."""

    v: float = 0.0
    u: float = 0.0

    def __post_init__(self) -> None:
        for name in ("v", "u"):
            value = np.asarray(getattr(self, name))
            if np.any(value < 0.0) or not np.all(np.isfinite(value)):
                raise InvalidParameterError(
                    f"verification coefficient {name} must be finite and >= 0, "
                    f"got {getattr(self, name)!r}"
                )

    def __call__(self, P):
        """Evaluate :math:`V_P` for scalar or array ``P``."""
        return self._at(positive_processors(P))

    def _at(self, P):
        return self.v + self.u / P

    def derivative(self, P):
        """:math:`dV_P/dP = -u/P^2`."""
        P = positive_processors(P)
        return -self.u / P**2

    @property
    def is_zero(self) -> bool:
        return self.v == 0.0 and self.u == 0.0

    @classmethod
    def constant(cls, cost: float) -> "VerificationCost":
        return cls(v=cost)

    @classmethod
    def scaling(cls, total: float) -> "VerificationCost":
        return cls(u=total)


@dataclass(frozen=True)
class ResilienceCosts:
    """Bundle of all resilience-operation costs of the VC protocol.

    Parameters
    ----------
    checkpoint:
        The checkpoint time model :math:`C_P`.
    verification:
        The verification time model :math:`V_P`.
    downtime:
        Constant downtime ``D`` (seconds) after each fail-stop error.
    recovery:
        Recovery time model :math:`R_P`.  Defaults to the checkpoint
        model, as assumed throughout the paper (``R_P = C_P``).
    """

    checkpoint: CheckpointCost
    verification: VerificationCost = field(default_factory=VerificationCost)
    downtime: float = 0.0
    recovery: CheckpointCost | None = None

    def __post_init__(self) -> None:
        downtime = np.asarray(self.downtime)
        if np.any(downtime < 0.0) or not np.all(np.isfinite(downtime)):
            raise InvalidParameterError(
                f"downtime must be finite and >= 0, got {self.downtime!r}"
            )

    # -- evaluators -----------------------------------------------------

    def checkpoint_cost(self, P):
        """:math:`C_P`."""
        return self.checkpoint(P)

    def recovery_cost(self, P):
        """:math:`R_P` (defaults to :math:`C_P`)."""
        model = self.recovery if self.recovery is not None else self.checkpoint
        return model(P)

    def verification_cost(self, P):
        """:math:`V_P`."""
        return self.verification(P)

    def combined_cost(self, P):
        """:math:`C_P + V_P` — the quantity the optimal period depends on."""
        return self.checkpoint(P) + self.verification(P)

    # -- regime algebra (Section III-D) ---------------------------------

    @property
    def c(self) -> float:
        """Linear coefficient of :math:`C_P + V_P` (verification has none)."""
        return self.checkpoint.c

    @property
    def d(self) -> float:
        """Constant coefficient ``d = a + v`` of :math:`C_P + V_P`."""
        return self.checkpoint.a + self.verification.v

    @property
    def h(self) -> float:
        """Decaying coefficient ``h = b + u`` of :math:`C_P + V_P`."""
        return self.checkpoint.b + self.verification.u

    @property
    def regime(self) -> CostRegime:
        """Which case of Section III-D this cost bundle falls into."""
        if self.c != 0.0:
            return CostRegime.LINEAR
        if self.d != 0.0:
            return CostRegime.CONSTANT
        if self.h != 0.0:
            return CostRegime.DECAYING
        return CostRegime.FREE

    # -- convenience constructors ---------------------------------------

    @classmethod
    def simple(
        cls, checkpoint: float, verification: float = 0.0, downtime: float = 0.0
    ) -> "ResilienceCosts":
        """Constant (P-independent) costs — the textbook Young/Daly setting."""
        return cls(
            checkpoint=CheckpointCost.constant(checkpoint),
            verification=VerificationCost.constant(verification),
            downtime=downtime,
        )

    def with_downtime(self, downtime: float) -> "ResilienceCosts":
        """Copy of this bundle with a different downtime (Figure 7 sweeps)."""
        return ResilienceCosts(
            checkpoint=self.checkpoint,
            verification=self.verification,
            downtime=downtime,
            recovery=self.recovery,
        )
