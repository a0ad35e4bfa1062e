"""Platform parameter catalog — Table II of the paper.

The paper evaluates on four real platforms whose failure and
checkpointing characteristics were measured for the Scalable
Checkpoint/Restart (SCR) library (Moody et al., SC'10 [16]):

========== ========== ======= ======= ===== ======= =======
Platform   lambda_ind f       s       P     C_P (s) V_P (s)
========== ========== ======= ======= ===== ======= =======
Hera       1.69e-8    0.2188  0.7812  512   300     15.4
Atlas      1.62e-8    0.0625  0.9375  1024  439     9.1
Coastal    2.34e-9    0.1667  0.8333  2048  1051    4.5
CoastalSSD 2.34e-9    0.1667  0.8333  2048  2500    180
========== ========== ======= ======= ===== ======= =======

``C_P``/``V_P`` are the measured checkpoint and verification times at
the listed *reference* processor count; :mod:`repro.platforms.scenarios`
projects them to other processor counts under the six resilience
scenarios of Table III.  Following the paper, each verification cost is
the cost of an in-memory checkpoint (the full memory footprint must be
inspected to detect silent errors), the default downtime is one hour
(repair-based restoration) and the default sequential fraction is 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import PLATFORM_NAMES
from ..core.errors import ErrorModel
from ..exceptions import UnknownPlatformError
from ..units import SECONDS_PER_HOUR

__all__ = [
    "Platform",
    "PLATFORMS",
    "PLATFORM_NAMES",
    "get_platform",
    "DEFAULT_DOWNTIME",
    "DEFAULT_ALPHA",
]

#: Default downtime D (repair-based restoration, Section IV-A).
DEFAULT_DOWNTIME: float = SECONDS_PER_HOUR
#: Default sequential fraction alpha (Section IV-A).
DEFAULT_ALPHA: float = 0.1


@dataclass(frozen=True)
class Platform:
    """One row of Table II.

    Attributes
    ----------
    name:
        Platform identifier.
    lambda_ind:
        Individual-processor error rate (both error types), 1/s.
    fail_stop_fraction:
        Fraction ``f`` of errors that are fail-stop.
    reference_processors:
        Processor count ``P`` at which the costs were measured (each
        processor is a dual quad-core node in the SCR study).
    checkpoint_cost:
        Measured checkpoint time ``C_P`` at the reference count, seconds.
    verification_cost:
        Measured verification time ``V_P`` at the reference count,
        seconds (set to an in-memory checkpoint cost, following [2]).
    """

    name: str
    lambda_ind: float
    fail_stop_fraction: float
    reference_processors: int
    checkpoint_cost: float
    verification_cost: float

    @property
    def silent_fraction(self) -> float:
        """Fraction ``s = 1 - f`` of silent errors."""
        return 1.0 - self.fail_stop_fraction

    def error_model(self, lambda_ind: float | None = None) -> ErrorModel:
        """The platform's :class:`~repro.core.errors.ErrorModel`.

        ``lambda_ind`` overrides the catalog rate (Figure 5/6 sweeps).
        """
        return ErrorModel(
            lambda_ind=self.lambda_ind if lambda_ind is None else lambda_ind,
            fail_stop_fraction=self.fail_stop_fraction,
        )


#: Table II, keyed by canonical name.
PLATFORMS: dict[str, Platform] = {
    "Hera": Platform(
        name="Hera",
        lambda_ind=1.69e-8,
        fail_stop_fraction=0.2188,
        reference_processors=512,
        checkpoint_cost=300.0,
        verification_cost=15.4,
    ),
    "Atlas": Platform(
        name="Atlas",
        lambda_ind=1.62e-8,
        fail_stop_fraction=0.0625,
        reference_processors=1024,
        checkpoint_cost=439.0,
        verification_cost=9.1,
    ),
    "Coastal": Platform(
        name="Coastal",
        lambda_ind=2.34e-9,
        fail_stop_fraction=0.1667,
        reference_processors=2048,
        checkpoint_cost=1051.0,
        verification_cost=4.5,
    ),
    "CoastalSSD": Platform(
        name="CoastalSSD",
        lambda_ind=2.34e-9,
        fail_stop_fraction=0.1667,
        reference_processors=2048,
        checkpoint_cost=2500.0,
        verification_cost=180.0,
    ),
}

#: Accepted aliases (case-insensitive lookup plus the paper's spelling).
_ALIASES: dict[str, str] = {
    "hera": "Hera",
    "atlas": "Atlas",
    "coastal": "Coastal",
    "coastalssd": "CoastalSSD",
    "coastal ssd": "CoastalSSD",
    "coastal-ssd": "CoastalSSD",
    "coastal_ssd": "CoastalSSD",
}


def get_platform(name: str) -> Platform:
    """Look up a platform by (case-insensitive) name.

    >>> get_platform("hera").reference_processors
    512
    """
    key = _ALIASES.get(name.strip().lower())
    if key is None:
        raise UnknownPlatformError(
            f"unknown platform {name!r}; available: {', '.join(PLATFORM_NAMES)}"
        )
    return PLATFORMS[key]
