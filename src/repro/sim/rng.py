"""Reproducible random-number streams for the simulators.

Monte-Carlo experiments need (1) run-to-run reproducibility for tests
and figure regeneration and (2) *independent* streams per simulated run
so results do not correlate across the 500-run averages of Section IV.
Both come from numpy's ``SeedSequence`` spawning: one master seed fans
out into any number of statistically independent child generators.
"""

from __future__ import annotations

import numpy as np

from ..constants import DEFAULT_SEED
from ..exceptions import SimulationError

__all__ = ["make_rng", "spawn_rngs", "spawn_seed_sequences"]


def make_rng(seed: int | np.random.SeedSequence | None = None) -> np.random.Generator:
    """Create a single PCG64 generator from a seed (or fresh entropy)."""
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn_seed_sequences(
    n: int, seed: int | np.random.SeedSequence | None = None
) -> list[np.random.SeedSequence]:
    """Spawn ``n`` independent child seed sequences from a master seed."""
    if n <= 0:
        raise SimulationError(f"need a positive stream count, got {n!r}")
    if isinstance(seed, np.random.SeedSequence):
        master = seed
    else:
        master = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    return master.spawn(n)


def spawn_rngs(n: int, seed: int | np.random.SeedSequence | None = None) -> list[np.random.Generator]:
    """``n`` independent generators suitable for per-run Monte-Carlo streams.

    >>> a, b = spawn_rngs(2, seed=1)
    >>> a.random() != b.random()
    True
    """
    return [np.random.default_rng(ss) for ss in spawn_seed_sequences(n, seed)]
