"""Shared infrastructure for the figure-regeneration experiments.

Every study — one :class:`~repro.experiments.spec.StudySpec` per
experiment module — runs through
:func:`repro.experiments.spec.run_study` into ``list[FigureResult]``; a
:class:`FigureResult` is a printed-series rendition of one (sub)figure
of the paper: one row per x-value, one column per plotted curve, plus
free-text notes carrying the quantitative shape checks (slope fits,
gap bounds) recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..io.csvout import write_csv
from ..io.tables import render_table
from ..sim.montecarlo import FAST, Fidelity
from ..sim.rng import DEFAULT_SEED

__all__ = ["FigureResult", "SimSettings"]


@dataclass(frozen=True)
class SimSettings:
    """Monte-Carlo switches shared by all experiments.

    ``simulate=False`` turns every simulated column into ``None`` so the
    analytic parts of a figure can be regenerated instantly.
    ``method`` selects the simulation backend (one of
    :data:`repro.sim.montecarlo.METHODS`); the default ``"auto"`` uses
    the aggregated vectorized backend for paper-fidelity budgets and
    the per-pattern batch sampler below the size threshold.
    """

    simulate: bool = True
    fidelity: Fidelity = FAST
    seed: int = DEFAULT_SEED
    method: str = "auto"

    def budget(self) -> tuple[int, int]:
        return self.fidelity.n_runs, self.fidelity.n_patterns


@dataclass(frozen=True)
class FigureResult:
    """One regenerated (sub)figure as a printable series table."""

    figure_id: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def table(self, floatfmt: str = "{:.6g}") -> str:
        """Aligned ASCII rendition (plus the notes underneath)."""
        text = render_table(self.columns, self.rows, title=self.title, floatfmt=floatfmt)
        if self.notes:
            text += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return text

    def to_csv(self, directory: str | Path) -> Path:
        """Write the series to ``<directory>/<figure_id>.csv``."""
        return write_csv(Path(directory) / f"{self.figure_id}.csv", self.columns, self.rows)

    def column(self, name: str) -> list[Any]:
        """Extract one column by header name."""
        try:
            i = self.columns.index(name)
        except ValueError as exc:
            raise KeyError(f"no column {name!r} in {self.figure_id}") from exc
        return [row[i] for row in self.rows]

    def column_array(self, name: str) -> np.ndarray:
        """Column as a float array with ``None`` mapped to NaN."""
        return np.array(
            [np.nan if v is None else float(v) for v in self.column(name)], dtype=float
        )
