"""Replicate aggregation: variant clouds to per-point quantile bands.

A scenario family resolves into one table set per derived member —
the same panels, the same grid shape, different realizations.  This
module reduces that cloud along the member axis: every data cell of a
panel becomes a ``(median, p_lo, p_hi)`` band across the family, and
panels carrying optimum-pattern columns (``P_fo``/``P_num``/``T_fo``/
``T_num``) grow a per-row ``stable`` flag marking grid points where the
optimum *flips* (relative spread across variants beyond the tolerance,
or first-order validity appearing/disappearing).  The output is plain
:class:`~repro.experiments.common.FigureResult` tables, so banded
output rides the existing table/CSV/streaming machinery.

Determinism: member order is derive order, quantiles are
``numpy.quantile`` over that fixed ordering, and every input value is
bit-identical across executors — so the band tables are byte-identical
whatever pool width, in-flight window or cache state produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...exceptions import InvalidParameterError
from ..common import FigureResult

__all__ = [
    "BandSpec",
    "OPTIMUM_COLUMNS",
    "FamilyAccumulator",
    "band_tables",
    "relative_width",
]

#: Sweep columns whose cross-variant movement constitutes an
#: optimum-pattern flip (the location of the optimum, not its value).
OPTIMUM_COLUMNS = frozenset({"P_fo", "P_num", "T_fo", "T_num"})


@dataclass(frozen=True)
class BandSpec:
    """How a family reduces: quantile pair + flip tolerance."""

    q_lo: float = 0.05
    q_hi: float = 0.95
    flip_tolerance: float = 0.05
    #: Emit the CARVE-style per-row consistency score (fraction of
    #: family members whose optimum pattern agrees with the base
    #: member) next to the boolean ``stable`` flag.  Off by default so
    #: fixed-replicate band tables stay byte-identical to the PR 5
    #: goldens; the adaptive engine forces it on.
    consistency: bool = False

    def __post_init__(self):
        if not 0.0 <= self.q_lo < self.q_hi <= 1.0:
            raise InvalidParameterError(
                f"band quantiles must satisfy 0 <= lo < hi <= 1, "
                f"got ({self.q_lo!r}, {self.q_hi!r})"
            )
        if not self.flip_tolerance >= 0:
            raise InvalidParameterError(
                f"flip tolerance must be >= 0, got {self.flip_tolerance!r}"
            )

    @property
    def lo_name(self) -> str:
        return f"p{self.q_lo * 100:g}"

    @property
    def hi_name(self) -> str:
        return f"p{self.q_hi * 100:g}"


def _band_cells(values: list, band: BandSpec) -> tuple:
    present = [v for v in values if v is not None]
    if not present:
        return (None, None, None)
    q = np.quantile(np.asarray(present, dtype=float), [0.5, band.q_lo, band.q_hi])
    return (float(q[0]), float(q[1]), float(q[2]))


def _flips(values: list, band: BandSpec) -> bool:
    """Whether an optimum column moves across the family at one point."""
    present = [v for v in values if v is not None]
    if not present:
        return False
    if len(present) != len(values):
        return True  # first-order validity itself flips across variants
    spread = max(present) - min(present)
    reference = abs(float(np.median(present)))
    if reference == 0.0:
        return spread > 0.0
    return spread / reference > band.flip_tolerance


def relative_width(values: list, band: BandSpec) -> float:
    """Relative ``(p_hi - p_lo)`` band width of one cell's value cloud.

    This is the quantity the adaptive convergence test watches, so its
    edge cases are pinned down explicitly:

    * **no finite values** (every member ``None``/NaN) → ``0.0``, i.e.
      *trivially converged*: an undefined quantity can never tighten,
      so staging more replicates for it would burn work forever;
    * **zero median** → the *absolute* spread ``p_hi - p_lo`` is
      returned instead of dividing by zero.  A cloud hugging zero then
      converges exactly when its absolute spread stops moving, and a
      degenerate all-zero cloud reports ``0.0``.

    Non-finite members (NaN/inf) are dropped before the quantiles, so
    one diverged replicate cannot poison the width with NaN and pin the
    row unconverged forever.
    """
    present = [v for v in values if v is not None and np.isfinite(v)]
    if not present:
        return 0.0
    q = np.quantile(np.asarray(present, dtype=float), [band.q_lo, 0.5, band.q_hi])
    width = float(q[2]) - float(q[0])
    median = abs(float(q[1]))
    if median == 0.0:
        return width
    return width / median


def _agrees(value, base, tolerance: float) -> bool:
    """Whether one member's optimum cell matches the base member's."""
    if value is None and base is None:
        return True
    if value is None or base is None:
        return False
    if base == 0.0:
        return value == 0.0
    return abs(value - base) / abs(base) <= tolerance


def _consistency_score(
    col_values: Sequence[list], optimum_cols: Sequence[int], band: BandSpec
) -> float:
    """CARVE-style score: the fraction of members agreeing with base.

    A member agrees when *every* optimum-pattern cell of the row sits
    within ``flip_tolerance`` (relative) of the base member's cell and
    matches its first-order validity.  The base member always agrees
    with itself, so the score is at least ``1 / n_members``.
    """
    n_members = len(col_values[optimum_cols[0]])
    agreeing = 0
    for m in range(n_members):
        if all(
            _agrees(col_values[j][m], col_values[j][0], band.flip_tolerance)
            for j in optimum_cols
        ):
            agreeing += 1
    return agreeing / n_members


def band_tables(
    member_tables: Sequence[Sequence[FigureResult]],
    band: BandSpec = BandSpec(),
    panel_columns: Sequence[tuple[str, ...]] | None = None,
    provenance: tuple[str, ...] = (),
) -> list[FigureResult]:
    """A fixed family's banded tables: every member's panels, folded in order.

    ``member_tables[m][p]`` is member ``m``'s panel ``p`` (derive order);
    see :class:`FamilyAccumulator` for the other parameters.
    """
    accum = FamilyAccumulator(band, panel_columns, provenance, fixed=True)
    for tables in member_tables:
        accum.add_member(tables)
    return accum.finish()


def _member_cells(table: FigureResult, row: int) -> list:
    """One member row's data cells as floats/None (validated)."""
    out = []
    for col in range(1, len(table.columns)):
        value = table.rows[row][col]
        if value is None:
            out.append(None)
        elif isinstance(value, (bool, str)):
            raise InvalidParameterError(
                f"cannot band non-numeric cell {value!r} in "
                f"{table.figure_id} column {table.columns[col]!r}"
            )
        else:
            out.append(float(value))
    return out


class FamilyAccumulator:
    """Band aggregation of one family, one member at a time.

    Every data cell of a panel becomes a ``(median, p_lo, p_hi)`` band
    over the members folded in; ``panel_columns[p]`` names the sweep
    columns behind panel ``p``'s data columns (cycled across the
    per-scenario header layout), and panels containing
    :data:`OPTIMUM_COLUMNS` entries gain the per-row ``stable`` flag
    (plus the ``consistency`` score when the band asks for it).
    ``provenance`` lines are appended to every banded table's notes.

    The first member folded must cover the full grid: it defines the
    panel layout, the lead column and the consistency baseline.

    The constructor fixes the layout.  A ``fixed`` family (the
    :func:`band_tables` path) folds full-grid members only.  Otherwise
    the family is adaptive: members are folded in as their waves land,
    later ones possibly covering only a subset of grid rows (``rows``)
    once the early rows have converged; :meth:`row_width` answers the
    convergence question after every fold, and the tables gain a
    per-row ``n_members`` coverage column.

    Every reduction (quantiles, flip spread, consistency counts) is
    order-independent over the value multiset, so the emitted tables
    are byte-identical whatever wave interleaving produced the folds.
    """

    def __init__(
        self,
        band: BandSpec = BandSpec(),
        panel_columns: Sequence[tuple[str, ...]] | None = None,
        provenance: tuple[str, ...] = (),
        fixed: bool = False,
    ):
        self.band = band
        self.fixed = fixed
        self.panel_columns = (
            tuple(tuple(cols) for cols in panel_columns)
            if panel_columns is not None
            else None
        )
        self.provenance = tuple(provenance)
        self.members = 0
        self.n_rows = 0
        self._panels: list[FigureResult] | None = None
        #: ``_values[p][r][j]`` — the value cloud of panel ``p``, grid
        #: row ``r``, data column ``j`` (fold order).
        self._values: list[list[list[list]]] = []
        self._coverage: list[int] = []

    def add_member(
        self, tables: Sequence[FigureResult], rows: Sequence[int] | None = None
    ) -> None:
        """Fold one member's panel tables into the clouds.

        ``rows`` names the *global* grid rows the member covers (sorted
        indices into the base member's rows); ``None`` means the full
        grid.  Partial members carry the same panel/column layout with
        ``len(rows)`` table rows.
        """
        if rows is not None and self.fixed:
            raise InvalidParameterError(
                "a fixed family's members must cover the full grid"
            )
        if self._panels is None:
            if rows is not None:
                raise InvalidParameterError(
                    "the first family member must cover the full grid"
                )
            tables = list(tables)
            if not tables:
                raise InvalidParameterError("cannot band an empty family")
            self._panels = tables
            self.n_rows = len(tables[0].rows)
            for table in tables:
                if len(table.rows) != self.n_rows:
                    raise InvalidParameterError(
                        f"panel {table.figure_id} has {len(table.rows)} rows, "
                        f"expected {self.n_rows} (family panels must share "
                        "the sweep grid)"
                    )
            self._values = [
                [
                    [[] for _ in range(len(table.columns) - 1)]
                    for _ in range(self.n_rows)
                ]
                for table in tables
            ]
            self._coverage = [0] * self.n_rows
        if len(tables) != len(self._panels):
            raise InvalidParameterError(
                f"family member produced {len(tables)} panels, "
                f"expected {len(self._panels)}"
            )
        row_list = list(range(self.n_rows)) if rows is None else list(rows)
        if rows is not None and any(
            not 0 <= r < self.n_rows for r in row_list
        ):
            raise InvalidParameterError(
                f"member rows {row_list} outside the 0..{self.n_rows - 1} grid"
            )
        for p, table in enumerate(tables):
            base = self._panels[p]
            if len(table.columns) != len(base.columns) or len(table.rows) != len(
                row_list
            ):
                raise InvalidParameterError(
                    f"family member tables of {base.figure_id} disagree in shape"
                )
            for local, r in enumerate(row_list):
                for j, value in enumerate(_member_cells(table, local)):
                    self._values[p][r][j].append(value)
        for r in row_list:
            self._coverage[r] += 1
        self.members += 1

    def coverage(self, r: int) -> int:
        """How many members cover grid row ``r`` so far."""
        return self._coverage[r]

    def row_width(self, r: int) -> float:
        """Worst relative band width across every cell of row ``r``."""
        width = 0.0
        for panel_values in self._values:
            for cloud in panel_values[r]:
                width = max(width, relative_width(cloud, self.band))
        return width

    def finish(self, extra_notes: Sequence[str] = ()) -> list[FigureResult]:
        """The banded tables of everything folded so far."""
        if self._panels is None:
            raise InvalidParameterError("cannot band an empty family")
        band = self.band
        out = []
        for p, base in enumerate(self._panels):
            columns = (
                self.panel_columns[p] if self.panel_columns is not None else ()
            )
            n_data = len(base.columns) - 1

            def _source(j: int) -> str | None:
                return columns[j % len(columns)] if columns else None

            optimum_cols = [
                j for j in range(n_data) if _source(j) in OPTIMUM_COLUMNS
            ]
            headers: list[str] = [base.columns[0]]
            for j in range(n_data):
                name = base.columns[1 + j]
                headers.extend(
                    (
                        f"{name}_med",
                        f"{name}_{band.lo_name}",
                        f"{name}_{band.hi_name}",
                    )
                )
            if optimum_cols:
                headers.append("stable")
                if band.consistency:
                    headers.append("consistency")
            if not self.fixed:
                headers.append("n_members")
            rows = []
            n_stable = 0
            for r in range(self.n_rows):
                row: list = [base.rows[r][0]]
                flips = False
                col_values = self._values[p][r]
                for j in range(n_data):
                    row.extend(_band_cells(col_values[j], band))
                    if j in optimum_cols and _flips(col_values[j], band):
                        flips = True
                if optimum_cols:
                    row.append(not flips)
                    n_stable += 0 if flips else 1
                    if band.consistency:
                        row.append(
                            _consistency_score(col_values, optimum_cols, band)
                        )
                if not self.fixed:
                    row.append(self._coverage[r])
                rows.append(tuple(row))
            coverage = "" if self.fixed else "; per-row coverage in n_members"
            notes = [
                f"bands over {self.members} family members "
                f"(median, {band.lo_name}/{band.hi_name} quantiles{coverage})"
            ]
            if optimum_cols:
                notes.append(
                    f"optimum pattern stable at {n_stable}/{len(rows)} grid "
                    f"points (rel spread <= {band.flip_tolerance:g} across "
                    "members)"
                )
                if band.consistency:
                    notes.append(
                        "consistency: fraction of members whose optimum "
                        "pattern matches the base member (rel tol <= "
                        f"{band.flip_tolerance:g})"
                    )
            notes.extend(extra_notes)
            notes.extend(self.provenance)
            out.append(
                FigureResult(
                    figure_id=f"{base.figure_id}_bands",
                    title=f"{base.title} [bands x{self.members}]",
                    columns=tuple(headers),
                    rows=tuple(rows),
                    notes=tuple(notes),
                )
            )
        return out
