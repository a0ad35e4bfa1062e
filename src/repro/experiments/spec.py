"""Declarative study specifications and the generic sweep engine.

The paper's evaluation is a *grid of studies*: Table-III scenarios x
Table-II platforms, swept along one axis per figure (error rate,
sequential fraction, processor count, downtime).  Instead of each
figure module hand-coding that grid, a figure is a :class:`StudySpec` —
data naming the platforms, scenario ids, sweep axis, evaluated columns
and output panels — executed by one generic engine:

* :func:`stage_study` runs the spec's *declare* phase: it walks the
  grid, evaluates the analytic columns, and declares every Monte-Carlo
  point on the shared :class:`~repro.experiments.pipeline.SimulationPipeline`
  (getting cheap deferred placeholders back);
* after the pipeline resolves, :meth:`StagedStudy.finish` runs the
  *assemble* phase: materialize the deferred values and render the
  panels as :class:`~repro.experiments.common.FigureResult` tables with
  their note/slope-fit hooks.

The split is what makes emission streamable (the runner finishes and
prints one study while later studies are still queued).  Studies
whose shape fits the declarative fields need no code at all —
:func:`load_toml_spec` builds a spec from a TOML file, so
``repro-experiments sweep --spec my_study.toml`` runs arbitrary new
scenario/platform/axis combinations without touching library code.
Bespoke studies (the extension experiments) plug in custom
``declare``/``assemble`` hooks and still ride the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..analysis.asymptotics import fit_loglog_slope
from ..exceptions import InvalidParameterError
from ..platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME, PLATFORM_NAMES
from ..platforms.scenarios import SCENARIO_IDS, build_model
from .analytic import evaluate_analytic
from .common import FigureResult, SimSettings
from .pipeline import Deferred, SimulationPipeline, materialize, private_pipeline

__all__ = [
    "AxisSpec",
    "PanelSpec",
    "StudySpec",
    "StudyContext",
    "StagedStudy",
    "stage_study",
    "run_study",
    "load_toml_spec",
    "slope_fit_notes",
    "SWEEP_COLUMNS",
]

#: Column vocabulary of the generic pattern-sweep evaluator.  ``*_fo``
#: columns are the first-order closed form (None where Theorem 1 has no
#: solution), ``*_num`` the numerical optimum of the exact model;
#: ``H_sim_*`` are Monte-Carlo validations (deferred onto the pipeline).
SWEEP_COLUMNS = (
    "P_fo",
    "P_num",
    "T_fo",
    "T_num",
    "H_pred_fo",
    "H_pred_num",
    "H_sim_fo",
    "H_sim_num",
)

_SIM_COLUMNS = ("H_sim_fo", "H_sim_num")

#: ``build_model`` keyword an axis may sweep (TOML studies); the
#: cost entries override the platform's measured reference costs.
AXIS_KWARGS = (
    "lambda_ind",
    "alpha",
    "downtime",
    "checkpoint_cost",
    "verification_cost",
)


@dataclass(frozen=True)
class AxisSpec:
    """The sweep axis of a study: one model parameter, one grid.

    ``display`` maps a grid value to the x-cell printed in every row
    (e.g. seconds -> hours for the downtime sweep); ``grid`` is the
    default-grid factory used when the caller does not pass one.
    """

    name: str
    header: str
    model_kwarg: str | None = None
    grid: Callable[[], Sequence[float]] | None = None
    display: Callable[[float], Any] = float

    def default_grid(self) -> Sequence[float]:
        if self.grid is None:
            raise InvalidParameterError(f"axis {self.name!r} has no default grid")
        return self.grid()


@dataclass(frozen=True)
class PanelSpec:
    """One output table of a study (one sub-figure of the paper).

    ``columns`` names per-scenario value columns from the study's
    evaluator; headers derive from the column count (pairs render as
    ``sc<N>_first_order`` / ``sc<N>_optimal``, singles as
    ``scenario_<N>``) unless ``headers`` overrides the full tuple.
    ``notes`` mixes literal templates (``str.format`` over the study
    context) and callables ``(ctx, data) -> str | sequence of str``.
    """

    suffix: str
    title: str
    columns: tuple[str, ...]
    headers: tuple[str, ...] | None = None
    notes: tuple = ()


@dataclass(frozen=True)
class StudySpec:
    """A declarative experiment: the registry entry for one figure.

    The declarative fields (platforms, scenarios, axis, fixed model
    parameters, panels) drive the generic sweep engine; the optional
    hooks progressively take over where a study's shape is bespoke:

    * ``point_eval`` replaces the per-point pattern evaluator;
    * ``declare``/``assemble`` replace the engine's declare or
      assemble phase (the extension studies, or the Figure 3 period
      sweep's vectorized declare) while keeping the staged two-phase
      contract.
    """

    name: str
    description: str
    scenarios: tuple[int, ...] = SCENARIO_IDS
    platforms: tuple[str, ...] = tuple(PLATFORM_NAMES)
    axis: AxisSpec | None = None
    fixed: Mapping[str, float] = field(default_factory=dict)
    panels: tuple[PanelSpec, ...] = ()
    figure_base: str = ""
    point_eval: Callable | None = None
    declare: Callable | None = None
    assemble: Callable | None = None
    supports_all_platforms: bool = False

    def needed_columns(self) -> tuple[str, ...]:
        """Columns any panel consumes (sim points not needed are never declared)."""
        out: list[str] = []
        for panel in self.panels:
            for col in panel.columns:
                if col not in out:
                    out.append(col)
        return tuple(out)


@dataclass
class StudyContext:
    """Everything a study hook may read while declaring or assembling."""

    spec: StudySpec
    platform: str
    scenarios: tuple[int, ...]
    grid: Sequence[float] | None
    fixed: dict
    settings: SimSettings
    pipeline: SimulationPipeline
    options: dict = field(default_factory=dict)

    @property
    def fmt(self) -> dict:
        """Template namespace for panel titles, notes and figure ids."""
        return {
            "platform": self.platform,
            "platform_l": self.platform.lower(),
            "scenarios": self.scenarios,
            **self.fixed,
            **self.options,
        }

    def build(self, scenario: int, x: float | None = None):
        """The scenario's :class:`PatternModel` at grid position ``x``."""
        return build_cell_model(self.spec, self.platform, self.fixed, scenario, x)


def build_cell_model(
    spec: StudySpec, platform: str, fixed: Mapping, scenario: int, x: float | None = None
):
    """The model of one study cell: ``fixed`` parameters, axis at ``x``."""
    kwargs = dict(fixed)
    if x is not None and spec.axis is not None and spec.axis.model_kwarg:
        kwargs[spec.axis.model_kwarg] = float(x)
    return build_model(platform, scenario, **kwargs)


# -- generic evaluators ------------------------------------------------------


def pattern_point(
    ctx: StudyContext, model, needed: Sequence[str], analytic=None
) -> dict:
    """Default per-point evaluator: first-order + numerical optimum.

    Mirrors the historical figure loops exactly: the first-order closed
    form may be invalid (``None`` columns, no simulation declared), the
    numerical optimum always exists, and Monte-Carlo points are
    declared on the pipeline only for the sim columns a panel uses.

    ``analytic`` carries the cell's pre-computed
    :class:`~repro.experiments.analytic.AnalyticPoint` when the sweep
    engine resolved the study column through the batch engine; without
    it (custom ``point_eval`` hooks delegating here) the cell goes
    through the same engine on its own.
    """
    out: dict[str, Any] = {}
    if analytic is None:
        analytic = evaluate_analytic([model])[0][0]
    out["P_fo"] = analytic.P_fo
    out["T_fo"] = analytic.T_fo
    out["H_pred_fo"] = analytic.H_pred_fo
    out["P_num"] = analytic.P_num
    out["T_num"] = analytic.T_num
    out["H_pred_num"] = analytic.H_pred_num
    if "H_sim_fo" in needed:
        out["H_sim_fo"] = (
            ctx.pipeline.simulate_mean(model, out["T_fo"], out["P_fo"], ctx.settings)
            if analytic.P_fo is not None
            else None
        )
    if "H_sim_num" in needed:
        out["H_sim_num"] = ctx.pipeline.simulate_mean(
            model, analytic.T_num, analytic.P_num, ctx.settings
        )
    return out


def _sweep_declare(ctx: StudyContext) -> dict:
    """Generic declare phase: evaluate every (x, scenario) grid cell.

    Default-evaluator studies resolve their analytic columns through
    the pipeline's batch engine first (one array sweep per study
    column, memo-served across scenario-family replicates), then walk
    the grid in the historical order so simulation declarations — and
    therefore plan keys, seeds and progress events — are unchanged.
    A custom ``point_eval`` hook evaluates cell by cell.
    """
    spec = ctx.spec
    needed = spec.needed_columns()
    evaluate = spec.point_eval if spec.point_eval is not None else pattern_point
    data: dict[int, dict[str, list]] = {}

    def _store(sc: int, point: dict) -> None:
        store = data.setdefault(sc, {})
        # Every evaluated column is kept (note hooks read analytic
        # columns no panel prints); only sim columns are need-gated.
        for col, value in point.items():
            store.setdefault(col, []).append(value)

    if spec.axis is None:
        cells = [(sc, None) for sc in ctx.scenarios]
    else:
        cells = [(sc, x) for x in ctx.grid for sc in ctx.scenarios]
    models = [ctx.build(sc, x) for sc, x in cells]
    if evaluate is pattern_point:
        points = ctx.pipeline.evaluate_analytic(models)
        for (sc, _), model, point in zip(cells, models, points):
            _store(sc, pattern_point(ctx, model, needed, analytic=point))
        return data
    for (sc, _), model in zip(cells, models):
        _store(sc, evaluate(ctx, model, needed))
    return data


def _panel_headers(ctx: StudyContext, panel: PanelSpec) -> tuple[str, ...]:
    if panel.headers is not None:
        return panel.headers
    lead = ctx.spec.axis.header if ctx.spec.axis is not None else "scenario"
    cols = panel.columns
    if len(cols) == 1:
        per_sc = tuple(f"scenario_{sc}" for sc in ctx.scenarios)
    elif (
        len(cols) == 2 and cols[0].endswith("_fo") and cols[1].endswith("_num")
    ):
        # A first-order/numerical pair (the paper's canonical layout).
        per_sc = tuple(
            h
            for sc in ctx.scenarios
            for h in (f"sc{sc}_first_order", f"sc{sc}_optimal")
        )
    else:
        per_sc = tuple(f"sc{sc}_{col}" for sc in ctx.scenarios for col in cols)
    return (lead,) + per_sc


def _panel_rows(ctx: StudyContext, panel: PanelSpec, data: dict) -> tuple[tuple, ...]:
    rows = []
    if ctx.spec.axis is None:
        for sc in ctx.scenarios:
            rows.append(
                tuple([sc] + [data[sc][col][0] for col in panel.columns])
            )
        return tuple(rows)
    for i, x in enumerate(ctx.grid):
        row: list = [ctx.spec.axis.display(x)]
        for sc in ctx.scenarios:
            for col in panel.columns:
                row.append(data[sc][col][i])
        rows.append(tuple(row))
    return tuple(rows)


def _resolve_notes(ctx: StudyContext, panel: PanelSpec, data: dict) -> tuple[str, ...]:
    notes: list[str] = []
    for note in panel.notes:
        if callable(note):
            produced = note(ctx, data)
            if produced is None:
                continue
            if isinstance(produced, str):
                notes.append(produced)
            else:
                notes.extend(produced)
        else:
            notes.append(str(note).format(**ctx.fmt))
    return tuple(notes)


def _sweep_assemble(ctx: StudyContext, data: dict) -> list[FigureResult]:
    """Generic assemble phase: materialize and render every panel."""
    data = materialize(data)
    base = ctx.spec.figure_base.format(**ctx.fmt)
    results = []
    for panel in ctx.spec.panels:
        results.append(
            FigureResult(
                figure_id=f"{base}{panel.suffix}",
                title=panel.title.format(**ctx.fmt),
                columns=_panel_headers(ctx, panel),
                rows=_panel_rows(ctx, panel, data),
                notes=_resolve_notes(ctx, panel, data),
            )
        )
    return results


def slope_fit_notes(
    columns: Sequence[str], label: str = "fitted {col} slope {slope:+.3f}"
) -> Callable:
    """Generic slope-fit note hook: log-log order of a column per scenario.

    Used by TOML studies to get quantitative order checks without code;
    the library figures carry their own theorem-specific hooks.
    """

    def _notes(ctx: StudyContext, data: dict) -> list[str]:
        xs = np.asarray(ctx.grid, dtype=float)
        out = []
        for sc in ctx.scenarios:
            for col in columns:
                ys = np.asarray(
                    [np.nan if v is None else float(v) for v in data[sc][col]]
                )
                fit = fit_loglog_slope(xs, ys)
                out.append(
                    f"scenario {sc}: "
                    + label.format(col=col, slope=fit.slope, **ctx.fmt)
                )
        return out

    return _notes


# -- staged execution --------------------------------------------------------


def _iter_deferreds(obj):
    """Every :class:`Deferred` inside nested tuples, lists and dicts."""
    if isinstance(obj, Deferred):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _iter_deferreds(value)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _iter_deferreds(value)


def ready_prefix(stages: Sequence[StagedStudy], cursor: int) -> int:
    """Advance ``cursor`` past the leading ready ``stages``.

    Readiness only goes from false to true, so a family of staged
    studies keeps the returned cursor and resumes from it on the next
    probe (the sequence may grow in between): the family is ready when
    the cursor reaches ``len(stages)``.
    """
    while cursor < len(stages) and stages[cursor].ready():
        cursor += 1
    return cursor


@dataclass
class StagedStudy:
    """A study after its declare phase: resolve the pipeline, then finish."""

    ctx: StudyContext
    state: Any
    n_pending: int
    #: Completion-event label of this study's points (defaults to the
    #: spec name; scenario variants use one label per derived study so
    #: progress/dry-run attribution tells replicates apart).
    group: str = ""

    #: The state's Deferreds in scan order (flattened by the first
    #: :meth:`ready` probe), and how many leading ones have resolved.
    _deferreds: list | None = field(default=None, init=False, repr=False, compare=False)
    _resolved: int = field(default=0, init=False, repr=False, compare=False)

    def ready(self) -> bool:
        """Whether every deferred point of this study has resolved.

        A Deferred only ever goes from pending to resolved, so the
        first probe flattens the state once and each probe advances a
        cursor past the resolved prefix: all probes of a round together
        cost O(points), not O(points) each.
        """
        if self._deferreds is None:
            self._deferreds = list(_iter_deferreds(self.state))
        deferreds, i = self._deferreds, self._resolved
        while i < len(deferreds) and deferreds[i].ready:
            i += 1
        self._resolved = i
        return i == len(deferreds)

    def finish(self) -> list[FigureResult]:
        """Assemble the study's tables (requires the pipeline resolved)."""
        ctx = self.ctx
        assemble = ctx.spec.assemble if ctx.spec.assemble is not None else _sweep_assemble
        return assemble(ctx, self.state)


def stage_study(
    spec: StudySpec,
    platform: str | None = None,
    settings: SimSettings = SimSettings(),
    pipeline: SimulationPipeline | None = None,
    scenarios: Sequence[int] | None = None,
    grid: Sequence[float] | None = None,
    fixed: Mapping[str, float] | None = None,
    options: Mapping | None = None,
    group: str | None = None,
) -> StagedStudy:
    """Run the declare phase of ``spec`` onto ``pipeline``.

    Overrides (``scenarios``, ``grid``, ``fixed`` model parameters,
    bespoke ``options``) replace the spec's defaults; ``fixed`` replaces
    the whole mapping, so pass every model parameter the spec fixes.
    ``group`` relabels the study's completion events (scenario variants
    stage the same spec many times under distinct labels).
    """
    if pipeline is None:
        raise InvalidParameterError("stage_study requires an explicit pipeline")
    ctx = StudyContext(
        spec=spec,
        platform=platform if platform is not None else spec.platforms[0],
        scenarios=tuple(scenarios) if scenarios is not None else spec.scenarios,
        grid=(
            grid
            if grid is not None
            else (spec.axis.default_grid() if spec.axis is not None else None)
        ),
        fixed=dict(spec.fixed if fixed is None else fixed),
        settings=settings,
        pipeline=pipeline,
        options=dict(options or {}),
    )
    before = pipeline.pending_points
    declare = spec.declare if spec.declare is not None else _sweep_declare
    # Label every point this declare phase emits with the study name so
    # event-driven resolution (progress counters, completion-driven
    # emission, dry-run previews) can attribute completions per study.
    label = group if group is not None else spec.name
    previous_group = pipeline.current_group
    pipeline.current_group = label
    try:
        with pipeline.trace.span("declare", study=label, platform=ctx.platform) as span:
            state = declare(ctx)
            span["points"] = pipeline.pending_points - before
    finally:
        pipeline.current_group = previous_group
    return StagedStudy(
        ctx=ctx,
        state=state,
        n_pending=pipeline.pending_points - before,
        group=label,
    )


def run_study(
    spec: StudySpec,
    platform: str | None = None,
    settings: SimSettings = SimSettings(),
    pipeline: SimulationPipeline | None = None,
    scenarios: Sequence[int] | None = None,
    grid: Sequence[float] | None = None,
    fixed: Mapping[str, float] | None = None,
    options: Mapping | None = None,
) -> list[FigureResult]:
    """Declare, resolve and assemble one study: the library entry point.

    ``run_study(fig5_error_rate.SPEC, grid=lambdas, settings=...)``
    regenerates a figure; the overrides are :func:`stage_study`'s.
    With no ``pipeline``, a private serial one is created and closed.
    """
    pipe = pipeline if pipeline is not None else private_pipeline()
    try:
        staged = stage_study(
            spec,
            platform=platform,
            settings=settings,
            pipeline=pipe,
            scenarios=scenarios,
            grid=grid,
            fixed=fixed,
            options=options,
        )
        pipe.resolve()
        return staged.finish()
    finally:
        if pipeline is None:
            pipe.close()


# -- TOML-defined studies ----------------------------------------------------


def load_toml_spec(path: str | Path) -> StudySpec:
    """Build a :class:`StudySpec` from a TOML study file.

    The file format (see ``examples/custom_study.toml``)::

        [study]
        name = "my_study"
        description = "..."
        platforms = ["Hera"]
        scenarios = [1, 3]
        alpha = 0.01            # fixed model parameters (optional)

        [axis]
        name = "lambda_ind"     # any AXIS_KWARGS entry (model parameter
        values = [1e-11, 1e-10, 1e-9]   # or reference-cost override)

        [[panel]]
        suffix = "a_processors"
        title = "P* vs error rate"
        columns = ["P_fo", "P_num"]
        notes = ["platform {platform}"]
        slope_fit = ["P_num"]   # optional log-log order notes
    """
    import tomllib

    path = Path(path)
    try:
        payload = tomllib.loads(path.read_text())
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise InvalidParameterError(f"cannot load study spec {path}: {exc}") from exc

    study = payload.get("study", {})
    name = study.get("name", path.stem)
    axis_table = payload.get("axis")
    if axis_table is None:
        raise InvalidParameterError(f"{path}: missing [axis] table")
    axis_name = axis_table.get("name")
    if axis_name not in AXIS_KWARGS:
        raise InvalidParameterError(
            f"{path}: axis.name must be one of {', '.join(AXIS_KWARGS)}"
        )
    values = axis_table.get("values")
    if not values:
        raise InvalidParameterError(f"{path}: axis.values must be a non-empty list")
    grid = tuple(float(v) for v in values)

    platforms = tuple(study.get("platforms", ("Hera",)))
    for p in platforms:
        if p not in PLATFORM_NAMES:
            raise InvalidParameterError(
                f"{path}: unknown platform {p!r} (Table II has {', '.join(PLATFORM_NAMES)})"
            )
    scenarios = tuple(int(s) for s in study.get("scenarios", SCENARIO_IDS))
    for sc in scenarios:
        if sc not in SCENARIO_IDS:
            raise InvalidParameterError(f"{path}: unknown scenario {sc}")

    fixed = {"alpha": DEFAULT_ALPHA, "downtime": DEFAULT_DOWNTIME}
    fixed.pop(axis_name, None)
    for key in AXIS_KWARGS:
        if key == axis_name:
            continue
        if key in study:
            fixed[key] = float(study[key])

    panel_tables = payload.get("panel", [])
    if not panel_tables:
        raise InvalidParameterError(f"{path}: at least one [[panel]] is required")
    panels = []
    for i, table in enumerate(panel_tables):
        columns = tuple(table.get("columns", ()))
        if not columns:
            raise InvalidParameterError(f"{path}: panel {i} has no columns")
        for col in columns:
            if col not in SWEEP_COLUMNS:
                raise InvalidParameterError(
                    f"{path}: unknown column {col!r} "
                    f"(available: {', '.join(SWEEP_COLUMNS)})"
                )
        notes: list = [str(n) for n in table.get("notes", ())]
        slope_columns = tuple(table.get("slope_fit", ()))
        if slope_columns:
            notes.append(slope_fit_notes(slope_columns))
        panels.append(
            PanelSpec(
                suffix=table.get("suffix", chr(ord("a") + i)),
                title=table.get("title", f"{name} [{{platform}}]: panel {i}"),
                columns=columns,
                notes=tuple(notes),
            )
        )

    return StudySpec(
        name=name,
        description=study.get("description", f"user study from {path.name}"),
        scenarios=scenarios,
        platforms=platforms,
        axis=AxisSpec(
            name=axis_name,
            header=axis_name,
            model_kwarg=axis_name,
            grid=lambda: grid,
        ),
        fixed=fixed,
        panels=tuple(panels),
        figure_base=f"{name}_{{platform_l}}",
    )
