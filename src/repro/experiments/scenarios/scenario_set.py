"""ScenarioSet: derive, stage and aggregate a family of study variants.

This is the runner layer of the scenario lab.  A :class:`ScenarioSet`
binds a base :class:`~repro.experiments.spec.StudySpec` to a
:mod:`transform <repro.experiments.scenarios.transforms>` chain and a
master seed; :meth:`ScenarioSet.derive` resolves the symbolic variants
against the spec and the platform catalog into concrete
:class:`ScenarioMember` studies (scaled sweep grids, overridden fixed
parameters, replicate seeds), and :meth:`ScenarioSet.stage` declares
every member onto **one** shared
:class:`~repro.experiments.pipeline.SimulationPipeline` — so the whole
family resolves in a single event-driven round, its chunk jobs share
the global in-flight window, and members whose plan keys coincide
(replicate 0 of an identity variant is key-identical to a plain run of
the base study) are deduplicated by the planner and served from the
result cache instead of recomputed.

Aggregation rides the same completion events: a
:class:`ScenarioFamily` exposes the ``ready()``/``finish()`` contract
of :class:`~repro.experiments.spec.StagedStudy`, so the banded tables
of a family stream out the moment its *last* member resolves, while
other families are still simulating.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ...exceptions import InvalidParameterError
from ...platforms.catalog import DEFAULT_ALPHA, DEFAULT_DOWNTIME, get_platform
from ...sim.rng import DEFAULT_SEED
from ..common import FigureResult, SimSettings
from ..pipeline import SimulationPipeline
from ..spec import (
    StagedStudy,
    StudySpec,
    build_cell_model,
    ready_prefix,
    stage_study,
)
from .aggregate import BandSpec, FamilyAccumulator, adaptive_notes, band_tables
from .transforms import GridTransform, Perturbation, Variant, derive_variants

__all__ = [
    "ScenarioMember",
    "ScenarioFamily",
    "ScenarioSet",
    "write_member_results",
    "load_member_results",
    "aggregate_results",
]


@dataclass(frozen=True)
class ScenarioMember:
    """One concrete derived study of a scenario set.

    ``grid``/``fixed`` are the resolved :func:`stage_study` overrides;
    ``seed`` is the member's master RNG seed (the set's master seed for
    replicate 0, a derived seed otherwise).  ``name`` labels the
    member's completion events — one group per member, so progress and
    dry-run attribution tell replicates apart.
    """

    name: str
    set_name: str
    variant: Variant
    platform: str
    seed: int
    grid: tuple[float, ...] | None
    fixed: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.variant.label

    @property
    def replicate(self) -> int:
        return self.variant.replicate


def _resolve_member(
    sset: "ScenarioSet", variant: Variant, platform: str
) -> ScenarioMember:
    """Resolve a symbolic variant against the spec and the catalog."""
    spec = sset.spec
    grid = (
        tuple(float(x) for x in spec.axis.default_grid())
        if spec.axis is not None
        else None
    )
    fixed = dict(spec.fixed)
    entry = get_platform(platform)
    for p in variant.perturbations:
        if spec.axis is not None and p.axis == spec.axis.model_kwarg:
            grid = tuple(p.apply(x) for x in grid)
            continue
        if p.axis in ("alpha", "downtime"):
            default = DEFAULT_ALPHA if p.axis == "alpha" else DEFAULT_DOWNTIME
            base = fixed.get(p.axis, default)
        elif p.axis == "lambda_ind":
            base = fixed.get(p.axis, entry.lambda_ind)
        else:  # checkpoint_cost / verification_cost (validated upstream)
            base = fixed.get(p.axis, getattr(entry, p.axis))
        fixed[p.axis] = p.apply(base)
    return ScenarioMember(
        name=f"{sset.name}:{platform}:{variant.label}",
        set_name=sset.name,
        variant=variant,
        platform=platform,
        seed=sset.master_seed if variant.seed is None else variant.seed,
        grid=grid,
        fixed=fixed,
    )


@dataclass
class ScenarioFamily:
    """All staged members of one platform, plus their band reduction.

    Implements the :class:`~repro.experiments.spec.StagedStudy`
    emission contract (``ready()``/``finish()``), so a
    :class:`~repro.io.stream.StreamingEmitter` (or the banded subclass)
    streams a family's tables the moment its last member resolves.
    """

    label: str
    members: list[ScenarioMember]
    staged: list[StagedStudy]
    band: BandSpec
    panel_columns: tuple[tuple[str, ...], ...] | None
    provenance: tuple[str, ...] = ()
    #: Leading members known resolved (see :func:`ready_prefix`).
    _ready_upto: int = field(default=0, init=False, repr=False, compare=False)

    def ready(self) -> bool:
        self._ready_upto = ready_prefix(self.staged, self._ready_upto)
        return self._ready_upto == len(self.staged)

    def member_results(self) -> list[list[FigureResult]]:
        """Every member's assembled tables, in derive order."""
        return [stage.finish() for stage in self.staged]

    def finish(self) -> list[FigureResult]:
        """The family's banded tables (requires the pipeline resolved)."""
        return band_tables(
            self.member_results(),
            band=self.band,
            panel_columns=self.panel_columns,
            provenance=self.provenance,
        )


class ScenarioSet:
    """A base study, a transform chain and a master seed.

    Parameters
    ----------
    name:
        The scenario set's label (output prefix, group-label prefix).
    spec:
        The base study.  Studies that assemble their own tables (the
        extension experiments) are refused: their staged state is
        opaque to the grid/fixed override machinery, so a perturbation
        would be silently ignored.  A ``declare`` hook that keeps the
        generic grid assemble (Figure 3) is accepted.
    transforms:
        The :class:`~repro.experiments.scenarios.transforms.GridTransform`
        chain; the derived family is its full cross product.
    master_seed:
        Seed of both the replicate-seed derivation and every jitter
        draw stream; the whole family is a pure function of it.
    platform:
        Base platform (default: the spec's first); a
        :class:`~repro.experiments.scenarios.transforms.PlatformProduct`
        transform overrides it per variant.
    band:
        Quantile pair and flip tolerance of the aggregation layer.
    adaptive:
        Optional
        :class:`~repro.experiments.scenarios.adaptive.AdaptivePolicy`
        declared by the scenario file's ``[adaptive]`` table.  The set
        itself stays fixed-path; the policy is picked up by the CLI
        (``--adaptive`` or ``adaptive_enabled``) to drive an
        :class:`~repro.experiments.scenarios.adaptive.AdaptiveRun`.
    """

    def __init__(
        self,
        name: str,
        spec: StudySpec,
        transforms: Sequence[GridTransform],
        master_seed: int = DEFAULT_SEED,
        platform: str | None = None,
        band: BandSpec = BandSpec(),
        adaptive=None,
    ):
        if spec.assemble is not None:
            raise InvalidParameterError(
                f"study {spec.name!r} assembles its own tables; scenario "
                "transforms only apply to grid/fixed-parameter studies"
            )
        self.name = name
        self.spec = spec
        self.transforms = tuple(transforms)
        self.master_seed = int(master_seed)
        self.platform = platform if platform is not None else spec.platforms[0]
        get_platform(self.platform)  # validate early
        self.band = band
        self.adaptive = adaptive
        #: Whether the scenario file asks for adaptive mode by default
        #: (``[adaptive] enabled``); ``--adaptive`` turns it on as well.
        self.adaptive_enabled = adaptive is not None

    # -- derivation --------------------------------------------------------

    def derive(self) -> list[ScenarioMember]:
        """The concrete member studies, least-perturbed first."""
        members = []
        for variant in derive_variants(self.transforms, self.master_seed):
            platform = (
                variant.platform if variant.platform is not None else self.platform
            )
            members.append(_resolve_member(self, variant, platform))
        return members

    def validate(self, members: Sequence[ScenarioMember]) -> None:
        """Build each member's models; raise on a parameter out of domain.

        Staging builds the same models, but only once a pipeline — on
        the CLI, its trace file and analytic memo — exists.  Checking
        first lets a perturbation that leaves the model's domain (an
        additive jitter pushing ``lambda_ind`` negative) fail before
        anything is written.  Replicates share their variant's
        parameters, so each distinct parameter set is built once, and
        at one scenario: a scenario only picks the form the reference
        costs are fitted through (a positive factor), so no parameter's
        domain depends on it.
        """
        spec = self.spec
        sweeps_model = spec.axis is not None and spec.axis.model_kwarg
        scenario = spec.scenarios[0]
        cells = {(m.platform, m.grid, tuple(m.fixed.items())): m for m in members}
        for member in cells.values():
            for x in member.grid if sweeps_model else (None,):
                build_cell_model(spec, member.platform, member.fixed, scenario, x)

    def provenance(self) -> tuple[str, ...]:
        """Notes recording how the family was derived (band tables)."""
        lines = [
            f"scenario set {self.name!r} on study {self.spec.name!r}, "
            f"master seed {self.master_seed}"
        ]
        lines.extend(f"transform: {t.describe()}" for t in self.transforms)
        return tuple(lines)

    # -- staging and execution ---------------------------------------------

    def stage(
        self,
        pipeline: SimulationPipeline,
        settings: SimSettings = SimSettings(),
        members: Sequence[ScenarioMember] | None = None,
    ) -> list[ScenarioFamily]:
        """Declare every member onto ``pipeline``, grouped per platform.

        ``settings.seed`` is ignored in favour of each member's own
        seed (the set's master seed governs the whole family).
        """
        members = list(members) if members is not None else self.derive()
        panel_columns = (
            tuple(panel.columns for panel in self.spec.panels)
            if self.spec.panels
            else None
        )
        families: dict[str, ScenarioFamily] = {}
        for member in members:
            staged = stage_study(
                self.spec,
                platform=member.platform,
                settings=dataclasses.replace(settings, seed=member.seed),
                pipeline=pipeline,
                grid=member.grid,
                fixed=member.fixed,
                group=member.name,
            )
            family = families.get(member.platform)
            if family is None:
                family = ScenarioFamily(
                    label=f"{self.name}[{member.platform}]",
                    members=[],
                    staged=[],
                    band=self.band,
                    panel_columns=panel_columns,
                    provenance=self.provenance(),
                )
                families[member.platform] = family
            family.members.append(member)
            family.staged.append(staged)
        return list(families.values())


# -- on-disk member results (scenario run -> scenario aggregate) -----------


def _figure_payload(result: FigureResult) -> dict:
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
    }


def _figure_from_payload(payload: dict) -> FigureResult:
    return FigureResult(
        figure_id=payload["figure_id"],
        title=payload["title"],
        columns=tuple(payload["columns"]),
        rows=tuple(tuple(row) for row in payload["rows"]),
        notes=tuple(payload["notes"]),
    )


def write_member_results(
    directory: str | Path,
    sset: ScenarioSet,
    families: Sequence,
    band: BandSpec | None = None,
    adaptive: dict | None = None,
) -> Path:
    """Persist every member's tables (JSON floats round-trip exactly).

    Layout: one ``manifest.json`` naming the set, band parameters and
    members, plus one ``member_<i>.json`` per member — the input of
    ``repro-experiments scenario aggregate``.

    ``families`` may also be
    :class:`~repro.experiments.scenarios.adaptive.AdaptiveFamily`
    objects: partial members then record the grid ``rows`` they cover,
    ``band`` overrides the set's band (the adaptive run forces the
    consistency column on), and ``adaptive`` stores the run's journal
    so ``scenario aggregate`` reproduces the adaptive report
    byte-identically.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    band = band if band is not None else sset.band
    band_payload = {
        "q_lo": band.q_lo,
        "q_hi": band.q_hi,
        "flip_tolerance": band.flip_tolerance,
    }
    if band.consistency:
        band_payload["consistency"] = True
    manifest: dict = {
        "scenario_set": sset.name,
        "study": sset.spec.name,
        "master_seed": sset.master_seed,
        "band": band_payload,
        "panel_columns": [list(panel.columns) for panel in sset.spec.panels],
        "provenance": list(sset.provenance()),
        "families": [],
    }
    if adaptive:
        manifest["adaptive"] = adaptive
    index = 0
    for family in families:
        entry = {"label": family.label, "members": []}
        rows_list = (
            family.member_rows()
            if hasattr(family, "member_rows")
            else [None] * len(family.members)
        )
        for member, rows, tables in zip(
            family.members, rows_list, family.member_results()
        ):
            name = f"member_{index:03d}.json"
            payload = {
                "name": member.name,
                "platform": member.platform,
                "label": member.label,
                "replicate": member.replicate,
                "seed": member.seed,
                "figures": [_figure_payload(t) for t in tables],
            }
            if rows is not None:
                payload["rows"] = list(rows)
            (directory / name).write_text(json.dumps(payload, indent=2) + "\n")
            entry["members"].append({"name": member.name, "file": name})
            index += 1
        manifest["families"].append(entry)
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def load_member_results(directory: str | Path) -> tuple[dict, list[dict]]:
    """Read a ``scenario run --out`` directory back into memory."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise InvalidParameterError(
            f"{directory} is not a scenario result directory (no manifest.json)"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
        families = []
        for entry in manifest["families"]:
            members = []
            for ref in entry["members"]:
                member_path = directory / ref["file"]
                try:
                    payload = json.loads(member_path.read_text())
                    payload["figures"] = [
                        _figure_from_payload(f) for f in payload["figures"]
                    ]
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    raise InvalidParameterError(
                        f"cannot read scenario member {member_path}: {exc!r} "
                        "(re-run `scenario run` to regenerate the directory)"
                    ) from exc
                members.append(payload)
            families.append({"label": entry["label"], "members": members})
    except InvalidParameterError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidParameterError(
            f"malformed scenario manifest {manifest_path}: {exc!r}"
        ) from exc
    return manifest, families


def aggregate_results(manifest: dict, families: list[dict]) -> list[FigureResult]:
    """Band every family of a loaded result directory.

    Every family folds its members through one
    :class:`~repro.experiments.scenarios.aggregate.FamilyAccumulator`,
    reproducing the live report byte-identically: fixed-path
    directories in the fixed layout, adaptive ones (an ``adaptive``
    journal in the manifest, per-member ``rows`` coverage) in the
    adaptive layout with the journaled provenance notes.
    """
    band_payload = manifest.get("band", {})
    try:
        band = BandSpec(**band_payload)
    except TypeError as exc:
        raise InvalidParameterError(
            f"malformed band parameters {band_payload!r} in the scenario "
            f"manifest: {exc}"
        ) from exc
    panel_columns = tuple(
        tuple(cols) for cols in manifest.get("panel_columns", ())
    ) or None
    adaptive = manifest.get("adaptive")
    provenance = tuple(manifest.get("provenance", ()))
    out = []
    for family in families:
        notes: tuple[str, ...] = ()
        if adaptive:
            try:
                journal = adaptive["families"][family["label"]]
                notes = adaptive_notes(adaptive["policy"], journal["summary"])
            except (KeyError, TypeError) as exc:
                raise InvalidParameterError(
                    f"malformed adaptive journal for family "
                    f"{family['label']!r} in the scenario manifest: {exc!r}"
                ) from exc
        accum = FamilyAccumulator(
            band, panel_columns, provenance, fixed=not adaptive
        )
        for member in family["members"]:
            rows = member.get("rows")
            accum.add_member(
                member["figures"],
                rows=tuple(rows) if rows is not None else None,
            )
        out.extend(accum.finish(extra_notes=notes))
    return out
