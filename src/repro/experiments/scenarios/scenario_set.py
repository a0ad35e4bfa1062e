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
from dataclasses import dataclass, field
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
from .aggregate import BandSpec, band_tables
from .transforms import GridTransform, Perturbation, Variant, derive_variants

__all__ = ["ScenarioMember", "ScenarioFamily", "ScenarioSet"]


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

    def finish(self) -> list[FigureResult]:
        """The family's banded tables (requires the pipeline resolved)."""
        return band_tables(
            [stage.finish() for stage in self.staged],
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

