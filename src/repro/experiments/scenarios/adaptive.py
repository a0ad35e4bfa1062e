"""Adaptive replicate scheduling: converge bands with minimal work.

The fixed path simulates a declared replicate count per variant even
after the ``(median, p_lo, p_hi)`` bands have long stabilized.  This
module replaces the fixed count with a *stage → observe → extend*
loop, CARVE-style (resample until the conclusion is validated):

1. **stage** — an initial wave of ``min_replicates`` per variant over
   the full grid;
2. **observe** — as the wave's points land, fold each member into the
   :class:`~repro.experiments.scenarios.aggregate.FamilyAccumulator`
   and measure every grid row's relative band width;
3. **extend** — rows whose width moved less than ``band_tol`` for
   ``stable_waves`` consecutive waves are *converged* and stop costing
   replicates; the remaining active rows draw another wave (``wave``
   replicates per variant, grid restricted to the active rows) until
   everything converged or ``max_replicates`` is reached.

Determinism is the hard requirement: convergence decisions depend on
*which* data they were computed over, never on arrival order.  Waves
fold strictly in wave order (a later wave completing first — easy with
a warm cache — waits), all simulated values are bit-identical across
executors, and the reductions are order-independent, so the staged
waves, the stopping decisions and the final band tables are identical
whatever ``--jobs`` produced them.

Every staging decision is journaled into the run manifest
(:meth:`~repro.sim.manifest.RunRecorder.record_adaptive`), so
``resume`` *replays* the journaled waves instead of re-deriving
convergence: all plan keys of the original run are staged up front,
completed points come back from the result cache, journaled stopping
decisions are reused, and the recomputed tail (decisions past the
crash point) is verified against any journaled wave it must agree
with — a mismatch (corrupted journal, changed inputs) fails loudly.

Replicate ``r`` of a variant carries the exact seeds of the fixed
path (master seed for replicate 0, ``replicate_seed`` otherwise), so
adaptive plan keys dedup against plain runs and fixed-path scenario
runs sharing the cache.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field

from ...exceptions import InvalidParameterError, ReproError
from ..common import FigureResult, SimSettings
from ..spec import StagedStudy, ready_prefix, stage_study
from .aggregate import FamilyAccumulator
from .scenario_set import ScenarioMember, ScenarioSet, _resolve_member
from .transforms import Variant, derive_variants, replicate_seed, split_replicates

__all__ = ["AdaptivePolicy", "AdaptiveWave", "AdaptiveFamily", "AdaptiveRun"]


@dataclass(frozen=True)
class AdaptivePolicy:
    """The knobs of the adaptive loop (CLI flags / ``[adaptive]`` table).

    A grid row is *converged* once its relative band width changed by
    at most ``band_tol`` over ``stable_waves`` consecutive waves; the
    chain's declared ``Resample`` count is ignored in adaptive mode —
    ``min_replicates``/``max_replicates`` govern instead.
    """

    min_replicates: int = 3
    max_replicates: int = 12
    wave: int = 2
    band_tol: float = 0.05
    stable_waves: int = 2

    def __post_init__(self):
        if self.min_replicates < 1:
            raise InvalidParameterError(
                f"min replicates must be >= 1, got {self.min_replicates!r}"
            )
        if self.max_replicates < self.min_replicates:
            raise InvalidParameterError(
                f"max replicates ({self.max_replicates!r}) must be >= "
                f"min replicates ({self.min_replicates!r})"
            )
        if self.wave < 1:
            raise InvalidParameterError(
                f"wave size must be >= 1, got {self.wave!r}"
            )
        if not self.band_tol > 0:
            raise InvalidParameterError(
                f"band tolerance must be positive, got {self.band_tol!r}"
            )
        if self.stable_waves < 1:
            raise InvalidParameterError(
                f"stable waves must be >= 1, got {self.stable_waves!r}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class AdaptiveWave:
    """One staged replicate range of one family.

    ``rows`` are the global grid rows the wave covers (``None`` = the
    full grid; wave 0 always covers it).
    """

    index: int
    start: int
    stop: int
    rows: tuple[int, ...] | None
    members: list[ScenarioMember] = field(default_factory=list)
    staged: list[StagedStudy] = field(default_factory=list)
    #: Leading members known resolved (see :func:`ready_prefix`).
    _ready_upto: int = field(default=0, init=False, repr=False, compare=False)

    def ready(self) -> bool:
        self._ready_upto = ready_prefix(self.staged, self._ready_upto)
        return self._ready_upto == len(self.staged)


@dataclass
class AdaptiveFamily:
    """One platform's adaptive state: waves, clouds, stopping decisions.

    Implements the ``label``/``ready()``/``finish()`` emission contract
    of :class:`~repro.experiments.scenarios.scenario_set.ScenarioFamily`,
    so banded output streams through the same
    :class:`~repro.io.bands.BandedEmitter`.
    """

    label: str
    platform: str
    variants: tuple[Variant, ...]
    grid: tuple[float, ...] | None
    policy: AdaptivePolicy
    accum: FamilyAccumulator
    #: Grid-row count (0 until known; set up front for axis sweeps,
    #: at the first fold for axis-less studies).
    n_rows: int = 0
    waves: list[AdaptiveWave] = field(default_factory=list)
    #: Next wave index to fold — folds are strictly in wave order.
    next_fold: int = 0
    #: row -> wave index at which the row converged.
    converged: dict[int, int] = field(default_factory=dict)
    #: row -> relative band width after the last fold covering it.
    widths: dict[int, float] = field(default_factory=dict)
    #: row -> consecutive waves with width delta <= band_tol.
    streaks: dict[int, int] = field(default_factory=dict)
    done: bool = False

    @property
    def members(self) -> list[ScenarioMember]:
        """Every staged member, in wave (= replicate-major) order."""
        return [m for wave in self.waves for m in wave.members]

    def active_rows(self, after_wave: int) -> list[int]:
        """Rows still unconverged once wave ``after_wave`` folded."""
        return [
            r
            for r in range(self.n_rows)
            if self.converged.get(r, after_wave + 1) > after_wave
        ]

    def summary(self) -> dict:
        """The journaled per-family counters (progress, notes, bench)."""
        rows_staged = 0
        for wave in self.waves:
            covered = len(wave.rows) if wave.rows is not None else self.n_rows
            rows_staged += len(wave.members) * covered
        fixed_rows = (
            len(self.variants) * self.policy.max_replicates * self.n_rows
        )
        return {
            "n_rows": self.n_rows,
            "rows_converged": len(self.converged),
            "rows_staged": rows_staged,
            "fixed_rows": fixed_rows,
            "saved_rows": fixed_rows - rows_staged,
        }

    # -- emission contract ---------------------------------------------------

    def ready(self) -> bool:
        return self.done

    def finish(self) -> list[FigureResult]:
        return self.accum.finish(
            extra_notes=_adaptive_notes(self.policy, self.summary())
        )


def _adaptive_notes(policy: AdaptivePolicy, summary: dict) -> tuple[str, str]:
    """The two table notes recording an adaptive family's provenance:
    its policy and its :meth:`AdaptiveFamily.summary` counters."""
    return (
        (
            f"adaptive replicates: {policy.min_replicates}.."
            f"{policy.max_replicates} in waves of {policy.wave} "
            f"(band tol {policy.band_tol:g}, "
            f"{policy.stable_waves} stable waves)"
        ),
        (
            f"converged {summary['rows_converged']}/{summary['n_rows']} grid "
            f"rows; simulated {summary['rows_staged']} member-rows of "
            f"{summary['fixed_rows']} fixed-path equivalent "
            f"({summary['saved_rows']} saved)"
        ),
    )


class AdaptiveRun:
    """Drive a :class:`ScenarioSet` through the adaptive replicate loop.

    Wiring (the runner does this):

    * :meth:`stage_initial` before the resolve loop (wave 0 of every
      family);
    * :meth:`replay` as the recorder's pre-validation hook on resume
      (re-stages every journaled wave so the resumed plan covers the
      original run's keys);
    * :meth:`on_event` chained into the pipeline's ``on_event`` (folds
      completed waves the moment their last point lands);
    * :meth:`on_round` as the pipeline's ``on_round`` (folds waves that
      completed without firing events — cache- or analytic-served —
      and reports whether another staging round is needed).
    """

    def __init__(
        self,
        sset: ScenarioSet,
        policy: AdaptivePolicy,
        pipeline,
        settings: SimSettings = SimSettings(),
        progress: bool = False,
        stream=None,
    ):
        self.sset = sset
        self.policy = policy
        self.pipeline = pipeline
        self.settings = settings
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        transforms, declared = split_replicates(sset.transforms)
        self._transforms = transforms
        self.declared_replicates = declared
        #: Panels with notes stripped: note hooks (log-log slope fits)
        #: assume the full grid, and member notes never reach the
        #: banded output anyway.
        self._spec = dataclasses.replace(
            sset.spec,
            panels=tuple(
                dataclasses.replace(panel, notes=())
                for panel in sset.spec.panels
            ),
        )
        self.families: list[AdaptiveFamily] = []
        #: Every staged study, in staging order — handed (live) to the
        #: progress printer, which re-reads it as waves land.
        self.staged_studies: list[StagedStudy] = []
        self._group_map: dict[str, AdaptiveFamily] = {}
        self.recorder = None
        self.journal: dict = {"policy": policy.to_dict(), "families": {}}

    # -- staging -------------------------------------------------------------

    def stage_initial(self) -> list[AdaptiveFamily]:
        """Build the families and stage wave 0 (``min_replicates``)."""
        # The family band always carries the consistency score —
        # adaptive coverage is ragged, so per-row evidence matters.
        band = dataclasses.replace(self.sset.band, consistency=True)
        panel_columns = (
            tuple(panel.columns for panel in self.sset.spec.panels)
            if self.sset.spec.panels
            else None
        )
        by_platform: dict[str, list[Variant]] = {}
        for variant in derive_variants(self._transforms, self.sset.master_seed):
            platform = (
                variant.platform
                if variant.platform is not None
                else self.sset.platform
            )
            by_platform.setdefault(platform, []).append(variant)
        for platform, variants in by_platform.items():
            base = _resolve_member(self.sset, variants[0], platform)
            family = AdaptiveFamily(
                label=f"{self.sset.name}[{platform}]",
                platform=platform,
                variants=tuple(variants),
                grid=base.grid,
                policy=self.policy,
                accum=FamilyAccumulator(
                    band=band,
                    panel_columns=panel_columns,
                    provenance=self.sset.provenance(),
                ),
                n_rows=len(base.grid) if base.grid is not None else 0,
            )
            self.families.append(family)
            self.journal["families"][family.label] = {
                "waves": [],
                "converged": {},
                "summary": family.summary(),
            }
            self._stage_wave(family, 0, self.policy.min_replicates, None)
        return self.families

    def _stage_wave(
        self,
        family: AdaptiveFamily,
        start: int,
        stop: int,
        rows: tuple[int, ...] | None,
    ) -> None:
        """Declare replicates ``start..stop-1`` of every variant.

        ``rows`` restricts the members to a subset of the base grid
        (``None`` = full grid); member order is replicate-major so the
        fixed path's seeds and names are reproduced exactly.
        """
        wave = AdaptiveWave(
            index=len(family.waves), start=start, stop=stop, rows=rows
        )
        for r in range(start, stop):
            for variant in family.variants:
                if r == 0:
                    member_variant = variant
                else:
                    member_variant = dataclasses.replace(
                        variant,
                        replicate=r,
                        seed=replicate_seed(self.sset.master_seed, r),
                    )
                member = _resolve_member(
                    self.sset, member_variant, family.platform
                )
                if rows is not None:
                    member = dataclasses.replace(
                        member, grid=tuple(member.grid[i] for i in rows)
                    )
                staged = stage_study(
                    self._spec,
                    platform=member.platform,
                    settings=dataclasses.replace(
                        self.settings, seed=member.seed
                    ),
                    pipeline=self.pipeline,
                    grid=member.grid,
                    fixed=member.fixed,
                    group=member.name,
                )
                wave.members.append(member)
                wave.staged.append(staged)
                self.staged_studies.append(staged)
                self._group_map[member.name] = family
        family.waves.append(wave)
        entry = self.journal["families"][family.label]
        entry["waves"].append(
            {
                "start": start,
                "stop": stop,
                "rows": list(rows) if rows is not None else None,
            }
        )
        self._journal(family)
        trace = self.pipeline.trace
        if trace.enabled:
            trace.event(
                "wave_stage",
                family=family.label,
                wave=wave.index,
                start=start,
                stop=stop,
                rows=len(rows) if rows is not None else None,
            )
        if self.progress:
            covered = (
                f"{len(rows)} rows" if rows is not None else "full grid"
            )
            print(
                f"[adaptive] {family.label}: wave {wave.index} stages "
                f"replicates {start}..{stop - 1} x "
                f"{len(family.variants)} variants ({covered})",
                file=self.stream,
            )

    # -- resume --------------------------------------------------------------

    def replay(self, manifest) -> None:
        """Re-stage every journaled wave of a resumed run.

        Called by the runner between loading the manifest and resume
        validation, so the resumed plan covers every key of the
        original run and completed points come back from the cache.
        Journaled stopping decisions are *reused*, not re-derived: the
        converged map is seeded from the journal, and the live
        convergence pass skips rows it already covers.
        """
        journal = getattr(manifest, "adaptive", None) or {}
        if not journal:
            return
        stored_policy = journal.get("policy", {})
        if stored_policy != self.policy.to_dict():
            raise ReproError(
                f"adaptive journal mismatch: the run manifest was recorded "
                f"with policy {stored_policy!r} but this resume uses "
                f"{self.policy.to_dict()!r}; re-run with the original "
                "[adaptive] table"
            )
        stored = journal.get("families", {})
        for family in self.families:
            entry = stored.get(family.label)
            if not entry:
                continue
            try:
                family.converged = {
                    int(r): int(w) for r, w in entry["converged"].items()
                }
                waves = entry["waves"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"adaptive journal mismatch: malformed journal entry "
                    f"for family {family.label!r}: {exc!r}"
                ) from exc
            self.journal["families"][family.label]["converged"] = {
                str(r): family.converged[r] for r in sorted(family.converged)
            }
            for payload in waves[len(family.waves) :]:
                rows = payload.get("rows")
                self._stage_wave(
                    family,
                    int(payload["start"]),
                    int(payload["stop"]),
                    tuple(int(r) for r in rows) if rows is not None else None,
                )

    # -- the observe/extend loop ---------------------------------------------

    def on_event(self, event) -> None:
        """Pipeline completion hook: fold the event's family forward."""
        family = self._group_map.get(getattr(event, "group", None))
        if family is not None and not family.done:
            self._advance(family)

    def on_round(self) -> bool:
        """Between-rounds hook: fold waves that completed without events.

        Cache-served and analytic-only points resolve without firing
        completion events; this is the safety net that folds them.
        Returns whether any family advanced (the pipeline keeps
        scheduling rounds while this is true or points are pending).
        """
        progressed = False
        for family in self.families:
            if not family.done and self._advance(family):
                progressed = True
        return progressed

    def _advance(self, family: AdaptiveFamily) -> bool:
        """Fold every completed wave in order; stage follow-up waves."""
        progressed = False
        while (
            family.next_fold < len(family.waves)
            and family.waves[family.next_fold].ready()
        ):
            wave = family.waves[family.next_fold]
            self._fold(family, wave)
            family.next_fold += 1
            self._after_fold(family, wave)
            progressed = True
        return progressed

    def _fold(self, family: AdaptiveFamily, wave: AdaptiveWave) -> None:
        for stage in wave.staged:
            family.accum.add_member(stage.finish(), rows=wave.rows)
        if family.n_rows == 0:
            family.n_rows = family.accum.n_rows
        elif family.n_rows != family.accum.n_rows:
            raise ReproError(
                f"adaptive family {family.label!r} folded {family.accum.n_rows} "
                f"grid rows, expected {family.n_rows}"
            )

    def _after_fold(self, family: AdaptiveFamily, wave: AdaptiveWave) -> None:
        """Update convergence streaks, then extend or finish the family.

        Convergence is evaluated per row covered by the wave, against
        the width recorded at the previous fold; rows already converged
        (live or seeded from a resumed journal) are skipped, so resume
        never re-derives a journaled decision.
        """
        policy = self.policy
        already_converged = len(family.converged)
        covered = wave.rows if wave.rows is not None else range(family.n_rows)
        for r in covered:
            if r in family.converged:
                continue
            width = family.accum.row_width(r)
            previous = family.widths.get(r)
            family.widths[r] = width
            if previous is None:
                continue  # first observation: a baseline, not a delta
            if abs(width - previous) <= policy.band_tol:
                family.streaks[r] = family.streaks.get(r, 0) + 1
                if family.streaks[r] >= policy.stable_waves:
                    family.converged[r] = wave.index
            else:
                family.streaks[r] = 0
        self._journal(family)
        active = family.active_rows(wave.index)
        newly_converged = len(family.converged) - already_converged
        if newly_converged:
            self.pipeline.metrics.counter(
                "adaptive_rows_converged",
                family=family.label,
                wave=str(wave.index),
            ).inc(newly_converged)
        trace = self.pipeline.trace
        if trace.enabled:
            trace.event(
                "wave_converge",
                family=family.label,
                wave=wave.index,
                converged=len(family.converged),
                active=len(active),
                rows_converged=newly_converged,
            )
        if self.progress:
            print(
                f"[adaptive] {family.label}: wave {wave.index} folded — "
                f"{len(family.converged)}/{family.n_rows} rows converged, "
                f"{len(active)} active",
                file=self.stream,
            )
        next_start = family.waves[-1].stop
        stages_next = bool(active) and next_start < policy.max_replicates
        if family.next_fold < len(family.waves):
            self._verify_replayed(family, wave, active, stages_next)
            return
        if not stages_next:
            family.done = True
            self._journal(family)
            return
        next_stop = min(next_start + policy.wave, policy.max_replicates)
        rows = None if family.grid is None else tuple(active)
        self._stage_wave(family, next_start, next_stop, rows)

    def _verify_replayed(
        self,
        family: AdaptiveFamily,
        wave: AdaptiveWave,
        active: list[int],
        stages_next: bool,
    ) -> None:
        """Check a replayed wave against the freshly computed decision.

        On resume the next wave is already staged from the journal;
        instead of staging we verify the journaled decision is the one
        the live algorithm would take — a disagreement means the
        journal and the simulated data no longer describe the same run.
        """
        staged = family.waves[family.next_fold]
        expected_rows = None if family.grid is None else tuple(active)
        if not stages_next:
            raise ReproError(
                f"adaptive journal mismatch: family {family.label!r} is "
                f"complete after wave {wave.index} but the journal stages "
                f"wave {staged.index}"
            )
        expected_start = family.waves[family.next_fold - 1].stop
        expected_stop = min(
            expected_start + self.policy.wave, self.policy.max_replicates
        )
        if (
            staged.start != expected_start
            or staged.stop != expected_stop
            or staged.rows != expected_rows
        ):
            raise ReproError(
                f"adaptive journal mismatch: family {family.label!r} wave "
                f"{staged.index} was journaled as replicates "
                f"{staged.start}..{staged.stop - 1} over rows "
                f"{list(staged.rows) if staged.rows is not None else 'all'}, "
                f"but the resumed data derives replicates "
                f"{expected_start}..{expected_stop - 1} over rows "
                f"{list(expected_rows) if expected_rows is not None else 'all'}"
            )

    # -- journaling and reporting --------------------------------------------

    def _journal(self, family: AdaptiveFamily) -> None:
        entry = self.journal["families"][family.label]
        entry["converged"] = {
            str(r): family.converged[r] for r in sorted(family.converged)
        }
        entry["summary"] = family.summary()
        if self.recorder is not None:
            self.recorder.record_adaptive(self.journal)

    def attach_recorder(self, recorder) -> None:
        """Journal through ``recorder`` from now on (and write once)."""
        self.recorder = recorder
        if recorder is not None:
            recorder.record_adaptive(self.journal)

    @property
    def n_members(self) -> int:
        return sum(len(family.members) for family in self.families)

    def summary(self) -> dict:
        """Run-wide counters (the benchmark's reduction metric)."""
        totals = {
            "n_rows": 0,
            "rows_converged": 0,
            "rows_staged": 0,
            "fixed_rows": 0,
            "saved_rows": 0,
        }
        for family in self.families:
            for key, value in family.summary().items():
                totals[key] += value
        return totals

    def finalize(self) -> None:
        """Emit the per-family savings report (``--progress``)."""
        for family in self.families:
            if not family.done:
                raise ReproError(
                    f"adaptive family {family.label!r} did not complete; "
                    "the pipeline resolve loop exited early"
                )
        if self.progress:
            for family in self.families:
                s = family.summary()
                saved = (
                    100.0 * s["saved_rows"] / s["fixed_rows"]
                    if s["fixed_rows"]
                    else 0.0
                )
                print(
                    f"[adaptive] {family.label}: "
                    f"{s['rows_converged']}/{s['n_rows']} rows converged, "
                    f"{s['rows_staged']}/{s['fixed_rows']} member-rows "
                    f"simulated ({s['saved_rows']} saved, {saved:.1f}%)",
                    file=self.stream,
                )
