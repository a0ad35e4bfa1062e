"""Adaptive replicate scheduling: convergence, determinism, resume.

The acceptance contract of the adaptive engine: an adaptive scenario
report is **byte-identical** across serial, pooled and scheduled
execution (pinned against ``goldens/scenario_fig5_adaptive_bands.txt``),
``run --out`` followed by ``aggregate`` reproduces the exact band
tables from disk, a run killed mid-flight resumes to the identical
output with zero recomputation and the journaled stopping decisions
reused — and the fixed path (no ``--adaptive``) stays byte-identical
to the PR 5 goldens, which ``test_scenario_lab`` pins.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, ReproError
from repro.experiments.common import FigureResult
from repro.experiments.pipeline import Deferred
from repro.experiments.runner import main
from repro.experiments.scenarios import (
    AdaptivePolicy,
    BandSpec,
    FamilyAccumulator,
    Resample,
    ScenarioSet,
    adaptive_notes,
    band_tables,
    load_member_results,
    load_scenario_toml,
    relative_width,
    split_replicates,
    aggregate_results,
)
from repro.experiments.scenarios.transforms import Jitter
from repro.experiments.spec import StagedStudy
from repro.sim.executors import Executor, JobFuture
from repro.sim.faults import CRASH_EXIT_CODE

GOLDEN = Path(__file__).parent / "goldens" / "scenario_fig5_adaptive_bands.txt"
EXAMPLE = Path(__file__).parents[2] / "examples" / "scenario_jitter.toml"

#: Reduced budget matching the adaptive golden.
FAST_ARGS = ["--runs", "4", "--patterns", "6"]


# -- policy validation -------------------------------------------------------


class TestAdaptivePolicy:
    def test_defaults_are_valid(self):
        policy = AdaptivePolicy()
        assert policy.min_replicates <= policy.max_replicates
        assert policy.to_dict()["band_tol"] == 0.05

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="min replicates"):
            AdaptivePolicy(min_replicates=0)
        with pytest.raises(InvalidParameterError, match="max replicates"):
            AdaptivePolicy(min_replicates=5, max_replicates=4)
        with pytest.raises(InvalidParameterError, match="wave size"):
            AdaptivePolicy(wave=0)
        with pytest.raises(InvalidParameterError, match="band tolerance"):
            AdaptivePolicy(band_tol=0.0)
        with pytest.raises(InvalidParameterError, match="stable waves"):
            AdaptivePolicy(stable_waves=0)

    def test_split_replicates(self):
        rest, count = split_replicates(
            (Jitter(axis="alpha", width=0.1), Resample(7))
        )
        assert count == 7
        assert all(not isinstance(t, Resample) for t in rest)
        rest, count = split_replicates((Jitter(axis="alpha", width=0.1),))
        assert count == 1
        with pytest.raises(InvalidParameterError, match="at most one resample"):
            split_replicates((Resample(2), Resample(3)))


# -- the convergence quantity ------------------------------------------------


class TestRelativeWidth:
    BAND = BandSpec(q_lo=0.0, q_hi=1.0)

    def test_plain_relative_width(self):
        # band [10, 30] around median 20 -> (30-10)/20.
        assert relative_width([10.0, 20.0, 30.0], self.BAND) == pytest.approx(1.0)

    def test_no_finite_values_is_trivially_converged(self):
        assert relative_width([], self.BAND) == 0.0
        assert relative_width([None, None], self.BAND) == 0.0
        assert relative_width([float("nan")], self.BAND) == 0.0

    def test_zero_median_falls_back_to_absolute_spread(self):
        assert relative_width([-1.0, 0.0, 1.0], self.BAND) == pytest.approx(2.0)
        assert relative_width([0.0, 0.0], self.BAND) == 0.0

    def test_non_finite_members_are_dropped(self):
        clean = relative_width([10.0, 20.0, 30.0], self.BAND)
        assert relative_width(
            [10.0, float("nan"), 20.0, float("inf"), 30.0], self.BAND
        ) == pytest.approx(clean)


# -- consistency score -------------------------------------------------------


def _table(values, columns=("x", "sc1_optimal")):
    return FigureResult(
        figure_id="t", title="T", columns=columns,
        rows=tuple((float(i), v) for i, v in enumerate(values)),
    )


class TestConsistencyScore:
    def test_off_by_default_on_by_request(self):
        members = [[_table([100.0, 50.0])], [_table([100.0, 80.0])]]
        (plain,) = band_tables(members, BandSpec(), panel_columns=(("P_num",),))
        assert "consistency" not in plain.columns
        (scored,) = band_tables(
            members, BandSpec(consistency=True), panel_columns=(("P_num",),)
        )
        assert scored.columns[-1] == "consistency"
        assert scored.rows[0][-1] == 1.0   # both members at 100: full agreement
        assert scored.rows[1][-1] == 0.5   # 80 vs base 50: 1 of 2 agree
        assert any("consistency" in n for n in scored.notes)

    def test_validity_flip_scores_against_base(self):
        members = [[_table([100.0])], [_table([None])], [_table([101.0])]]
        (scored,) = band_tables(
            members, BandSpec(consistency=True, flip_tolerance=0.05),
            panel_columns=(("P_num",),),
        )
        # base + the 101 member agree; the None member does not.
        assert scored.rows[0][-1] == pytest.approx(2 / 3)


# -- the incremental accumulator ---------------------------------------------


class TestFamilyAccumulator:
    @pytest.mark.parametrize("consistency", [False, True])
    def test_full_coverage_matches_band_tables(self, consistency):
        members = [
            [_table([10.0, 1.0])], [_table([20.0, 2.0])], [_table([30.0, 4.0])]
        ]
        band = BandSpec(q_lo=0.0, q_hi=1.0, consistency=consistency)
        (expected,) = band_tables(members, band, panel_columns=(("P_num",),))
        accum = FamilyAccumulator(band, panel_columns=(("P_num",),))
        for tables in members:
            accum.add_member(tables)
        (got,) = accum.finish()
        # Same band triplets, flags and scores per row: the layout
        # switch is the constructor's, not the band's.  The adaptive
        # layout adds the per-row coverage column at the end and names
        # it in the first note; the fixed layout has neither.
        assert ("consistency" in expected.columns) is consistency
        assert "n_members" not in expected.columns
        assert got.columns == expected.columns + ("n_members",)
        for row, exp in zip(got.rows, expected.rows):
            assert row[:-1] == exp
            assert row[-1] == 3
        assert got.notes[0] == expected.notes[0].replace(
            "quantiles)", "quantiles; per-row coverage in n_members)"
        )
        assert got.notes[1:] == expected.notes[1:]
        assert (got.figure_id, got.title) == (expected.figure_id, expected.title)

    def test_fixed_family_refuses_partial_members(self):
        accum = FamilyAccumulator(fixed=True)
        accum.add_member([_table([1.0, 2.0])])
        with pytest.raises(InvalidParameterError, match="fixed family"):
            accum.add_member([_table([1.0])], rows=(1,))

    def test_partial_rows_band_over_their_own_cloud(self):
        accum = FamilyAccumulator(BandSpec(q_lo=0.0, q_hi=1.0))
        accum.add_member([_table([10.0, 1.0])])
        accum.add_member([_table([20.0, 3.0])])
        # A converged row 0: the third member only covers row 1.
        accum.add_member([_table([5.0])], rows=(1,))
        assert accum.coverage(0) == 2 and accum.coverage(1) == 3
        (got,) = accum.finish()
        assert got.rows[0][1:4] == (15.0, 10.0, 20.0)  # two members
        assert got.rows[1][1:4] == (3.0, 1.0, 5.0)     # three members
        assert got.rows[0][-1] == 2 and got.rows[1][-1] == 3

    def test_row_width_is_the_worst_cell(self):
        accum = FamilyAccumulator(BandSpec(q_lo=0.0, q_hi=1.0))
        accum.add_member([_table([10.0, 100.0])])
        accum.add_member([_table([30.0, 101.0])])
        assert accum.row_width(0) == pytest.approx(20.0 / 20.0)
        assert accum.row_width(1) == pytest.approx(1.0 / 100.5)

    def test_first_member_must_cover_the_full_grid(self):
        accum = FamilyAccumulator()
        with pytest.raises(InvalidParameterError, match="full grid"):
            accum.add_member([_table([1.0])], rows=(0,))

    def test_rows_outside_the_grid_rejected(self):
        accum = FamilyAccumulator()
        accum.add_member([_table([1.0, 2.0])])
        with pytest.raises(InvalidParameterError, match="outside"):
            accum.add_member([_table([1.0])], rows=(5,))

    def test_shape_mismatch_rejected(self):
        accum = FamilyAccumulator()
        accum.add_member([_table([1.0, 2.0])])
        with pytest.raises(InvalidParameterError, match="disagree in shape"):
            accum.add_member([_table([1.0])], rows=(0, 1))

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidParameterError, match="empty family"):
            FamilyAccumulator().finish()

    def test_adaptive_notes_shape(self):
        notes = adaptive_notes(
            AdaptivePolicy().to_dict(),
            {"n_rows": 9, "rows_converged": 9, "rows_staged": 130,
             "fixed_rows": 216, "saved_rows": 86},
        )
        assert notes == (
            "adaptive replicates: 3..12 in waves of 2 "
            "(band tol 0.05, 2 stable waves)",
            "converged 9/9 grid rows; simulated 130 member-rows of 216 "
            "fixed-path equivalent (86 saved)",
        )


# -- TOML [adaptive] table ---------------------------------------------------


class TestAdaptiveToml:
    def _load(self, tmp_path, text):
        path = tmp_path / "scenario.toml"
        path.write_text(text)
        return load_scenario_toml(path)

    BASE = '[scenario]\nstudy = "fig5"\nreplicates = 2\n'

    def test_table_enables_and_overrides(self, tmp_path):
        sset = self._load(
            tmp_path,
            self.BASE + "[adaptive]\nmin_replicates = 2\nband_tol = 0.1\n",
        )
        assert sset.adaptive_enabled
        assert sset.adaptive.min_replicates == 2
        assert sset.adaptive.band_tol == 0.1
        assert sset.adaptive.wave == AdaptivePolicy().wave  # default kept

    def test_enabled_false_keeps_the_policy_dormant(self, tmp_path):
        sset = self._load(
            tmp_path, self.BASE + "[adaptive]\nenabled = false\nwave = 3\n"
        )
        assert not sset.adaptive_enabled
        assert sset.adaptive.wave == 3  # --adaptive on the CLI picks it up

    def test_no_table_means_fixed_path(self, tmp_path):
        sset = self._load(tmp_path, self.BASE)
        assert not sset.adaptive_enabled and sset.adaptive is None

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="unknown keys"):
            self._load(tmp_path, self.BASE + "[adaptive]\nwaves = 2\n")

    def test_invalid_policy_carries_the_path(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="scenario.toml"):
            self._load(tmp_path, self.BASE + "[adaptive]\nmin_replicates = 0\n")


# -- CLI: golden, determinism, aggregate round trips -------------------------


class TestAdaptiveCli:
    def test_report_byte_identical_across_executors(self, tmp_path, capsys):
        golden = GOLDEN.read_text()
        cache = str(tmp_path / "cache")
        modes = (
            [],                                      # serial, cold cache
            ["--jobs", "2"],                         # pooled, warm cache
            ["--jobs", "2", "--max-inflight", "8"],  # scheduled window
        )
        for extra in modes:
            assert main(
                ["scenario", "report", str(EXAMPLE), "--adaptive", *FAST_ARGS,
                 "--cache-dir", cache, *extra]
            ) == 0
            out = capsys.readouterr().out
            assert out == golden, f"adaptive report diverged with {extra}"

    def test_progress_reports_waves_and_savings(self, tmp_path, capsys):
        assert main(
            ["scenario", "report", str(EXAMPLE), "--adaptive", *FAST_ARGS,
             "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "[adaptive] fig5_jitter[Hera]: wave 0 stages replicates 0..2" \
            in err
        assert "rows converged" in err
        assert "member-rows simulated" in err

    def test_run_then_aggregate_matches_report(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(
            ["scenario", "run", str(EXAMPLE), "--adaptive", *FAST_ARGS,
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["scenario", "aggregate", str(out)]) == 0
        aggregated = capsys.readouterr().out
        # The adaptive golden is the report output; aggregate re-derives
        # the identical ragged bands from the member files on disk.
        assert aggregated.strip() in GOLDEN.read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["adaptive"]["policy"] == AdaptivePolicy().to_dict()
        summary = manifest["adaptive"]["families"]["fig5_jitter[Hera]"]
        assert summary["summary"]["rows_converged"] == 9

    def test_member_files_carry_their_rows(self, tmp_path):
        out = tmp_path / "results"
        assert main(
            ["scenario", "run", str(EXAMPLE), "--adaptive", *FAST_ARGS,
             "--out", str(out)]
        ) == 0
        manifest, families = load_member_results(out)
        (family,) = families
        rows = [m.get("rows") for m in family["members"]]
        assert rows[0] is None          # wave 0 covers the full grid
        assert any(r is not None for r in rows)  # later waves restrict

    def test_format_json_round_trips(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(
            ["scenario", "run", str(EXAMPLE), "--adaptive", *FAST_ARGS,
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["scenario", "aggregate", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        manifest, families = load_member_results(out)
        expected = aggregate_results(manifest, families)
        assert len(payload) == len(expected)
        for doc, result in zip(payload, expected):
            rebuilt = FigureResult(
                figure_id=doc["figure_id"], title=doc["title"],
                columns=tuple(doc["columns"]),
                rows=tuple(tuple(row) for row in doc["rows"]),
                notes=tuple(doc["notes"]),
            )
            assert rebuilt == result  # floats round-trip exactly via JSON

    def test_format_csv_is_tidy(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(
            ["scenario", "run", str(EXAMPLE), "--runs", "2", "--patterns", "2",
             "--no-sim", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["scenario", "aggregate", str(out), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "figure,row,column,value"
        manifest, families = load_member_results(out)
        results = aggregate_results(manifest, families)
        cells = sum(len(r.rows) * (len(r.columns) - 1) for r in results)
        assert len(lines) == 1 + cells

    def test_adaptive_flags_require_adaptive_mode(self):
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["scenario", "report", str(EXAMPLE), *FAST_ARGS,
                  "--band-tol", "0.1"])

    def test_invalid_policy_exits_cleanly(self):
        with pytest.raises(SystemExit, match="min replicates"):
            main(["scenario", "report", str(EXAMPLE), "--adaptive", *FAST_ARGS,
                  "--min-replicates", "0"])


# -- crash -> resume: replayed decisions, zero duplicate work ----------------


def _manifest(runs_dir, run_id) -> dict:
    return json.loads((runs_dir / run_id / "manifest.json").read_text())


def _out_snapshot(out: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(out.glob("*.json"))}


class TestAdaptiveResume:
    def _args(self, tmp_path, out, run_id="a1"):
        return [
            "scenario", "run", str(EXAMPLE), "--adaptive", *FAST_ARGS,
            "--out", str(out),
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
            "--run-id", run_id,
        ]

    @pytest.mark.parametrize("crash_after", [40, 500])
    def test_crash_resume_replays_journaled_decisions(
        self, tmp_path, capsys, crash_after
    ):
        # Uninterrupted reference run (separate cache: no cross-talk).
        reference = tmp_path / "ref"
        assert main(
            ["scenario", "run", str(EXAMPLE), "--adaptive", *FAST_ARGS,
             "--out", str(reference),
             "--cache-dir", str(tmp_path / "refcache")]
        ) == 0
        capsys.readouterr()

        out = tmp_path / "out"
        args = self._args(tmp_path, out)
        assert main(
            args + ["--fault-plan", f"crash-after={crash_after}"]
        ) == CRASH_EXIT_CODE
        journaled = _manifest(tmp_path / "runs", "a1")
        assert journaled["status"] == "running"
        assert journaled["adaptive"]["policy"] == AdaptivePolicy().to_dict()
        capsys.readouterr()

        assert main(args + ["--resume"]) == 0
        capsys.readouterr()
        manifest = _manifest(tmp_path / "runs", "a1")
        assert manifest["status"] == "complete"
        # Zero duplicate work: every point computed before the crash is
        # reused, and the journaled stopping decisions are replayed.
        assert manifest["recomputed"] == 0
        assert manifest["reused"] == len(
            [k for k, fate in journaled["fates"].items() if fate == "computed"]
        )
        family = manifest["adaptive"]["families"]["fig5_jitter[Hera]"]
        assert family["summary"]["rows_converged"] == family["summary"]["n_rows"]
        # Journaled waves survive the resume as a strict prefix.
        pre_crash = journaled["adaptive"]["families"]["fig5_jitter[Hera]"]
        assert family["waves"][: len(pre_crash["waves"])] == pre_crash["waves"]
        # The resumed output is byte-identical to the uninterrupted run.
        assert _out_snapshot(out) == _out_snapshot(reference)

    def test_policy_change_on_resume_refuses(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = self._args(tmp_path, out)
        assert main(args + ["--fault-plan", "crash-after=40"]) \
            == CRASH_EXIT_CODE
        capsys.readouterr()
        with pytest.raises(SystemExit, match="adaptive journal mismatch"):
            main(args + ["--resume", "--band-tol", "0.2"])

    def test_tampered_journal_refuses(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = self._args(tmp_path, out)
        assert main(args + ["--fault-plan", "crash-after=500"]) \
            == CRASH_EXIT_CODE
        capsys.readouterr()
        path = tmp_path / "runs" / "a1" / "manifest.json"
        manifest = json.loads(path.read_text())
        waves = manifest["adaptive"]["families"]["fig5_jitter[Hera]"]["waves"]
        assert len(waves) > 1, "crash point must land past wave 0"
        waves[-1]["rows"] = [0]  # not the decision the data derives
        path.write_text(json.dumps(manifest))
        # Detected mid-resolve, once the replayed wave folds: the data
        # and the journal no longer describe the same run.
        with pytest.raises(ReproError, match="adaptive journal mismatch"):
            main(args + ["--resume"])


# -- engine-level invariants -------------------------------------------------


class TestAdaptiveEngine:
    def _run(self, policy, **kwargs):
        from repro.experiments.common import SimSettings
        from repro.experiments.pipeline import SimulationPipeline
        from repro.experiments.registry import REGISTRY
        from repro.experiments.scenarios import AdaptiveRun
        from repro.sim.montecarlo import Fidelity

        sset = ScenarioSet("tiny", REGISTRY["fig5"], [Resample(4)], **kwargs)
        settings = SimSettings(fidelity=Fidelity(n_runs=4, n_patterns=6))
        with SimulationPipeline(jobs=1) as pipe:
            run = AdaptiveRun(sset, policy, pipe, settings)
            run.stage_initial()
            pipe.resolve(on_event=run.on_event, on_round=run.on_round)
            run.finalize()
        return run

    def test_max_replicates_caps_the_waves(self):
        # A tolerance nothing satisfies: every row runs to the cap.
        policy = AdaptivePolicy(
            min_replicates=2, max_replicates=4, wave=1, band_tol=1e-12,
            stable_waves=3,
        )
        run = self._run(policy)
        (family,) = run.families
        assert family.waves[-1].stop == 4
        assert family.summary()["rows_staged"] \
            == family.summary()["fixed_rows"]
        assert family.summary()["rows_converged"] == 0

    def test_wave_members_reuse_fixed_path_seeds(self):
        from repro.experiments.scenarios import replicate_seed

        policy = AdaptivePolicy(min_replicates=2, max_replicates=3, wave=1,
                                band_tol=1e9, stable_waves=1)
        run = self._run(policy)
        (family,) = run.families
        members = family.members
        assert members[0].variant.seed is None  # replicate 0: master seed
        assert members[1].variant.seed \
            == replicate_seed(run.sset.master_seed, 1)
        # band_tol=1e9 converges everything at the first delta: wave 1
        # is the last, and every row stopped there.
        assert set(family.converged.values()) == {1}


# -- incremental emit readiness ----------------------------------------------


def _scan_ready(obj) -> bool:
    """Reference probe: rescan the whole state, as ready() once did."""
    if isinstance(obj, Deferred):
        return obj.ready
    if isinstance(obj, (tuple, list)):
        return all(_scan_ready(v) for v in obj)
    if isinstance(obj, dict):
        return all(_scan_ready(v) for v in obj.values())
    return True


class _ShuffledExecutor(Executor):
    """Completes submitted jobs in seeded random order."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._waiting: list[JobFuture] = []

    def submit(self, fn, item, tag=None):
        future = JobFuture(fn, item, tag)
        self._waiting.append(future)
        return future

    def next_completed(self):
        if not self._waiting:
            return None
        future = self._waiting.pop(int(self._rng.integers(len(self._waiting))))
        future._run_inline()
        return future

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestIncrementalReadiness:
    @pytest.mark.parametrize("seed", range(4))
    def test_staged_study_flips_exactly_on_the_last_deferred(self, seed):
        values = [Deferred() for _ in range(10)]
        state = {
            "rows": [values[0], (values[1], 2.5)],
            "panel": {"cells": values[2:6], "note": "x"},
            "tail": tuple(values[6:]),
        }
        study = StagedStudy(ctx=None, state=state, n_pending=len(values))
        order = np.random.default_rng(seed).permutation(len(values))
        for step, index in enumerate(order):
            assert not study.ready()
            values[index]._set(float(index))
            assert study.ready() == _scan_ready(state) == (step == len(values) - 1)
        assert study.ready()

    def test_a_state_without_deferreds_is_ready(self):
        assert StagedStudy(ctx=None, state={"rows": [(1.0, "a")]}, n_pending=0).ready()

    def _pipeline(self, seed):
        from repro.experiments.pipeline import SimulationPipeline

        return SimulationPipeline(executor=_ShuffledExecutor(seed), max_inflight=4)

    def _settings(self):
        from repro.experiments.common import SimSettings
        from repro.sim.montecarlo import Fidelity

        return SimSettings(fidelity=Fidelity(n_runs=3, n_patterns=4))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fixed_families_match_a_full_rescan(self, seed):
        from repro.experiments.registry import REGISTRY

        sset = ScenarioSet("tiny", REGISTRY["fig5"], [Resample(3)])
        flips = []
        with self._pipeline(seed) as pipe:
            (family,) = sset.stage(pipe, self._settings())

            def on_event(event):
                for stage in family.staged:
                    assert stage.ready() == _scan_ready(stage.state)
                expected = all(_scan_ready(s.state) for s in family.staged)
                assert family.ready() == expected
                flips.append(expected)

            pipe.resolve(on_event=on_event)
        # Ready exactly once the last point landed, never before.
        assert flips[-1] and not any(flips[:-1])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_adaptive_waves_staged_mid_round_match_a_full_rescan(self, seed):
        from repro.experiments.registry import REGISTRY
        from repro.experiments.scenarios import AdaptiveRun

        policy = AdaptivePolicy(min_replicates=2, max_replicates=4, wave=1,
                                band_tol=1e-12, stable_waves=3)
        sset = ScenarioSet("tiny", REGISTRY["fig5"], [Resample(4)])
        probes = 0
        with self._pipeline(seed) as pipe:
            run = AdaptiveRun(sset, policy, pipe, self._settings())
            run.stage_initial()

            def on_event(event):
                nonlocal probes
                for family in run.families:
                    for wave in family.waves:
                        for stage in wave.staged:
                            assert stage.ready() == _scan_ready(stage.state)
                        assert wave.ready() == all(
                            _scan_ready(s.state) for s in wave.staged
                        )
                        probes += 1
                run.on_event(event)

            pipe.resolve(on_event=on_event, on_round=run.on_round)
            run.finalize()
        (family,) = run.families
        assert len(family.waves) == 3  # waves 1 and 2 were staged mid-round
        assert all(wave.ready() for wave in family.waves) and probes
