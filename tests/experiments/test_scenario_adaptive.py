"""Adaptive replicate scheduling: convergence, determinism, resume.

The acceptance contract of the adaptive engine: an adaptive scenario
report is **byte-identical** across serial and pooled execution
(pinned against ``goldens/scenario_fig5_adaptive_bands.txt``), a
run killed mid-flight resumes to the identical output with zero
recomputation, re-deriving its stopping decisions from cached data —
and the fixed path (no ``--adaptive``) stays byte-identical to the PR 5
goldens, which ``test_scenario_lab`` pins.
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
    band_tables,
    load_scenario_toml,
    relative_width,
    split_replicates,
)
from repro.experiments.scenarios.adaptive import _adaptive_notes
from repro.experiments.scenarios.transforms import Jitter
from repro.experiments.spec import StagedStudy
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
        assert policy.band_tol == 0.05

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
        notes = _adaptive_notes(
            AdaptivePolicy(),
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


# -- CLI: golden, determinism, the file's policy ------------------------------


class TestAdaptiveCli:
    def test_report_byte_identical_across_executors(self, tmp_path, capsys):
        golden = GOLDEN.read_text()
        cache = str(tmp_path / "cache")
        modes = (
            [],                                      # serial, cold cache
            ["--jobs", "2"],                         # pooled, warm cache
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

    def test_adaptive_flag_runs_the_file_policy(self, tmp_path, capsys):
        """``--adaptive`` switches on a dormant ``[adaptive]`` table: the
        file is the policy's one source."""
        scenario = _with_adaptive_table(
            tmp_path, "enabled = false\nband_tol = 0.2\n"
        )
        assert main(
            ["scenario", "report", str(scenario), "--adaptive", *FAST_ARGS]
        ) == 0
        out = capsys.readouterr().out
        assert "(band tol 0.2, 2 stable waves)" in out
        assert "band tol 0.05" not in out

    def test_invalid_policy_exits_cleanly(self, tmp_path):
        scenario = _with_adaptive_table(tmp_path, "min_replicates = 0\n")
        with pytest.raises(SystemExit, match="min replicates"):
            main(["scenario", "report", str(scenario), "--adaptive", *FAST_ARGS])


# -- crash -> resume: re-derived decisions, zero duplicate work -------------


def _with_adaptive_table(tmp_path, table: str) -> Path:
    """A copy of the example scenario file with an ``[adaptive]`` table."""
    path = tmp_path / "scenario.toml"
    path.write_text(EXAMPLE.read_text() + "\n[adaptive]\n" + table)
    return path


def _manifest(runs_dir, run_id) -> dict:
    return json.loads((runs_dir / run_id / "manifest.json").read_text())


class TestAdaptiveResume:
    def _args(self, tmp_path, run_id="a1"):
        return [
            "scenario", "report", str(EXAMPLE), "--adaptive", *FAST_ARGS,
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
            "--run-id", run_id,
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("crash_after", [40, 200, 500])
    def test_crash_resume_rederives_decisions(
        self, tmp_path, capsys, crash_after, jobs
    ):
        args = self._args(tmp_path) + ["--jobs", jobs]
        assert main(
            args + ["--fault-plan", f"crash-after={crash_after}"]
        ) == CRASH_EXIT_CODE
        journaled = _manifest(tmp_path / "runs", "a1")
        assert journaled["status"] == "running"
        assert capsys.readouterr().out == ""  # no family finished

        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        manifest = _manifest(tmp_path / "runs", "a1")
        assert manifest["status"] == "complete"
        assert "adaptive" not in manifest  # the fate journal is the one journal
        # Zero duplicate work: every point computed before the crash is
        # reused, whichever wave staged it.
        assert manifest["recomputed"] == 0
        computed = [k for k, fate in journaled["fates"].items() if fate == "computed"]
        assert manifest["reused"] == len(computed)
        # No journaled key is reported stale that the round later serves.
        assert (f"[resume] {len(journaled['fates'])} reusable from cache, "
                "0 invalidated (corrupt), 0 missing, 0 stale") in captured.err
        # The resumed output is byte-identical to an uninterrupted run.
        assert captured.out == GOLDEN.read_text()

    def test_policy_change_on_resume_refuses(self, tmp_path, capsys):
        """Editing the ``[adaptive]`` table between crash and resume."""
        scenario = _with_adaptive_table(tmp_path, "band_tol = 0.05\n")
        args = self._args(tmp_path)
        args[args.index(str(EXAMPLE))] = str(scenario)
        assert main(args + ["--fault-plan", "crash-after=40"]) \
            == CRASH_EXIT_CODE
        capsys.readouterr()
        _with_adaptive_table(tmp_path, "band_tol = 0.2\n")
        with pytest.raises(SystemExit, match=f"{scenario}: changed since run"):
            main(args + ["--resume"])

    def _crash_late(self, tmp_path, capsys) -> list[str]:
        """Crash past wave 0; return the journaled keys of later waves."""
        trace = tmp_path / "crash.jsonl"
        assert main(
            self._args(tmp_path)
            + ["--fault-plan", "crash-after=500", "--trace-file", str(trace)]
        ) == CRASH_EXIT_CODE
        capsys.readouterr()
        def replicate(study: str) -> int:
            tail = study.rpartition("rep")[2]
            return int(tail) if tail.isdigit() else 0

        keys = [  # wave 0 stages replicates 0..2 (min_replicates = 3)
            event["key"]
            for event in map(json.loads, trace.read_text().splitlines())
            if event["ev"] == "point" and event["status"] == "computed"
            and replicate(event["study"]) >= 3
        ]
        assert keys, "crash point must land past wave 0"
        return keys

    def test_later_wave_entries_are_verified_on_resume(self, tmp_path, capsys):
        """A damaged entry of a wave the resume stages later is caught
        when that wave is staged: rewritten, not served."""
        key = self._crash_late(tmp_path, capsys)[0]
        entry = tmp_path / "cache" / f"{key}.npz"
        entry.write_bytes(entry.read_bytes()[:40])  # truncated
        assert main(self._args(tmp_path) + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN.read_text()
        manifest = _manifest(tmp_path / "runs", "a1")
        assert manifest["recomputed"] == 1
        assert "499 reusable from cache, 1 invalidated (corrupt), 0 missing, " \
            "0 stale" in captured.err
        from repro.sim.plan import ResultCache

        assert ResultCache(tmp_path / "cache").verify_entry(key) == (True, "ok")

    def test_a_127_manifest_with_its_adaptive_journal_resumes(
        self, tmp_path, capsys
    ):
        """Manifests written by 1.27 carry the retired adaptive journal
        (this one was captured at crash-after=500) and no input digest:
        they resume unchecked, and the next rewrite drops the key."""
        self._crash_late(tmp_path, capsys)
        path = tmp_path / "runs" / "a1" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["inputs"]
        manifest["adaptive"] = JOURNAL_127
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        assert main(self._args(tmp_path) + ["--resume"]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()
        resumed = _manifest(tmp_path / "runs", "a1")
        assert resumed["recomputed"] == 0 and resumed["status"] == "complete"
        assert "adaptive" not in resumed and "inputs" not in resumed

    def test_resume_tallies_reconcile(self, tmp_path, capsys):
        """The trace's ``resume_validate``, the printed ``[resume]`` line
        and the manifest's metrics snapshot count the same fates."""
        from repro.obs.trace import load_trace

        self._crash_late(tmp_path, capsys)
        trace = tmp_path / "resume.jsonl"
        assert main(
            self._args(tmp_path) + ["--resume", "--trace-file", str(trace)]
        ) == 0
        err = capsys.readouterr().err
        (event,) = [e for e in load_trace(trace) if e["ev"] == "resume_validate"]
        assert (f"[resume] {event['reused']} reusable from cache, "
                f"{event['invalidated']} invalidated (corrupt), "
                f"{event['missing']} missing, {event['stale']} stale") in err
        snapshot = {
            row["labels"]["outcome"]: row["value"]
            for row in _manifest(tmp_path / "runs", "a1")["metrics"]["metrics"]
            if row["name"] == "resume_points"
        }
        assert snapshot == {"reusable": event["reused"],
                            "reused": event["reused"]}
        validate = [e for e in load_trace(trace)
                    if e["ev"] == "span_end" and e.get("name") == "validate"]
        assert sum(e.get("points", 0) for e in validate) == event["reused"]

    def test_a_journaled_run_rewrites_its_manifest_at_most_three_times(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.sim.manifest import RunRecorder

        writes: list[int] = []
        real_write = RunRecorder.write
        monkeypatch.setattr(
            RunRecorder, "write", lambda self: (writes.append(1), real_write(self))
        )
        assert main(self._args(tmp_path)) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()
        assert 1 <= len(writes) <= 3  # create, finish, close


#: The ``adaptive`` key of a 1.27 manifest, captured from a run of the
#: example scenario crashed at crash-after=500.
JOURNAL_127 = {
    "families": {
        "fig5_jitter[Hera]": {
            "converged": {},
            "summary": {"fixed_rows": 216, "n_rows": 9, "rows_converged": 0,
                        "rows_staged": 90, "saved_rows": 126},
            "waves": [{"rows": None, "start": 0, "stop": 3},
                      {"rows": list(range(9)), "start": 3, "stop": 5}],
        }
    },
    "policy": {"band_tol": 0.05, "max_replicates": 12, "min_replicates": 3,
               "stable_waves": 2, "wave": 2},
}


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

    def _pipeline(self, executor):
        from repro.experiments.pipeline import SimulationPipeline

        return SimulationPipeline(executor=executor)

    def _settings(self):
        from repro.experiments.common import SimSettings
        from repro.sim.montecarlo import Fidelity

        return SimSettings(fidelity=Fidelity(n_runs=3, n_patterns=4))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fixed_families_match_a_full_rescan(self, seed, shuffled_executor):
        from repro.experiments.registry import REGISTRY

        sset = ScenarioSet("tiny", REGISTRY["fig5"], [Resample(3)])
        flips = []
        with self._pipeline(shuffled_executor(seed)) as pipe:
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
    def test_adaptive_waves_staged_mid_round_match_a_full_rescan(
        self, seed, shuffled_executor
    ):
        from repro.experiments.registry import REGISTRY
        from repro.experiments.scenarios import AdaptiveRun

        policy = AdaptivePolicy(min_replicates=2, max_replicates=4, wave=1,
                                band_tol=1e-12, stable_waves=3)
        sset = ScenarioSet("tiny", REGISTRY["fig5"], [Resample(4)])
        probes = 0
        with self._pipeline(shuffled_executor(seed)) as pipe:
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
