"""Durable runs end to end: crash, resume, byte-identity, invalidation.

The acceptance contract of the durable-run subsystem: a run killed
mid-flight and resumed produces **byte-identical stdout** to an
uninterrupted run, with **zero duplicate computations** journaled in
its manifest; a ``BACKEND_VERSION`` bump invalidates (and recomputes)
exactly the affected keys.  Everything here drives the real CLI
(``main``) — the same entry points the ``resume-smoke`` CI job uses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.sim.manifest as manifest_mod
import repro.sim.plan as plan_mod
from repro.experiments.runner import main
from repro.sim.faults import CRASH_EXIT_CODE
from repro.sim.manifest import FATES_LOG_NAME, RunRecorder

#: Tiny but non-trivial fidelity: enough points for a mid-run crash.
FAST_ARGS = ["--runs", "4", "--patterns", "3"]


def _strip_volatile(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith(("[done in", "[cache]"))
    )


def _manifest(runs_dir, run_id) -> dict:
    return json.loads((runs_dir / run_id / "manifest.json").read_text())


def _run_files(tmp_path, run_id="r1") -> list[str]:
    return sorted(p.name for p in (tmp_path / "runs" / run_id).iterdir())


def _run_args(tmp_path, run_id="r1"):
    return [
        "fig5", *FAST_ARGS,
        "--cache-dir", str(tmp_path / "cache"),
        "--runs-dir", str(tmp_path / "runs"),
        "--run-id", run_id,
    ]


class TestCrashResume:
    def test_killed_run_resumes_byte_identical(self, tmp_path, capsys):
        # Golden: the same sweep uninterrupted, no journaling at all.
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)

        # Crash after 3 completions: the CLI dies with the dedicated code.
        assert main(_run_args(tmp_path) + ["--fault-plan", "crash-after=3"]) \
            == CRASH_EXIT_CODE
        capsys.readouterr()
        manifest = _manifest(tmp_path / "runs", "r1")
        assert manifest["status"] == "running"
        assert len(manifest["fates"]) == 3  # exactly the delivered prefix
        # The crash compacted the fate log into the checkpoint on exit.
        assert _run_files(tmp_path) == ["manifest.json"]

        # Resume through the dedicated command: replays the stored argv
        # (minus the one-shot fault plan) with --resume appended.
        assert main(
            ["resume", "r1", "--runs-dir", str(tmp_path / "runs")]
        ) == 0
        captured = capsys.readouterr()
        assert _strip_volatile(captured.out) == golden
        assert "[resume]" in captured.err
        manifest = _manifest(tmp_path / "runs", "r1")
        assert manifest["status"] == "complete"
        assert manifest["recomputed"] == 0  # zero duplicate computations
        assert manifest["reused"] == 3  # the crashed run's work, reused
        assert _run_files(tmp_path) == ["manifest.json"]

    def test_clean_second_resume_recomputes_nothing(self, tmp_path, capsys):
        assert main(_run_args(tmp_path)) == 0
        total = len(_manifest(tmp_path / "runs", "r1")["fates"])
        capsys.readouterr()
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)

        assert main(_run_args(tmp_path) + ["--resume"]) == 0
        assert _strip_volatile(capsys.readouterr().out) == golden
        manifest = _manifest(tmp_path / "runs", "r1")
        assert manifest["recomputed"] == 0
        assert manifest["reused"] == total  # every point cache-served
        assert manifest["resumes"] == 1

    def test_resume_command_execution_overrides(self, tmp_path, capsys):
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)
        assert main(_run_args(tmp_path) + ["--fault-plan", "crash-after=2"]) \
            == CRASH_EXIT_CODE
        capsys.readouterr()
        # Overriding parallelism on resume must not change the bytes —
        # the manifest's config hash ignores execution-only flags.
        assert main(
            ["resume", "r1", "--runs-dir", str(tmp_path / "runs"),
             "--jobs", "2"]
        ) == 0
        assert _strip_volatile(capsys.readouterr().out) == golden
        assert _manifest(tmp_path / "runs", "r1")["recomputed"] == 0

    def test_resumed_twice_stores_each_flag_once(self, tmp_path, capsys):
        """Each resume replaces the stored execution-only flags instead of
        appending to them, so the replayed argv does not grow."""
        runs = str(tmp_path / "runs")
        assert main(_run_args(tmp_path) + ["--fault-plan", "crash-after=2"]) \
            == CRASH_EXIT_CODE
        for jobs in ("2", "1"):
            assert main(["resume", "r1", "--runs-dir", runs, "--jobs", jobs]) == 0
        assert capsys.readouterr().err.count(f"--runs-dir {runs}") == 2
        argv = _manifest(tmp_path / "runs", "r1")["argv"]
        for flag in ("--runs-dir", "--jobs", "--resume", "--cache-dir", "--run-id"):
            assert argv.count(flag) == 1, argv
        assert argv[argv.index("--jobs") + 1] == "1"  # the latest override
        assert "--fault-plan" not in argv

    def test_corrupt_entry_is_invalidated_and_recomputed(self, tmp_path, capsys):
        assert main(_run_args(tmp_path)) == 0
        total = len(_manifest(tmp_path / "runs", "r1")["fates"])
        capsys.readouterr()
        # corrupt-entry truncates one cached npz before the round runs;
        # resume validation must invalidate exactly that key.
        assert main(
            _run_args(tmp_path) + ["--resume", "--fault-plan", "corrupt-entry=0"]
        ) == 0
        err = capsys.readouterr().err
        assert "1 invalidated (corrupt)" in err
        manifest = _manifest(tmp_path / "runs", "r1")
        assert manifest["reused"] == total - 1
        # The recomputed counter tracks *duplicate* work (computed on
        # top of a journaled computed fate) — rebuilding an invalidated
        # entry is that, and it is the only one.
        assert manifest["recomputed"] == 1


class TestHardKill:
    """A kill -9 skips every exit path: no compaction, only the fate log."""

    def _hard_killed(self, tmp_path, monkeypatch, crash_after=3):
        with monkeypatch.context() as patch:
            patch.setattr(RunRecorder, "close", lambda self: None)
            assert main(_run_args(tmp_path)
                        + ["--fault-plan", f"crash-after={crash_after}"]) \
                == CRASH_EXIT_CODE
        checkpoint = _manifest(tmp_path / "runs", "r1")
        assert checkpoint["status"] == "running"
        assert checkpoint["fates"] == {}  # nothing compacted since create
        return tmp_path / "runs" / "r1" / FATES_LOG_NAME

    def test_resumes_byte_identical_from_checkpoint_plus_log(
        self, tmp_path, capsys, monkeypatch
    ):
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)
        log = self._hard_killed(tmp_path, monkeypatch)
        assert len(log.read_text().splitlines()) == 3
        capsys.readouterr()
        assert main(["resume", "r1", "--runs-dir", str(tmp_path / "runs")]) == 0
        captured = capsys.readouterr()
        assert "3 reusable from cache" in captured.err
        assert _strip_volatile(captured.out) == golden
        manifest = _manifest(tmp_path / "runs", "r1")
        assert manifest["status"] == "complete"
        assert (manifest["reused"], manifest["recomputed"]) == (3, 0)
        assert _run_files(tmp_path) == ["manifest.json"]

    def test_torn_tail_is_not_trusted(self, tmp_path, capsys, monkeypatch):
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)
        log = self._hard_killed(tmp_path, monkeypatch)
        data = log.read_bytes()
        log.write_bytes(data[: len(data) - 6])  # tear the last line
        capsys.readouterr()
        assert main(_run_args(tmp_path) + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "2 reusable from cache" in captured.err
        assert _strip_volatile(captured.out) == golden
        manifest = _manifest(tmp_path / "runs", "r1")
        assert (manifest["reused"], manifest["recomputed"]) == (2, 0)


class TestPowerLoss:
    """Nothing is fsynced but the checkpoint: after a power loss a resume
    must serve only what verifies and recompute the rest."""

    #: entry damage -> what a power loss can leave of an unsynced file
    DAMAGE = {
        "empty": lambda path: path.write_bytes(b""),
        "short": lambda path: path.write_bytes(path.read_bytes()[:57]),
        "zeroed": lambda path: path.write_bytes(bytes(path.stat().st_size)),
        "deleted": lambda path: path.unlink(),
    }

    @pytest.mark.parametrize("journal", ["log", "checkpoint"])
    def test_lost_writes_recompute_to_the_golden(
        self, tmp_path, capsys, monkeypatch, journal
    ):
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)
        runs = tmp_path / "runs" / "r1"
        with monkeypatch.context() as patch:
            if journal == "log":  # a kill -9: no compaction, only the log
                patch.setattr(RunRecorder, "close", lambda self: None)
            assert main(_run_args(tmp_path) + ["--fault-plan", "crash-after=12"]) \
                == CRASH_EXIT_CODE
        capsys.readouterr()

        # 1. The newest 4 journaled fates are lost.
        if journal == "log":
            log = runs / FATES_LOG_NAME
            lines = log.read_text().splitlines(keepends=True)
            journaled = [json.loads(line)[0] for line in lines]
            log.write_text("".join(lines[:-4]))
        else:
            checkpoint = json.loads((runs / "manifest.json").read_text())
            journaled = sorted(checkpoint["fates"])
            for key in journaled[-4:]:
                del checkpoint["fates"][key]
            (runs / "manifest.json").write_text(json.dumps(checkpoint))
        assert len(journaled) == 12
        surviving, lost = journaled[:-4], journaled[-4:]

        # 2. Entries with a surviving fate and entries without one are
        #    damaged in every way an unsynced file can be.
        cache = plan_mod.ResultCache(tmp_path / "cache")
        damaged = dict(zip(surviving[:4], self.DAMAGE))
        damaged.update(zip(lost, self.DAMAGE))
        good = {key: cache._path(key).read_bytes() for key in damaged}
        for key, damage in damaged.items():
            self.DAMAGE[damage](cache._path(key))

        # 3. The resume recomputes every damaged entry, serves the rest.
        assert main(_run_args(tmp_path) + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert _strip_volatile(captured.out) == golden
        assert ("[resume] 4 reusable from cache, 3 invalidated (corrupt), "
                "1 missing, 0 stale") in captured.err
        fates = _manifest(tmp_path / "runs", "r1")["fates"]
        assert {key: fates[key] for key in damaged} == dict.fromkeys(damaged, "computed")
        assert all(fates[key] == "served" for key in surviving[4:])
        for key, data in good.items():
            assert cache._path(key).read_bytes() == data  # rebuilt, same bytes
        assert main(["cache", "verify", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert " 0 corrupt" in capsys.readouterr().out


class TestResumeReads:
    def test_each_reusable_entry_is_read_once(self, tmp_path, capsys, monkeypatch):
        assert main(_run_args(tmp_path) + ["--fault-plan", "crash-after=3"]) \
            == CRASH_EXIT_CODE
        journaled = set(_manifest(tmp_path / "runs", "r1")["fates"])
        loads: dict[str, int] = {}
        real = plan_mod.ResultCache._read

        def counting(path):
            stem = Path(path).stem
            loads[stem] = loads.get(stem, 0) + 1
            return real(path)

        monkeypatch.setattr(plan_mod.ResultCache, "_read", staticmethod(counting))
        capsys.readouterr()
        assert main(_run_args(tmp_path) + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "3 reusable from cache" in err
        # Verified once, then served from the verified payload.
        assert loads == {key: 1 for key in journaled}
        assert _manifest(tmp_path / "runs", "r1")["reused"] == 3


class TestBackendBumpInvalidation:
    def test_bump_staleness_recomputes_under_new_keys(
        self, tmp_path, capsys, monkeypatch
    ):
        assert main(_run_args(tmp_path)) == 0
        before = _manifest(tmp_path / "runs", "r1")
        total = len(before["fates"])
        capsys.readouterr()

        monkeypatch.setattr(
            plan_mod, "BACKEND_VERSION", plan_mod.BACKEND_VERSION + 1
        )
        monkeypatch.setattr(
            manifest_mod, "BACKEND_VERSION", plan_mod.BACKEND_VERSION
        )
        assert main(_run_args(tmp_path) + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "BACKEND_VERSION changed" in err
        assert f"{total} stale" in err
        after = _manifest(tmp_path / "runs", "r1")
        # Every old key went stale; every point recomputed under a new
        # key — none of which counts as duplicate work.
        assert len(after["fates"]) == 2 * total
        assert after["recomputed"] == 0 and after["reused"] == 0
        assert after["backend_version"] == plan_mod.BACKEND_VERSION

    def test_crashed_resume_prints_the_drift_and_stamps_it_first(
        self, tmp_path, capsys, monkeypatch
    ):
        assert main(_run_args(tmp_path) + ["--fault-plan", "crash-after=3"]) == (
            CRASH_EXIT_CODE
        )
        capsys.readouterr()
        monkeypatch.setattr(
            manifest_mod, "BACKEND_VERSION", plan_mod.BACKEND_VERSION + 1
        )
        args = _run_args(tmp_path) + ["--resume", "--fault-plan", "crash-after=1"]
        assert main(args) == CRASH_EXIT_CODE
        assert "BACKEND_VERSION changed" in capsys.readouterr().err
        # The reopened journal's one write carried the new stamp.
        after = _manifest(tmp_path / "runs", "r1")
        assert after["backend_version"] == manifest_mod.BACKEND_VERSION


class TestScenarioResume:
    TOML = """
[scenario]
name = "tiny"
study = "fig5"
platform = "Hera"
replicates = 2
seed = 11
"""

    def test_scenario_report_crash_and_resume(self, tmp_path, capsys):
        toml = tmp_path / "tiny.toml"
        toml.write_text(self.TOML)
        budget = ["--runs", "3", "--patterns", "2"]
        assert main(["scenario", "report", str(toml), *budget]) == 0
        reference = capsys.readouterr().out
        args = [
            "scenario", "report", str(toml), *budget,
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
            "--run-id", "s1",
        ]
        assert main(args + ["--fault-plan", "crash-after=2"]) == CRASH_EXIT_CODE
        assert _manifest(tmp_path / "runs", "s1")["status"] == "running"
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        manifest = _manifest(tmp_path / "runs", "s1")
        assert manifest["status"] == "complete"
        assert manifest["recomputed"] == 0
        assert manifest["reused"] == 2
        # The band tables print in full despite the interruption.
        assert capsys.readouterr().out == reference


class TestEditedInputRefused:
    """A resume re-reads the command's input file: if its bytes changed
    since the run started, the resume is refused before any work (exit
    1, nothing printed or written) instead of journaling another
    input's tables under the original run id."""

    EXAMPLES = Path(__file__).parents[2] / "examples"

    @staticmethod
    def _snapshot(tmp_path) -> dict[str, bytes]:
        return {
            str(path.relative_to(tmp_path)): path.read_bytes()
            for root in ("runs", "cache")
            for path in sorted((tmp_path / root).rglob("*"))
            if path.is_file()
        }

    def _crash_edit_resume(self, tmp_path, capsys, argv, source, edit):
        """Crash ``argv`` on a copy of ``source``, apply ``edit`` to the
        copy's text, resume; return the refusal message."""
        copy = tmp_path / source.name
        copy.write_text(source.read_text())
        args = [
            *[str(copy) if a == "FILE" else a for a in argv],
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"), "--run-id", "e1",
        ]
        assert main(args + ["--fault-plan", "crash-after=5"]) == CRASH_EXIT_CODE
        capsys.readouterr()
        old, new = edit
        assert old in copy.read_text()
        copy.write_text(copy.read_text().replace(old, new))
        before = self._snapshot(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["resume", "e1", "--runs-dir", str(tmp_path / "runs")])
        message = exc.value.code
        assert isinstance(message, str)  # a message exit: status 1
        assert capsys.readouterr().out == ""
        assert self._snapshot(tmp_path) == before
        assert message.startswith(f"{copy}: changed since run 'e1' started")
        return message

    def test_edited_scenario_file(self, tmp_path, capsys):
        self._crash_edit_resume(
            tmp_path, capsys,
            ["scenario", "report", "FILE", "--runs", "4", "--patterns", "6"],
            self.EXAMPLES / "scenario_jitter.toml",
            ("width = 0.1", "width = 0.3"),
        )

    def test_edited_sweep_spec(self, tmp_path, capsys):
        self._crash_edit_resume(
            tmp_path, capsys,
            ["sweep", "--spec", "FILE", *FAST_ARGS],
            self.EXAMPLES / "custom_study.toml",
            ("alpha = 0.01", "alpha = 0.02"),
        )

    def test_edited_adaptive_policy(self, tmp_path, capsys):
        source = tmp_path / "src" / "adaptive.toml"
        source.parent.mkdir()
        source.write_text(
            (self.EXAMPLES / "scenario_jitter.toml").read_text()
            + "\n[adaptive]\nband_tol = 0.05\n"
        )
        self._crash_edit_resume(
            tmp_path, capsys,
            ["scenario", "report", "FILE", "--adaptive", "--runs", "4",
             "--patterns", "6"],
            source,
            ("band_tol = 0.05", "band_tol = 0.2"),
        )

    def test_unchanged_file_resumes(self, tmp_path, capsys):
        toml = tmp_path / "scenario_jitter.toml"
        toml.write_text((self.EXAMPLES / "scenario_jitter.toml").read_text())
        args = ["scenario", "report", str(toml), "--runs", "4", "--patterns", "6",
                "--cache-dir", str(tmp_path / "cache"),
                "--runs-dir", str(tmp_path / "runs"), "--run-id", "e1"]
        assert main(args + ["--fault-plan", "crash-after=30"]) == CRASH_EXIT_CODE
        toml.touch()  # a new mtime, the same bytes
        assert main(["resume", "e1", "--runs-dir", str(tmp_path / "runs")]) == 0
        assert _manifest(tmp_path / "runs", "e1")["recomputed"] == 0


class TestCliValidation:
    def test_resume_requires_run_id(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume requires --run-id"):
            main(["fig5", *FAST_ARGS, "--resume",
                  "--cache-dir", str(tmp_path / "c")])

    def test_run_id_requires_a_cache(self, tmp_path):
        with pytest.raises(SystemExit, match="needs a result cache"):
            main(["fig5", *FAST_ARGS, "--run-id", "x",
                  "--runs-dir", str(tmp_path / "runs")])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--run-id", "q", "--trace"],
             "--run-id needs a result cache"),
            (["--cache-dir", "c", "--resume", "--trace"],
             "--resume requires --run-id"),
        ],
    )
    def test_journal_flag_errors_fail_before_any_side_effect(
        self, tmp_path, flags, message
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "repro", "fig5", *FAST_ARGS, *flags],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.strip().startswith(message)
        assert result.stdout == ""  # refused before declaring any study
        assert list(tmp_path.iterdir()) == []  # no cache, runs dir or trace

    @staticmethod
    def _refused_before_work(tmp_path, monkeypatch, capsys, flags) -> str:
        """Run fig5 with ``flags`` in ``tmp_path`` (holding one plain file,
        ``blocker``); assert it is refused with nothing written and
        return the message."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["fig5", *FAST_ARGS, *flags])
        assert capsys.readouterr().out == ""  # refused before any study ran
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
        return str(exc.value.code)

    @pytest.mark.parametrize("runs_dir", ["blocker/runs", "/proc/nope"])
    def test_unusable_runs_dir_refused_before_any_write(
        self, tmp_path, monkeypatch, capsys, runs_dir
    ):
        if Path(runs_dir).is_absolute() and not Path("/proc/self").is_dir():
            pytest.skip("no /proc on this system")
        message = self._refused_before_work(
            tmp_path, monkeypatch, capsys,
            ["--cache-dir", "c", "--run-id", "r", "--runs-dir", runs_dir],
        )
        assert message.startswith(f"--runs-dir {runs_dir}/r: unusable directory")
        assert "\n" not in message

    @pytest.mark.parametrize("cache_dir", ["blocker/cache", "/proc/nope"])
    def test_unusable_cache_dir_refused_before_any_write(
        self, tmp_path, monkeypatch, capsys, cache_dir
    ):
        if Path(cache_dir).is_absolute() and not Path("/proc/self").is_dir():
            pytest.skip("no /proc on this system")
        message = self._refused_before_work(
            tmp_path, monkeypatch, capsys,
            ["--cache-dir", cache_dir, "--run-id", "r", "--runs-dir", "runs"],
        )
        assert message.startswith(f"--cache-dir {cache_dir}: unusable directory")
        assert "\n" not in message

    @pytest.mark.parametrize("where", ["blocker", "/proc/nope"])
    def test_unusable_out_refused_before_any_write(
        self, tmp_path, monkeypatch, capsys, where
    ):
        """``report --out FILE`` (its parent) is refused before any point
        is simulated or cached."""
        if where.startswith("/") and not Path("/proc/self").is_dir():
            pytest.skip("no /proc on this system")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["report", "--out", f"{where}/r.md", *FAST_ARGS, "--cache-dir",
                  "c", "--run-id", "r", "--runs-dir", "runs"])
        message = str(exc.value.code)
        assert message.startswith(f"--out {where}: unusable directory")
        assert "\n" not in message
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]

    @pytest.mark.parametrize("where", ["blocker", "/proc/nope"])
    @pytest.mark.parametrize("surface", ["fig5", "all", "sweep", "scenario report"])
    def test_unusable_csv_refused_before_any_write(
        self, tmp_path, monkeypatch, capsys, surface, where
    ):
        """``--csv DIR`` is refused before any point is simulated or
        cached, like ``--out``."""
        if where.startswith("/") and not Path("/proc/self").is_dir():
            pytest.skip("no /proc on this system")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        examples = Path(__file__).parents[2] / "examples"
        argv = {
            "sweep": ["sweep", "--spec", str(examples / "custom_study.toml")],
            "scenario report": ["scenario", "report",
                                str(examples / "scenario_jitter.toml")],
        }.get(surface, [surface])
        with pytest.raises(SystemExit) as exc:
            main([*argv, *FAST_ARGS, "--csv", f"{where}/csv", "--cache-dir", "c",
                  "--run-id", "r", "--runs-dir", "runs"])
        message = str(exc.value.code)
        assert message.startswith(f"--csv {where}/csv: unusable directory")
        assert "\n" not in message
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]

    def test_rerun_without_resume_refuses(self, tmp_path, capsys):
        assert main(_run_args(tmp_path)) == 0
        with pytest.raises(SystemExit, match="already has a manifest"):
            main(_run_args(tmp_path))

    def test_resume_unknown_run_refuses(self, tmp_path):
        with pytest.raises(SystemExit, match="no run manifest"):
            main(["resume", "ghost", "--runs-dir", str(tmp_path / "runs")])

    def test_bad_fault_plan_refuses(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown fault-plan term"):
            main(["fig5", *FAST_ARGS, "--fault-plan", "explode=1"])

    def test_dry_run_journals_nothing(self, tmp_path, capsys):
        assert main(_run_args(tmp_path) + ["--dry-run"]) == 0
        assert not (tmp_path / "runs").exists()


class TestRetryOnTheCli:
    def test_transient_faults_retry_to_clean_output(self, tmp_path, capsys):
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)
        assert main(["fig5", *FAST_ARGS, "--fault-plan", "fail-job=2:2"]) == 0
        assert _strip_volatile(capsys.readouterr().out) == golden

    def test_pooled_transient_fault_does_not_hang(self, tmp_path):
        """A job's own transient fault on a live pool retries to clean bytes.

        Run in a subprocess with a timeout, so a regression (the pool
        shutting down on the job's error and stranding its cancelled
        queue) fails instead of hanging the suite.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])

        def run(*flags: str) -> str:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "fig5", *FAST_ARGS, *flags],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            return _strip_volatile(result.stdout)

        assert run("--jobs", "2", "--fault-plan", "fail-job=3:2") == run()
