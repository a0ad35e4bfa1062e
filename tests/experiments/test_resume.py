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
             "--jobs", "1", "--max-inflight", "2"]
        ) == 0
        assert _strip_volatile(capsys.readouterr().out) == golden
        assert _manifest(tmp_path / "runs", "r1")["recomputed"] == 0

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


class TestScenarioResume:
    TOML = """
[scenario]
name = "tiny"
study = "fig5"
platform = "Hera"
replicates = 2
seed = 11
"""

    def test_scenario_run_crash_and_resume(self, tmp_path, capsys):
        toml = tmp_path / "tiny.toml"
        toml.write_text(self.TOML)
        args = [
            "scenario", "run", str(toml),
            "--out", str(tmp_path / "out"),
            "--runs", "3", "--patterns", "2",
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
        # The member result files all landed despite the interruption.
        members = list((tmp_path / "out").glob("member_*.json"))
        assert len(members) == 2


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
            (["--no-cache", "--run-id", "q", "--trace"],
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
