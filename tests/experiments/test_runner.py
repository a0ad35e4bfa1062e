"""CLI runner."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import build_parser, main, print_input_tables

#: A fig5 family whose additive jitter (seed 3) draws a negative error rate.
NEGATIVE_RATE_SCENARIO = """\
[scenario]
name = "neg"
study = "fig5"
seed = 3

[[transform]]
kind = "jitter"
axis = "lambda_ind"
mode = "additive"
distribution = "uniform"
width = 1.0
count = 2
"""

#: A valid two-member jitter family of fig5 (master seed 3).
JITTER_SCENARIO = """\
[scenario]
name = "jitter"
study = "fig5"
seed = 3

[[transform]]
kind = "jitter"
axis = "lambda_ind"
distribution = "uniform"
width = 0.1
count = 2
"""

#: argparse's refusal of ``scenario run``, removed in 1.27 (band tables
#: come from ``scenario report`` alone).
SCENARIO_RUN_REFUSED = (
    "argument scenario_command: invalid choice: 'run' "
    "(choose from 'generate', 'report')"
)


class TestParser:
    def test_tables_command(self):
        args = build_parser().parse_args(["tables"])
        assert args.command == "tables"

    def test_fig_command_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.platform == "Hera"
        assert not args.no_sim
        assert not args.paper

    def test_fidelity_overrides(self):
        args = build_parser().parse_args(["fig5", "--runs", "7", "--patterns", "9"])
        assert args.runs == 7 and args.patterns == 9

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--platform", "Summit"])

    @pytest.mark.parametrize("flag", ["--runs", "--patterns", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", [["fig5"], ["scenario", "report", "x.toml"]])
    def test_rejects_non_positive_budgets(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].endswith(
            f"error: argument {flag}: must be a positive integer, got {int(value)}"
        )

    def test_resume_rejects_non_positive_jobs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["resume", "x", "--jobs", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --jobs: must be a positive integer, got 0"
        )


class TestExecution:
    def test_tables_output(self, capsys):
        print_input_tables()
        out = capsys.readouterr().out
        assert "Hera" in out and "CoastalSSD" in out
        assert "Table II" in out and "Table III" in out

    def test_main_tables(self, capsys):
        assert main(["tables"]) == 0
        assert "Hera" in capsys.readouterr().out

    def test_main_fig2_no_sim(self, capsys):
        assert main(["fig2", "--no-sim"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "scenario" in out

    def test_main_with_csv(self, capsys, tmp_path):
        assert main(["fig2", "--no-sim", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig2_hera.csv").exists()

    def test_main_fig3_small(self, capsys):
        assert main(["fig3", "--no-sim"]) == 0
        assert "Figure 3(c)" in capsys.readouterr().out


class TestPipelineFlags:
    def test_jobs_sizes_the_pool(self):
        from repro.experiments.runner import _pipeline_from_args

        args = build_parser().parse_args(["fig2", "--jobs", "3"])
        with _pipeline_from_args(args) as pipe:
            assert pipe.executor.workers == 3

    def test_flagless_default_is_serial(self):
        from repro.experiments.runner import _pipeline_from_args

        args = build_parser().parse_args(["fig2"])
        with _pipeline_from_args(args) as pipe:
            assert pipe.executor.workers == 1
            assert pipe.cache is None

    @staticmethod
    def _cli(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_removed_workers_flag_is_refused(self, tmp_path):
        """--jobs is the only parallelism option: --workers exits 2
        (argparse) before anything is written."""
        result = self._cli(tmp_path, "fig5", "--workers", "2")
        assert result.returncode == 2
        assert "unrecognized arguments: --workers 2" in result.stderr
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag", [("--shard-mode", "stealing"), ("--claim-dir", "claims"),
                 ("--claim-ttl", "60"), ("--shard-index", "0"),
                 ("--shard-count", "2"), ("--shard-dir", "s0")],
    )
    def test_removed_shard_flags_are_refused(self, tmp_path, flag):
        """Sharded sweeps are gone (1.18; work stealing in 1.12): every
        shard flag exits 2 before any cache, shard or run directory is
        written."""
        result = self._cli(
            tmp_path, "fig5", "--cache-dir", "c", "--runs-dir",
            "runs", "--run-id", "x", *flag,
        )
        assert result.returncode == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in result.stderr
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_removed_merge_command_is_refused(self, tmp_path):
        """`merge` is gone (1.18): copy a cache directory instead."""
        (tmp_path / "s0").mkdir()
        result = self._cli(tmp_path, "merge", "s0", "--cache-dir", "merged")
        assert result.returncode == 2
        assert "invalid choice: 'merge'" in result.stderr
        assert result.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["s0"]
        assert list((tmp_path / "s0").iterdir()) == []

    def test_resuming_a_shard_run_is_refused(self, tmp_path):
        """A journal of a pre-1.18 shard run replays an argv argparse
        refuses: exit 2, and nothing is added under the runs dir."""
        from repro.sim.manifest import RunManifest, manifest_path

        argv = ("fig5", "--shard-index", "0", "--shard-count", "2",
                "--shard-dir", "s0", "--runs-dir", "runs", "--run-id", "x")
        path = manifest_path(tmp_path / "runs", "x")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(RunManifest(run_id="x", argv=argv).to_json()))
        before = sorted(p for p in (tmp_path / "runs").rglob("*"))
        result = self._cli(tmp_path, "resume", "x", "--runs-dir", "runs")
        assert result.returncode == 2
        assert "unrecognized arguments: --shard-index 0" in result.stderr
        assert result.stdout == ""
        assert sorted(p for p in (tmp_path / "runs").rglob("*")) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs"]

    def test_killed_worker_pool_is_rebuilt(self, tmp_path):
        """A worker death replaces the pool: after the kill, jobs still
        complete on at least two worker processes, and the tables are
        the serial ones."""
        from repro.obs.trace import load_trace

        killed = self._cli(
            tmp_path, "fig5", "--jobs", "2", "--fault-plan", "kill-worker=5",
            "--trace-file", "t.jsonl",
        )
        serial = self._cli(tmp_path, "fig5")
        assert killed.returncode == 0, killed.stderr
        assert serial.returncode == 0, serial.stderr
        events = load_trace(tmp_path / "t.jsonl")
        main_pid = events[0]["pid"]
        kill = next(i for i, e in enumerate(events) if e["ev"] == "job_retry")
        workers = {
            e["worker"] for e in events[kill:] if e["ev"] == "job_complete"
        } - {main_pid}
        assert len(workers) >= 2

        def tables(out: str) -> list[str]:
            return [ln for ln in out.splitlines() if not ln.startswith("[done in")]

        assert tables(killed.stdout) == tables(serial.stdout)

    def test_non_positive_jobs_fail_fast(self, tmp_path):
        """--jobs 0 used to run serially; now it exits 2 before any work."""
        result = self._cli(
            tmp_path, "fig5", "--jobs", "0", "--cache-dir", "c",
            "--runs-dir", "runs", "--run-id", "x",
        )
        assert result.returncode == 2
        assert result.stderr.splitlines()[-1].endswith(
            "error: argument --jobs: must be a positive integer, got 0"
        )
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("report", "neg.toml", "--cache-dir", "c", "--run-id", "r1",
             "--runs-dir", "runs", "--trace"),
            ("report", "neg.toml", "--csv", "out", "--cache-dir", "c"),
        ],
    )
    def test_invalid_scenario_member_writes_nothing(self, tmp_path, argv):
        """A member whose perturbed parameters leave the model's domain
        fails before the pipeline opens its trace file or analytic memo."""
        (tmp_path / "neg.toml").write_text(NEGATIVE_RATE_SCENARIO)
        result = self._cli(tmp_path, "scenario", *argv)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1].startswith(
            "neg.toml: lambda_ind must be finite and >= 0, got -0.166"
        )
        assert result.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["neg.toml"]

    @staticmethod
    def _refused(tmp_path, monkeypatch, capsys, argv) -> str:
        """Run ``argv`` in ``tmp_path``; assert exit 2 from argparse with
        nothing written, and return the last stderr line."""
        monkeypatch.chdir(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        return captured.err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv, error",
        [
            pytest.param(("fig5", "--max-inflight", "8", "--cache-dir", "c",
                          "--runs-dir", "runs", "--run-id", "x"),
                         "unrecognized arguments: --max-inflight 8",
                         id="fig5 --max-inflight"),
            pytest.param(("resume", "x", "--max-inflight", "8", "--runs-dir", "runs"),
                         "unrecognized arguments: --max-inflight 8",
                         id="resume --max-inflight"),
            pytest.param(("fig2", "--no-cache", "--cache-dir", "c"),
                         "unrecognized arguments: --no-cache", id="--no-cache"),
            *(
                pytest.param(("scenario", "report", "jitter.toml", "--adaptive",
                              flag, value, "--cache-dir", "c"),
                             f"unrecognized arguments: {flag} {value}", id=flag)
                for flag, value in (
                    ("--min-replicates", "3"), ("--max-replicates", "12"),
                    ("--wave", "2"), ("--band-tol", "0.05"),
                    ("--stable-waves", "2"),
                )
            ),
            pytest.param(("report", "--no-sim", "--csv", "d"),
                         "unrecognized arguments: --csv d", id="report --csv"),
            pytest.param(("sweep", "fig5", "--spec", "study.toml", "--cache-dir", "c"),
                         "unrecognized arguments: fig5", id="sweep STUDY"),
            pytest.param(("scenario", "run", "jitter.toml", "--out", "d"),
                         SCENARIO_RUN_REFUSED, id="scenario run"),
            pytest.param(("scenario", "aggregate", "d"),
                         "argument scenario_command: invalid choice: 'aggregate' "
                         "(choose from 'generate', 'report')",
                         id="scenario aggregate"),
        ],
    )
    def test_removed_spellings_are_refused(
        self, tmp_path, monkeypatch, capsys, argv, error
    ):
        """Each value with a second spelling keeps one (1.25), and band
        tables have one command (1.27): the other spelling exits 2 from
        argparse before anything is written."""
        last = self._refused(tmp_path, monkeypatch, capsys, argv)
        assert last.endswith(f"error: {error}")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("fig5", "--max-inflight", "8"),
             "unrecognized arguments: --max-inflight 8"),
            (("scenario", "report", "jitter.toml", "--adaptive",
              "--band-tol", "0.1"), "unrecognized arguments: --band-tol 0.1"),
            (("sweep", "fig5"), "the following arguments are required: --spec"),
            (("scenario", "run", "jitter.toml", "--out", "d"), SCENARIO_RUN_REFUSED),
        ],
    )
    def test_resuming_a_run_with_a_removed_spelling_is_refused(
        self, tmp_path, monkeypatch, capsys, argv, error
    ):
        """A journal stored before 1.25 replays an argv argparse refuses:
        exit 2, and nothing is added under the runs dir."""
        from repro.sim.manifest import RunManifest, manifest_path

        argv = (*argv, "--cache-dir", "c", "--runs-dir", "runs", "--run-id", "x")
        path = manifest_path(tmp_path / "runs", "x")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(RunManifest(run_id="x", argv=argv).to_json()))
        before = sorted((tmp_path / "runs").rglob("*"))
        last = self._refused(
            tmp_path, monkeypatch, capsys, ("resume", "x", "--runs-dir", "runs")
        )
        assert last.endswith(f"error: {error}")
        assert sorted((tmp_path / "runs").rglob("*")) == before

    @pytest.mark.parametrize("run_id", ["", "a/b", "../../x", ".", ".."])
    @pytest.mark.parametrize("command", ["fig5", "resume"])
    def test_run_id_outside_runs_dir_is_refused(
        self, tmp_path, monkeypatch, capsys, run_id, command
    ):
        """A run id is one path component: the journal stays in --runs-dir."""
        argv = (
            ("fig5", "--cache-dir", "c", "--runs-dir", "runs", "--run-id", run_id)
            if command == "fig5"
            else ("resume", run_id, "--runs-dir", "runs")
        )
        last = self._refused(tmp_path, monkeypatch, capsys, argv)
        assert last.endswith(
            "must be one non-empty path component other than '.' and '..', "
            f"got {run_id!r}"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig5", "--seed", "-1", "--cache-dir", "c"),
            ("sweep", "--spec", "study.toml", "--seed", "-1", "--cache-dir", "c"),
            ("scenario", "report", "jitter.toml", "--seed", "-3", "--cache-dir", "c"),
            ("scenario", "generate", "jitter.toml", "--seed", "-3"),
        ],
    )
    def test_negative_seed_is_refused(self, tmp_path, monkeypatch, capsys, argv):
        (tmp_path / "jitter.toml").write_text(JITTER_SCENARIO)
        last = self._refused(tmp_path, monkeypatch, capsys, argv)
        assert last.endswith("error: argument --seed: must be a non-negative integer, "
                             f"got {argv[argv.index('--seed') + 1]}")

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig5", "--cache-dir", "c", "--run-id", "r", "--resume"),
            ("scenario", "report", "jitter.toml", "--cache-dir", "c",
             "--run-id", "r", "--resume"),
        ],
        ids=["study", "scenario-report"],
    )
    def test_resume_without_manifest_writes_nothing(self, tmp_path, argv):
        """Resuming a run id with no journal exits 1 before the pipeline
        creates the cache directory or its analytic memo."""
        (tmp_path / "jitter.toml").write_text(JITTER_SCENARIO)
        result = self._cli(tmp_path, *argv)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"no run manifest at {Path('.repro-runs', 'r', 'manifest.json')}"
        ]
        assert result.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["jitter.toml"]

    def test_negative_toml_seed_is_refused(self, tmp_path):
        (tmp_path / "neg.toml").write_text(JITTER_SCENARIO.replace("seed = 3", "seed = -5"))
        result = self._cli(tmp_path, "scenario", "report", "neg.toml", "--cache-dir", "c")
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "neg.toml: [scenario] seed must be a non-negative integer, got -5"
        ]
        assert result.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["neg.toml"]

    def test_cache_dir_enables_cache(self, tmp_path):
        from repro.experiments.runner import _pipeline_from_args

        args = build_parser().parse_args(["fig2", "--cache-dir", str(tmp_path)])
        with _pipeline_from_args(args) as pipe:
            assert pipe.cache is not None
            assert pipe.cache.directory == tmp_path

    def test_cli_cache_roundtrip(self, capsys, tmp_path):
        import re

        def cache_line(out: str) -> tuple[int, int]:
            match = re.search(r"\[cache\] (\d+) hits, (\d+) misses", out)
            assert match, out
            return int(match.group(1)), int(match.group(2))

        assert main(["fig2", "--runs", "3", "--patterns", "4",
                     "--cache-dir", str(tmp_path)]) == 0
        hits, misses = cache_line(capsys.readouterr().out)
        assert hits == 0 and misses > 0
        assert main(["fig2", "--runs", "3", "--patterns", "4",
                     "--cache-dir", str(tmp_path)]) == 0
        hits, misses = cache_line(capsys.readouterr().out)
        assert misses == 0 and hits > 0
