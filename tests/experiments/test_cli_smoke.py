"""CLI smoke: every subcommand parses --help, every figure completes.

The figure commands run at the smallest useful fidelity (or with
``--no-sim`` for the sweep-heavy ones) so the whole module stays fast
while still driving each pipeline end to end through the real CLI.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import REGISTRY
from repro.experiments.runner import build_parser, main

ALL_COMMANDS = list(REGISTRY) + ["tables", "all", "report", "index"]


class TestHelp:
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_subcommand_help_parses(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0
        assert command in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0

    def test_method_flag_choices(self):
        args = build_parser().parse_args(["fig5", "--method", "vectorized"])
        assert args.method == "vectorized"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--method", "quantum"])


class TestFigureCommandsComplete:
    @pytest.mark.parametrize("command", sorted(REGISTRY))
    def test_no_sim_run_exits_zero(self, command, capsys):
        assert main([command, "--no-sim"]) == 0
        out = capsys.readouterr().out
        assert "[done in" in out

    def test_fig2_tiny_simulated_budget(self, capsys):
        assert main(["fig2", "--runs", "3", "--patterns", "4"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_fig2_explicit_vectorized_method(self, capsys):
        assert (
            main(
                [
                    "fig2",
                    "--runs",
                    "3",
                    "--patterns",
                    "4",
                    "--method",
                    "vectorized",
                ]
            )
            == 0
        )
        assert "Figure 2" in capsys.readouterr().out


class TestIndexCommand:
    def test_index_lists_every_command(self, capsys):
        assert main(["index"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert f"python -m repro {name}" in out

    def test_index_check_passes_on_repo_doc(self, capsys):
        from pathlib import Path

        doc = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
        assert main(["index", "--check", "--file", str(doc)]) == 0

    def test_index_check_fails_on_missing_file(self, tmp_path, capsys):
        assert main(["index", "--check", "--file", str(tmp_path / "nope.md")]) == 1

    def test_index_check_fails_on_drifted_doc(self, tmp_path, capsys):
        stale = tmp_path / "EXPERIMENTS.md"
        stale.write_text("only `python -m repro fig2` is described here\n")
        assert main(["index", "--check", "--file", str(stale)]) == 1
        out = capsys.readouterr().out
        assert "does not reference" in out

    def test_index_check_flags_unknown_command(self, tmp_path, capsys):
        doc = tmp_path / "EXPERIMENTS.md"
        lines = [f"python -m repro {name}" for name in REGISTRY]
        lines.append("python -m repro fig99")
        doc.write_text("\n".join(lines) + "\n")
        assert main(["index", "--check", "--file", str(doc)]) == 1
        assert "fig99" in capsys.readouterr().out
