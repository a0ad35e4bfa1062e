"""Study registry: completeness, CLI derivation, TOML loading."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.common import SimSettings
from repro.experiments.registry import REGISTRY, find_spec, get_spec
from repro.experiments.runner import build_parser, check_experiments_md, main
from repro.experiments.spec import (
    SWEEP_COLUMNS,
    StudySpec,
    load_toml_spec,
    run_study,
)

EXAMPLE_TOML = Path(__file__).resolve().parents[2] / "examples" / "custom_study.toml"


class TestRegistry:
    def test_ten_studies_registered(self):
        assert len(REGISTRY) == 10
        assert set(REGISTRY) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "ext-segments", "ext-weibull", "ext-weakscaling", "ext-nodes",
        }

    def test_registry_order_is_presentation_order(self):
        assert list(REGISTRY)[:6] == ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]

    def test_descriptions_unique_and_nonempty(self):
        descriptions = [spec.description for spec in REGISTRY.values()]
        assert all(descriptions)
        assert len(set(descriptions)) == len(descriptions)

    def test_every_entry_is_a_spec(self):
        for name, spec in REGISTRY.items():
            assert isinstance(spec, StudySpec)
            assert spec.name == name

    def test_get_spec_unknown_raises(self):
        with pytest.raises(InvalidParameterError):
            get_spec("fig99")

    def test_find_spec_resolves_names_and_files(self):
        assert find_spec("fig5") is REGISTRY["fig5"]
        assert find_spec(str(EXAMPLE_TOML)).name == "lowalpha_rates"
        with pytest.raises(InvalidParameterError):
            find_spec("no-such-study")


class TestHelpDerivation:
    def test_cli_help_comes_from_registry(self, capsys):
        """The single source of figure help text is the StudySpec."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for spec in REGISTRY.values():
            assert spec.description[:40] in out

    def test_index_lists_registry_descriptions(self, capsys):
        assert main(["index"]) == 0
        out = capsys.readouterr().out
        for name, spec in REGISTRY.items():
            assert f"python -m repro {name}" in out
            assert spec.description in out

    def test_drift_guard_requires_new_meta_commands(self, tmp_path, capsys):
        """A document missing sweep/cache/resume fails `index --check`."""
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text(
            "\n".join(
                f"python -m repro {name}"
                for name in list(REGISTRY) + ["all", "tables"]
            )
        )
        assert check_experiments_md(doc) == 1
        out = capsys.readouterr().out
        assert "sweep" in out and "cache" in out and "resume" in out
        assert "merge" not in out  # removed in 1.18

    def test_drift_guard_flags_the_removed_merge_command(self, tmp_path, capsys):
        from repro.experiments.runner import _DOCUMENTED_META

        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text(
            "\n".join(
                f"python -m repro {name}"
                for name in [*REGISTRY, *_DOCUMENTED_META, "merge"]
            )
        )
        assert check_experiments_md(doc) == 1
        assert "unknown command 'merge'" in capsys.readouterr().out


class TestTomlSpecs:
    def test_example_loads(self):
        spec = load_toml_spec(EXAMPLE_TOML)
        assert spec.name == "lowalpha_rates"
        assert spec.platforms == ("Hera", "Atlas")
        assert spec.scenarios == (1, 3)
        assert spec.axis.model_kwarg == "lambda_ind"
        assert len(spec.panels) == 2
        assert spec.fixed["alpha"] == 0.01

    def test_example_runs_no_sim(self):
        spec = load_toml_spec(EXAMPLE_TOML)
        results = run_study(spec, settings=SimSettings(simulate=False))
        assert len(results) == 2
        table = results[0].table()
        assert "sc1_first_order" in table and "sc3_optimal" in table
        assert any("fitted P_num slope" in n for n in results[0].notes)

    def test_sweep_spec_cli(self, capsys):
        assert main(
            ["sweep", "--spec", str(EXAMPLE_TOML), "--no-sim", "--platform", "Hera"]
        ) == 0
        out = capsys.readouterr().out
        assert "Custom [Hera]" in out
        assert "Custom [Atlas]" not in out  # --platform restricts the grid

    def test_sweep_spec_runs_all_spec_platforms_by_default(self, capsys):
        assert main(["sweep", "--spec", str(EXAMPLE_TOML), "--no-sim"]) == 0
        out = capsys.readouterr().out
        assert "Custom [Hera]" in out and "Custom [Atlas]" in out

    def test_sweep_registry_name(self, capsys):
        assert main(["sweep", "fig2", "--no-sim"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_sweep_needs_exactly_one_source(self):
        with pytest.raises(SystemExit):
            main(["sweep"])
        with pytest.raises(SystemExit):
            main(["sweep", "fig2", "--spec", str(EXAMPLE_TOML)])

    def test_sweep_unknown_study_is_a_clean_cli_error(self):
        """A typo'd name exits with a message, not a traceback."""
        with pytest.raises(SystemExit, match="neither a registered study"):
            main(["sweep", "nosuchstudy"])
        with pytest.raises(SystemExit, match="cannot load study spec"):
            main(["sweep", "--spec", "missing_file.toml"])

    def test_sweep_ext_segments_emits_once(self, capsys):
        """The study's own platform loop must not be re-fanned by sweep."""
        assert main(["sweep", "ext-segments", "--no-sim"]) == 0
        out = capsys.readouterr().out
        assert out.count("Extension: overhead vs verified segments") == 1

    def test_report_refuses_shard_flags(self, tmp_path):
        """Sharded runs are gone: argparse refuses the flags (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            main(
                ["report", "--shard-index", "0", "--shard-count", "2",
                 "--shard-dir", str(tmp_path / "s0"),
                 "--out", str(tmp_path / "r.md")]
            )
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_arbitrary_column_sets_get_explicit_headers(self, tmp_path):
        """Non-fo/num pairs and 3+ columns must label, not crash."""
        path = tmp_path / "wide.toml"
        path.write_text(
            "[study]\nname='wide'\nscenarios=[1]\nplatforms=['Hera']\n"
            "[axis]\nname='alpha'\nvalues=[0.1, 0.01]\n"
            "[[panel]]\ncolumns=['P_num', 'T_num', 'H_pred_num']\n"
            "[[panel]]\ncolumns=['P_num', 'T_num']\n"
        )
        results = run_study(
            load_toml_spec(path), settings=SimSettings(simulate=False)
        )
        assert results[0].columns == (
            "alpha", "sc1_P_num", "sc1_T_num", "sc1_H_pred_num"
        )
        assert results[1].columns == ("alpha", "sc1_P_num", "sc1_T_num")
        results[0].table()  # renders without a ragged-row error

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("[study]\nname='x'\n", "missing \\[axis\\]"),
            ("[axis]\nname='weird'\nvalues=[1.0]\n", "axis.name"),
            ("[axis]\nname='alpha'\n", "axis.values"),
            (
                "[axis]\nname='alpha'\nvalues=[0.1]\n",
                "at least one \\[\\[panel\\]\\]",
            ),
            (
                "[axis]\nname='alpha'\nvalues=[0.1]\n[[panel]]\ncolumns=['bogus']\n",
                "unknown column",
            ),
            (
                "[study]\nplatforms=['Tianhe']\n"
                "[axis]\nname='alpha'\nvalues=[0.1]\n"
                "[[panel]]\ncolumns=['P_num']\n",
                "unknown platform",
            ),
            (
                "[study]\nscenarios=[9]\n"
                "[axis]\nname='alpha'\nvalues=[0.1]\n"
                "[[panel]]\ncolumns=['P_num']\n",
                "unknown scenario",
            ),
        ],
    )
    def test_validation_errors(self, tmp_path, payload, message):
        path = tmp_path / "bad.toml"
        path.write_text(payload)
        with pytest.raises(InvalidParameterError, match=message):
            load_toml_spec(path)

    def test_vocabulary_is_stable(self):
        # The documented column vocabulary the TOML format accepts.
        assert SWEEP_COLUMNS == (
            "P_fo", "P_num", "T_fo", "T_num",
            "H_pred_fo", "H_pred_num", "H_sim_fo", "H_sim_num",
        )

    def test_axis_sweeps_simulated_column(self, tmp_path):
        """A TOML study with sim columns rides the pipeline end to end."""
        path = tmp_path / "mini.toml"
        path.write_text(
            "[study]\nname='mini'\nscenarios=[1]\nplatforms=['Hera']\n"
            "[axis]\nname='lambda_ind'\nvalues=[1e-9, 1e-8]\n"
            "[[panel]]\ncolumns=['H_sim_num']\n"
        )
        from repro.sim.montecarlo import Fidelity

        spec = load_toml_spec(path)
        settings = SimSettings(fidelity=Fidelity(n_runs=3, n_patterns=4), seed=5)
        results = run_study(spec, settings=settings)
        values = results[0].column("scenario_1")
        assert len(values) == 2
        assert all(isinstance(v, float) and v > 0 for v in values)
