"""Scenario lab: transforms, TOML loading, banding, dedup, determinism.

The acceptance contract: a scenario set with a fixed master seed
produces **byte-identical** aggregate band tables across serial and
pooled (``--jobs 2``, an in-flight window of 8) execution (pinned
against ``goldens/scenario_fig5_bands.txt``), and replicates sharing a
base point are served from the result cache rather than recomputed
(the dedup ratio reported by ``--progress``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import main
from repro.experiments.scenarios import (
    BandSpec,
    Jitter,
    PlatformProduct,
    Resample,
    ScenarioSet,
    band_tables,
    derive_variants,
    load_scenario_toml,
    replicate_seed,
)
from repro.experiments.spec import stage_study
from repro.sim.rng import DEFAULT_SEED

GOLDEN = Path(__file__).parent / "goldens" / "scenario_fig5_bands.txt"
EXAMPLE = Path(__file__).parents[2] / "examples" / "scenario_jitter.toml"

#: Reduced budget for the non-golden tests.
FAST_ARGS = ["--runs", "4", "--patterns", "6"]


# -- transform algebra -------------------------------------------------------


class TestTransforms:
    def test_cross_product_order_and_base_first(self):
        variants = derive_variants(
            [Jitter(axis="alpha", width=0.1, count=2), Resample(2)], 123
        )
        # (1 base + 2 draws) x 2 replicates, least-perturbed first.
        assert len(variants) == 6
        assert variants[0].is_base
        assert variants[0].label == "base"
        assert variants[1].replicate == 1 and variants[1].seed is not None

    def test_same_master_seed_same_family(self):
        a = derive_variants([Jitter(axis="downtime", width=0.2, count=3)], 7)
        b = derive_variants([Jitter(axis="downtime", width=0.2, count=3)], 7)
        assert a == b
        c = derive_variants([Jitter(axis="downtime", width=0.2, count=3)], 8)
        assert a != c  # a different master seed draws different jitters

    def test_replicate_zero_keeps_master_seed(self):
        variants = derive_variants([Resample(3)], 99)
        assert [v.replicate for v in variants] == [0, 1, 2]
        assert variants[0].seed is None  # master: dedups with plain runs
        assert variants[1].seed == replicate_seed(99, 1)
        assert variants[1].seed != variants[2].seed

    def test_platform_product_fans_out(self):
        variants = derive_variants(
            [PlatformProduct(("Hera", "Atlas")), Resample(2)], 1
        )
        assert [v.platform for v in variants] == ["Hera", "Hera", "Atlas", "Atlas"]

    def test_jitter_validation(self):
        with pytest.raises(InvalidParameterError, match="unknown jitter axis"):
            Jitter(axis="gravity", width=0.1)
        with pytest.raises(InvalidParameterError, match="malformed distribution"):
            Jitter(axis="alpha", width=0.1, distribution="cauchy")
        with pytest.raises(InvalidParameterError, match="lognormal"):
            Jitter(axis="alpha", width=0.1, mode="additive",
                   distribution="lognormal")
        with pytest.raises(InvalidParameterError, match="width must be positive"):
            Jitter(axis="alpha", width=0.0)
        with pytest.raises(InvalidParameterError, match="count must be >= 1"):
            Jitter(axis="alpha", width=0.1, count=0)
        with pytest.raises(InvalidParameterError, match="replicates must be >= 1"):
            Resample(0)
        with pytest.raises(InvalidParameterError, match="unknown platform"):
            PlatformProduct(("Hera", "Kraken"))


# -- member resolution -------------------------------------------------------


class TestDerivation:
    def test_axis_jitter_scales_the_sweep_grid(self):
        sset = ScenarioSet(
            "s", REGISTRY["fig5"],
            [Jitter(axis="lambda_ind", width=0.5, count=1, include_base=False)],
        )
        (member,) = sset.derive()
        factor = member.variant.perturbations[0].value
        base_grid = REGISTRY["fig5"].axis.default_grid()
        assert member.grid == tuple(x * factor for x in base_grid)
        assert "lambda_ind" not in member.fixed  # the grid carries it

    def test_fixed_axis_jitter_overrides_catalog_values(self):
        sset = ScenarioSet(
            "s", REGISTRY["fig5"],
            [Jitter(axis="checkpoint_cost", width=0.5, count=1,
                    include_base=False)],
        )
        (member,) = sset.derive()
        factor = member.variant.perturbations[0].value
        assert member.fixed["checkpoint_cost"] == pytest.approx(300.0 * factor)
        # fig5's own fixed parameters survive untouched.
        assert member.fixed["alpha"] == 0.1

    def test_assemble_hook_studies_are_refused(self):
        with pytest.raises(InvalidParameterError, match="assembles its own tables"):
            ScenarioSet("s", REGISTRY["ext-weibull"], [Resample(2)])

    def test_grid_study_with_declare_hook_is_accepted(self):
        # Figure 3 declares a whole scenario at once but keeps the
        # generic grid assemble, so its families band like any other.
        sset = ScenarioSet("s", REGISTRY["fig3"], [Resample(2)])
        assert len(sset.derive()) == 2


# -- TOML loader error paths -------------------------------------------------


class TestScenarioTomlErrors:
    def _load(self, tmp_path, text):
        path = tmp_path / "scenario.toml"
        path.write_text(text)
        return load_scenario_toml(path)

    def test_example_file_loads(self):
        sset = load_scenario_toml(EXAMPLE)
        assert sset.name == "fig5_jitter"
        assert len(sset.derive()) == 6
        assert sset.master_seed == DEFAULT_SEED

    def test_seed_override_wins(self):
        sset = load_scenario_toml(EXAMPLE, seed=42)
        assert sset.master_seed == 42

    def test_missing_scenario_table(self, tmp_path):
        with pytest.raises(InvalidParameterError, match=r"missing \[scenario\]"):
            self._load(tmp_path, "[other]\nx = 1\n")

    def test_unknown_study(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="neither a registered"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig99"\nreplicates = 2\n',
            )

    def test_unknown_axis_name(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="unknown jitter axis"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\n'
                '[[transform]]\nkind = "jitter"\naxis = "gravity"\nwidth = 0.1\n',
            )

    def test_malformed_distribution(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="malformed distribution"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\n'
                '[[transform]]\nkind = "jitter"\naxis = "alpha"\n'
                'width = 0.1\ndistribution = "cauchy"\n',
            )

    def test_distribution_mode_mismatch(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="lognormal"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\n'
                '[[transform]]\nkind = "jitter"\naxis = "alpha"\n'
                'width = 0.1\nmode = "additive"\ndistribution = "lognormal"\n',
            )

    def test_conflicting_replicate_counts(self, tmp_path):
        with pytest.raises(InvalidParameterError,
                           match="conflicting replicate counts"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\nreplicates = 3\n'
                '[[transform]]\nkind = "resample"\nreplicates = 5\n',
            )

    def test_unknown_transform_kind(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="unknown kind"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\n[[transform]]\nkind = "mutate"\n',
            )

    def test_unknown_jitter_key_and_missing_width(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="needs a 'width'"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\n'
                '[[transform]]\nkind = "jitter"\naxis = "alpha"\n',
            )
        with pytest.raises(InvalidParameterError, match="unknown keys"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\n'
                '[[transform]]\nkind = "jitter"\naxis = "alpha"\n'
                "width = 0.1\nsigma = 2\n",
            )

    def test_no_transforms(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="no transforms"):
            self._load(tmp_path, '[scenario]\nstudy = "fig5"\n')

    def test_single_transform_table_suggests_array_syntax(self, tmp_path):
        with pytest.raises(InvalidParameterError,
                           match=r"write \[\[transform\]\]"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\n'
                '[transform]\nkind = "jitter"\naxis = "alpha"\nwidth = 0.1\n',
            )

    def test_unknown_platform(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="unknown platform"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\nplatform = "Kraken"\n'
                "replicates = 2\n",
            )

    def test_bad_quantiles(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="quantiles"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\nreplicates = 2\n'
                "[aggregate]\nquantiles = [0.9, 0.1]\n",
            )
        with pytest.raises(InvalidParameterError, match=r"\[lo, hi\] pair"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\nreplicates = 2\n'
                "[aggregate]\nquantiles = 0.5\n",
            )

    def test_non_numeric_counts_and_seed(self, tmp_path):
        """Type errors surface as one-line messages naming the file."""
        with pytest.raises(InvalidParameterError, match="resample"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\n'
                '[[transform]]\nkind = "resample"\nreplicates = "three"\n',
            )
        with pytest.raises(InvalidParameterError, match="seed"):
            self._load(
                tmp_path,
                '[scenario]\nstudy = "fig5"\nseed = "lucky"\nreplicates = 2\n',
            )

    def test_error_messages_carry_the_path(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text('[scenario]\nstudy = "fig5"\n')
        with pytest.raises(InvalidParameterError, match="broken.toml"):
            load_scenario_toml(path)

    def test_transform_chain_order_is_honored(self, tmp_path):
        """resample declared first nests replicates outermost."""
        sset = self._load(
            tmp_path,
            '[scenario]\nstudy = "fig5"\n'
            '[[transform]]\nkind = "resample"\nreplicates = 2\n'
            '[[transform]]\nkind = "jitter"\naxis = "alpha"\nwidth = 0.1\n'
            "count = 1\n",
        )
        members = sset.derive()
        # Replicate-major order: (rep0: base, jitter), (rep1: base, jitter).
        assert [(m.replicate, bool(m.variant.perturbations)) for m in members] \
            == [(0, False), (0, True), (1, False), (1, True)]


# -- band aggregation (synthetic tables) -------------------------------------


def _table(values, columns=("x", "sc1_optimal")):
    from repro.experiments.common import FigureResult

    return FigureResult(
        figure_id="t", title="T", columns=columns,
        rows=tuple((float(i), v) for i, v in enumerate(values)),
    )


class TestBandTables:
    def test_quantiles_and_headers(self):
        members = [[_table([10.0, 1.0])], [_table([20.0, 1.0])],
                   [_table([30.0, 4.0])]]
        (banded,) = band_tables(members, BandSpec(q_lo=0.0, q_hi=1.0),
                                panel_columns=(("H_sim_num",),))
        assert banded.columns == ("x", "sc1_optimal_med", "sc1_optimal_p0",
                                  "sc1_optimal_p100")
        assert banded.rows[0] == (0.0, 20.0, 10.0, 30.0)
        assert banded.rows[1] == (1.0, 1.0, 1.0, 4.0)
        assert banded.figure_id == "t_bands"

    def test_optimum_flip_flags(self):
        members = [[_table([100.0, 50.0])], [_table([100.0, 80.0])]]
        (banded,) = band_tables(members, BandSpec(flip_tolerance=0.05),
                                panel_columns=(("P_num",),))
        assert banded.columns[-1] == "stable"
        assert banded.rows[0][-1] is True   # identical: stable
        assert banded.rows[1][-1] is False  # 50 vs 80: the optimum flipped
        assert "stable at 1/2 grid points" in " ".join(banded.notes)

    def test_validity_flip_is_a_flip(self):
        members = [[_table([None, 2.0])], [_table([3.0, 2.0])]]
        (banded,) = band_tables(members, panel_columns=(("P_fo",),))
        assert banded.rows[0][-1] is False  # first-order validity flipped
        assert banded.rows[0][1] == 3.0     # band over the present values

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError, match="disagree in shape"):
            band_tables([[_table([1.0, 2.0])], [_table([1.0])]])

    def test_non_numeric_cells_rejected(self):
        from repro.experiments.common import FigureResult

        weird = FigureResult(figure_id="t", title="T", columns=("x", "c"),
                             rows=((0.0, "wat"),))
        with pytest.raises(InvalidParameterError, match="non-numeric"):
            band_tables([[weird]])


# -- the acceptance contract: bytes + dedup ----------------------------------


class TestScenarioEquivalence:
    """One golden, two executors, one shared cache."""

    def test_band_tables_byte_identical_across_executors(self, tmp_path, capsys):
        golden = GOLDEN.read_text()
        cache = str(tmp_path / "cache")
        modes = (
            [],                                   # serial, cold cache
            ["--jobs", "2"],                      # pooled, warm cache
        )
        for extra in modes:
            assert main(
                ["scenario", "report", str(EXAMPLE), "--cache-dir", cache, *extra]
            ) == 0
            out = capsys.readouterr().out
            assert out == golden, f"scenario report diverged with {extra}"

    def test_replicate_zero_hits_the_cache_of_a_plain_run(self, tmp_path, capsys):
        """Warm base grid -> the unperturbed replicate is served, not computed."""
        cache = str(tmp_path / "cache")
        assert main(["fig5", *FAST_ARGS, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(
            ["scenario", "report", str(EXAMPLE), *FAST_ARGS, "--cache-dir", cache,
             "--progress"]
        ) == 0
        err = capsys.readouterr().err
        # 6 members x 54 points; the base member's 54 are cache-served.
        assert "[scenario] 6 members, 324 points: 54 cache-served" in err
        assert "dedup ratio 16.67%" in err

    def test_dry_run_previews_without_executing(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(
            ["scenario", "report", str(EXAMPLE), *FAST_ARGS, "--dry-run",
             "--cache-dir", str(cache), "--csv", str(tmp_path / "out")]
        ) == 0
        out = capsys.readouterr().out
        assert "fig5_jitter:Hera:base" in out
        assert "nothing executed" in out
        assert not (tmp_path / "out").exists()
        assert list(cache.glob("*.npz")) == []

    def test_generate_lists_every_member(self, capsys):
        assert main(["scenario", "generate", str(EXAMPLE)]) == 0
        out = capsys.readouterr().out
        assert out.count("fig5_jitter:Hera:") == 6
        assert "master seed 20160913" in out
        assert "rep2" in out

    def test_out_of_domain_jitter_fails_with_a_message(self, tmp_path):
        """A draw leaving the model's domain exits cleanly at staging."""
        path = tmp_path / "wild.toml"
        path.write_text(
            '[scenario]\nstudy = "fig5"\n'
            '[[transform]]\nkind = "jitter"\naxis = "lambda_ind"\n'
            'mode = "additive"\ndistribution = "normal"\nwidth = 1.0\n'
            "include_base = false\n"
        )
        with pytest.raises(SystemExit, match="wild.toml"):
            main(["scenario", "report", str(path), "--runs", "2",
                  "--patterns", "2"])


# -- the dry-run accounting fix (cross-study duplicate keys) -----------------


class TestPendingReportAccounting:
    SETTINGS = SimSettings()

    def _stage_twice(self, pipeline):
        stage_study(REGISTRY["fig5"], settings=self.SETTINGS, pipeline=pipeline,
                    group="a")
        stage_study(REGISTRY["fig5"], settings=self.SETTINGS, pipeline=pipeline,
                    group="b")

    def test_cold_duplicates_count_as_deduped(self, tmp_path):
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            self._stage_twice(pipe)
            report = pipe.pending_report()
        assert report["a"] == {"points": 54, "unique": 54, "deduped": 0,
                               "cache_hits": 0, "to_compute": 54, "jobs": 54,
                               "analytic_evaluated": 27, "analytic_served": 0}
        assert report["b"] == {"points": 54, "unique": 0, "deduped": 54,
                               "cache_hits": 0, "to_compute": 0, "jobs": 0,
                               "analytic_evaluated": 0, "analytic_served": 27}

    def test_warm_duplicates_count_as_cache_served_in_their_own_study(
        self, tmp_path
    ):
        """A dup of a cache-served key is a hit for *its* study — and the
        first study does not absorb (double-report) the second's hits."""
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            stage_study(REGISTRY["fig5"], settings=self.SETTINGS, pipeline=pipe)
            pipe.resolve()
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            self._stage_twice(pipe)
            report = pipe.pending_report()
            # Pure preview: the disk cache accounting is untouched.
            assert pipe.cache_stats == (0, 0)
        assert report["a"]["cache_hits"] == 54 and report["a"]["deduped"] == 0
        assert report["b"]["cache_hits"] == 54 and report["b"]["deduped"] == 0
        assert report["b"]["unique"] == 0
        # Declaration-level accounting matches what resolve will serve.
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            self._stage_twice(pipe)
            served = []
            pipe.resolve(on_event=lambda e: served.append(e.status))
            assert served.count("served") == 108
            assert pipe.cache_stats[0] == 54  # disk reads stay deduplicated

    def test_memo_hits_report_as_cache_served(self):
        with SimulationPipeline(jobs=1) as pipe:
            stage_study(REGISTRY["fig2"], settings=self.SETTINGS, pipeline=pipe)
            pipe.resolve()
            stage_study(REGISTRY["fig2"], settings=self.SETTINGS, pipeline=pipe,
                        group="again")
            report = pipe.pending_report()
        assert report["again"]["cache_hits"] == report["again"]["points"]
        assert report["again"]["to_compute"] == 0
