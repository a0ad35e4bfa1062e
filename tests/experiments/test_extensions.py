"""Extension experiment modules (segments sweep, Weibull robustness)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ext_segments, ext_weibull
from repro.experiments.common import SimSettings
from repro.experiments.spec import run_study
from repro.sim.montecarlo import Fidelity

SETTINGS = SimSettings(fidelity=Fidelity(n_runs=15, n_patterns=30), seed=11)
NO_SIM = SimSettings(simulate=False)


class TestSegmentsExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_study(ext_segments.SPEC, settings=NO_SIM)[0]

    def test_all_platforms_covered(self, result):
        assert result.column("platform") == ["Hera", "Atlas", "Coastal", "CoastalSSD"]

    def test_numerical_best_never_worse_than_k1(self, result):
        h1 = result.column_array("H(k=1)")
        gains = [float(g.rstrip("%")) for g in result.column("gain_vs_k1")]
        assert np.all(np.asarray(gains) >= 0.0)
        assert h1.shape == (4,)

    def test_first_order_kstar_tracks_best(self, result):
        k_star = result.column_array("k*_first_order")
        k_best = result.column_array("k_best")
        assert np.all(np.abs(k_star - k_best) <= 1.5)

    def test_silent_heavy_platform_gains_most(self, result):
        gains = {
            p: float(g.rstrip("%"))
            for p, g in zip(result.column("platform"), result.column("gain_vs_k1"))
        }
        assert gains["Atlas"] == max(gains.values())  # 94% silent errors

    def test_single_platform_mode(self):
        res = run_study(
            ext_segments.SPEC,
            platform="Hera",
            options={"all_platforms": False},
            settings=NO_SIM,
        )[0]
        assert res.column("platform") == ["Hera"]


class TestWeibullExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_study(ext_weibull.SPEC, scenarios=(1,), settings=SETTINGS)[0]

    def test_shape_one_matches_analytic(self, result):
        analytic = result.column_array("H_analytic")[0]
        sim = result.column_array("H_sim(shape=1)")[0]
        assert sim == pytest.approx(analytic, rel=0.02)

    def test_all_shapes_within_robustness_band(self, result):
        analytic = result.column_array("H_analytic")[0]
        for shape in (0.5, 0.7, 1.0, 1.5):
            sim = result.column_array(f"H_sim(shape={shape:g})")[0]
            assert abs(sim - analytic) / analytic < 0.08

    def test_no_sim_mode(self):
        res = run_study(ext_weibull.SPEC, scenarios=(1,), settings=NO_SIM)[0]
        assert res.column("H_sim(shape=1)") == [None]

    def test_cli_registration(self):
        from repro.experiments.registry import REGISTRY

        assert "ext-segments" in REGISTRY
        assert "ext-weibull" in REGISTRY
