"""Node-level failure-law extension experiment."""

from __future__ import annotations

import pytest

from repro.experiments import ext_nodes
from repro.experiments.common import SimSettings
from repro.sim.montecarlo import Fidelity

SETTINGS = SimSettings(fidelity=Fidelity(n_runs=15, n_patterns=40), seed=23)


class TestExtNodes:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_nodes.run(scenarios=(1,), settings=SETTINGS)[0]

    def test_four_rows(self, result):
        labels = result.column("failure model")
        assert len(labels) == 4
        assert labels[0].startswith("aggregated analytic")

    def test_exponential_nodes_match_analytic(self, result):
        analytic = result.column("overhead")[0]
        exp_nodes = result.column("overhead")[1]
        assert exp_nodes == pytest.approx(analytic, rel=0.02)

    def test_stationary_weibull_close_to_analytic(self, result):
        analytic = result.column("overhead")[0]
        weib = result.column("overhead")[2]
        assert weib == pytest.approx(analytic, rel=0.03)

    def test_fresh_machine_worse(self, result):
        stationary = result.column("overhead")[2]
        fresh = result.column("overhead")[3]
        assert fresh > stationary

    def test_no_sim_mode(self):
        res = ext_nodes.run(scenarios=(1,), settings=SimSettings(simulate=False))[0]
        assert res.column("overhead")[1] is None
        assert res.column("overhead")[0] is not None  # analytic always there

    def test_cli_registration(self):
        from repro.experiments.registry import REGISTRY

        assert "ext-nodes" in REGISTRY
