"""Weak-vs-strong scaling extension experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ext_weakscaling
from repro.experiments.common import SimSettings
from repro.experiments.spec import run_study

NO_SIM = SimSettings(simulate=False)


class TestWeakScaling:
    @pytest.fixture(scope="class")
    def results(self):
        return run_study(
            ext_weakscaling.SPEC, grid=2.0 ** np.arange(7, 15), settings=NO_SIM
        )

    def test_one_result_per_scenario(self, results):
        assert len(results) == 2
        assert "sc1" in results[0].figure_id
        assert "sc3" in results[1].figure_id

    def test_strong_scaling_u_shape(self, results):
        H = results[0].column_array("strong_overhead")
        i = int(np.argmin(H))
        assert 0 < i < H.size - 1

    def test_weak_inflation_monotone_increasing(self, results):
        for res in results:
            infl = res.column_array("weak_inflation")
            assert np.all(np.diff(infl) > 0)

    def test_inflation_at_least_one(self, results):
        for res in results:
            assert np.all(res.column_array("weak_inflation") >= 1.0)

    def test_linear_costs_inflate_much_faster(self, results):
        # Scenario 1 (C_P = cP) hits catastrophic inflation where
        # scenario 3 (constant C) is still moderate.
        infl1 = results[0].column_array("weak_inflation")
        infl3 = results[1].column_array("weak_inflation")
        assert infl1[-1] > 5 * infl3[-1]

    def test_ceiling_reported(self, results):
        notes = " ".join(results[0].notes)
        assert "ceiling" in notes

    def test_budget_column_consistent(self, results):
        res = results[1]
        infl = res.column_array("weak_inflation")
        within = res.column("within_110%_budget")
        for value, flag in zip(infl, within):
            assert flag == (value <= 1.10)

    def test_custom_budget(self):
        res = run_study(
            ext_weakscaling.SPEC,
            scenarios=(3,),
            grid=2.0 ** np.arange(7, 12),
            options={"inflation_budget": 1.5},
            settings=NO_SIM,
        )[0]
        assert "within_150%_budget" in res.columns
