"""Experiment infrastructure: FigureResult and SimSettings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import FigureResult, SimSettings
from repro.sim.montecarlo import Fidelity


@pytest.fixture
def figure() -> FigureResult:
    return FigureResult(
        figure_id="figX",
        title="Demo",
        columns=("x", "y"),
        rows=((1.0, 2.0), (2.0, None)),
        notes=("a note",),
    )


class TestFigureResult:
    def test_table_contains_title_and_notes(self, figure):
        text = figure.table()
        assert "Demo" in text
        assert "a note" in text

    def test_column_extraction(self, figure):
        assert figure.column("y") == [2.0, None]

    def test_column_array_maps_none_to_nan(self, figure):
        arr = figure.column_array("y")
        assert arr[0] == 2.0
        assert np.isnan(arr[1])

    def test_unknown_column_raises(self, figure):
        with pytest.raises(KeyError):
            figure.column("z")

    def test_to_csv(self, figure, tmp_path):
        path = figure.to_csv(tmp_path)
        assert path.name == "figX.csv"
        assert path.exists()


class TestSimSettings:
    def test_budget(self):
        settings = SimSettings(fidelity=Fidelity(n_runs=3, n_patterns=7))
        assert settings.budget() == (3, 7)
