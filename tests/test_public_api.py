"""Public API surface: imports, __all__, version, docstrings."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.23.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_quickstart_from_docstring(self):
        model = repro.build_model("Hera", scenario_id=1)
        sol = repro.optimal_pattern(model)
        assert round(sol.processors) == 219
        assert round(sol.period) == 6239

    @pytest.mark.parametrize(
        "name", ["ShardedExecutor", "merge_shard_dirs", "shard_of"]
    )
    def test_removed_shard_names_are_gone(self, name):
        """Sharded sweeps were removed in 1.18; nothing re-exports them."""
        import repro.sim
        import repro.sim.executors

        assert not hasattr(repro.sim, name)
        assert not hasattr(repro.sim.executors, name)
        assert not hasattr(repro.sim.executors.Executor, "owns")

    @pytest.mark.parametrize("module", ["repro.optimize", "repro.optimize.period"])
    def test_removed_grouped_period_wrapper_is_gone(self, module):
        """One joint optimiser since 1.22: nothing re-exports the wrapper."""
        module = importlib.import_module(module)
        assert not hasattr(module, "optimize_period_batch_grouped")
        assert "optimize_period_batch_grouped" not in module.__all__

    def test_removed_result_fields_are_gone(self):
        import dataclasses

        from repro.optimize import AllocationResult, BatchGridResult, PeriodResult

        def fields(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert "expected_time" not in fields(AllocationResult) | fields(PeriodResult)
        assert {"at_lower", "at_upper"}.isdisjoint(fields(BatchGridResult))

    def test_removed_refine_knobs_are_gone(self):
        import inspect

        from repro.optimize import optimize_period_batch, refine_log_minimum_batch

        assert {"require_finite", "init_x"}.isdisjoint(
            inspect.signature(refine_log_minimum_batch).parameters
        )
        assert {"points", "rounds"}.isdisjoint(
            inspect.signature(optimize_period_batch).parameters
        )

    def test_key_classes_importable_from_top(self):
        assert repro.PatternModel is not None
        assert repro.AmdahlSpeedup is not None
        assert repro.ErrorModel is not None


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.core.speedup",
        "repro.core.costs",
        "repro.core.errors",
        "repro.core.pattern",
        "repro.core.first_order",
        "repro.core.young_daly",
        "repro.core.validity",
        "repro.core.makespan",
        "repro.optimize",
        "repro.optimize.scalar",
        "repro.optimize.grid",
        "repro.optimize.period",
        "repro.optimize.allocation",
        "repro.optimize.relaxation",
        "repro.platforms",
        "repro.platforms.catalog",
        "repro.platforms.scenarios",
        "repro.baselines",
        "repro.baselines.error_free",
        "repro.baselines.failstop_only",
        "repro.sim",
        "repro.sim.rng",
        "repro.sim.engine",
        "repro.sim.events",
        "repro.sim.protocol",
        "repro.sim.batch",
        "repro.sim.results",
        "repro.sim.montecarlo",
        "repro.sim.streams",
        "repro.sim.renewal",
        "repro.sim.nodes",
        "repro.sim.trace",
        "repro.analysis",
        "repro.analysis.asymptotics",
        "repro.analysis.sensitivity",
        "repro.analysis.waste",
        "repro.io",
        "repro.io.tables",
        "repro.io.csvout",
        "repro.io.report",
        "repro.experiments",
        "repro.experiments.runner",
        "repro.experiments.ext_segments",
        "repro.experiments.ext_weibull",
        "repro.experiments.ext_weakscaling",
        "repro.experiments.ext_nodes",
        "repro.extensions",
        "repro.extensions.twolevel",
        "repro.extensions.sim_twolevel",
        "repro.units",
        "repro.exceptions",
    ],
)
class TestModules:
    def test_imports(self, module):
        mod = importlib.import_module(module)
        assert mod is not None

    def test_has_docstring(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} lacks a module docstring"

    def test_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"


class TestDocstrings:
    def test_public_functions_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"undocumented public callables: {undocumented}"

    def test_public_classes_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"undocumented public classes: {undocumented}"
