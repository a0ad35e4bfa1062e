"""Public API surface: imports, __all__, version, docstrings."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.28.0"

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

    @pytest.mark.parametrize(
        "name",
        ["EventEngine", "Event", "EventKind", "Trace", "TraceEvent",
         "TraceEventKind", "format_trace", "simulate_run_renewal"],
    )
    def test_removed_event_kernel_names_are_gone(self, name):
        """One event-level loop since 1.24: the kernel and trace are gone."""
        import inspect

        import repro.sim

        assert not hasattr(repro.sim, name)
        assert name not in repro.sim.__all__
        assert "trace" not in inspect.signature(repro.sim.simulate_run).parameters

    def test_removed_pipeline_entry_points_are_gone(self):
        """One plan -> schedule -> merge loop since 1.25: the pipeline's."""
        import inspect

        import repro.experiments.pipeline as pipeline
        import repro.sim
        import repro.sim.plan

        for module, name in (
            (repro.sim, "simulate_requests"),
            (repro.sim.plan, "simulate_requests"),
            (pipeline, "private_pipeline"),
        ):
            assert not hasattr(module, name)
            assert name not in module.__all__
        params = inspect.signature(pipeline.SimulationPipeline).parameters
        assert "max_inflight" not in params

    @pytest.mark.parametrize(
        "name",
        ["write_member_results", "load_member_results", "aggregate_results",
         "adaptive_notes"],
    )
    def test_removed_member_results_names_are_gone(self, name):
        """One way to get band tables since 1.27: ``scenario report``."""
        import repro.experiments.scenarios as scenarios

        assert not hasattr(scenarios, name)
        assert name not in scenarios.__all__

    @pytest.mark.parametrize(
        "owner, name",
        [("repro.experiments.scenarios.adaptive:AdaptiveRun", "replay"),
         ("repro.experiments.scenarios.adaptive:AdaptiveRun", "_verify_replayed"),
         ("repro.experiments.scenarios.adaptive:AdaptiveRun", "attach_recorder"),
         ("repro.experiments.scenarios.adaptive:AdaptiveRun", "_journal"),
         ("repro.experiments.scenarios.adaptive:AdaptivePolicy", "to_dict"),
         ("repro.sim.manifest:RunRecorder", "record_adaptive")],
    )
    def test_removed_adaptive_journal_names_are_gone(self, owner, name):
        """One run journal since 1.28: a resumed adaptive run re-derives
        its decisions from the cache instead of replaying them."""
        module, _, cls = owner.partition(":")
        assert not hasattr(getattr(importlib.import_module(module), cls), name)

    def test_removed_manifest_adaptive_field_is_gone(self):
        import dataclasses

        from repro.sim.manifest import RunManifest

        assert "adaptive" not in {f.name for f in dataclasses.fields(RunManifest)}

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
        "repro.sim.protocol",
        "repro.sim.batch",
        "repro.sim.results",
        "repro.sim.montecarlo",
        "repro.sim.streams",
        "repro.sim.nodes",
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
