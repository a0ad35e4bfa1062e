"""Layers of the program, the entry points timed for each, and their metrics.

A layer is named after the module that owns it.  The tracer (``tracer.py``)
wraps every entry point below in a span; a layer's ``*_s`` metric is the
self time of its spans (span minus child spans), so nothing is counted
twice.  Counts are taken at the same boundaries and repeat exactly for a
given seed.

Metric names, units and directions are defined once, in ``BENCHMARK.json``;
``per_layer_metrics`` computes each per-layer one.  ``PREDICTIONS`` is the
map later changes cite: which end-to-end metric a layer's metrics should
move, on which workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def benchmark_metrics(kind: str) -> list[dict]:
    """``BENCHMARK.json``'s ``end_to_end`` or ``per_layer`` metrics, each a
    dict with ``name``, ``unit`` and ``better``."""
    return json.loads(BENCHMARK_JSON.read_text())[kind]


def _n(value) -> int:
    return len(value) if value is not None else 0


def _cells_rpc(args, kwargs, result):
    # (rates, n_runs, n_patterns, seed)
    return {"sim.cells": args[1] * args[2]}


def _status(args, kwargs, result):
    event = args[1] if len(args) > 1 else kwargs.get("event")
    status = getattr(event, "status", None)
    return {f"points.{status}": 1} if status else None


def _cache_get(args, kwargs, result):
    return {"cache.gets": 1, "cache.hits": int(result is not None)}


@dataclass(frozen=True)
class Target:
    """One public entry point: ``attr`` is ``name`` or ``Class.method``."""

    module: str
    attr: str
    layer: str
    #: ``(args, kwargs, result) -> {counter: increment}`` or None.
    count: Callable | None = None

    @property
    def span(self) -> str:
        return f"{self.layer}:{self.attr}"


_CACHE = "repro.sim.plan"
_SPEC = "repro.experiments.spec"
_SCEN = "repro.experiments.scenarios"
_EXEC = "repro.sim.executors"

TARGETS: tuple[Target, ...] = (
    Target("repro.experiments.runner", "build_parser", "runner"),
    Target(_SPEC, "stage_study", "spec",
           lambda a, k, r: {"spec.studies": 1, "spec.points": r.n_pending}),
    Target(_SPEC, "StagedStudy.finish", "spec"),
    Target("repro.experiments.analytic", "evaluate_analytic", "analytic",
           lambda a, k, r: {"analytic.evaluated": r[1], "analytic.served": r[2]}),
    Target("repro.experiments.analytic", "AnalyticMemo.flush", "analytic"),
    Target("repro.optimize.allocation", "optimize_allocation_batch", "optimize"),
    Target("repro.optimize.scalar", "minimize_scalar", "optimize"),
    Target("repro.extensions.twolevel", "optimize_segments", "optimize"),
    Target("repro.core.pattern", "pattern_overhead", "core"),
    Target("repro.core.pattern", "expected_pattern_time", "core"),
    Target("repro.sim.plan", "plan_simulations", "plan",
           lambda a, k, r: {"plan.requests": _n(a[0]), "plan.unique": len(r.keys)}),
    Target("repro.sim.plan", "claim_serve_expand", "plan",
           lambda a, k, r: {"plan.jobs": len(r[1])}),
    Target("repro.sim.plan", "merge_request_results", "plan"),
    Target("repro.sim.plan", "request_key", "plan"),
    # Scheduler.events is a generator: each resumption is one span, so its
    # self time excludes the consumer's work between events.
    Target("repro.sim.scheduler", "Scheduler.events", "scheduler"),
    Target(f"{_EXEC}.base", "Executor.submit", "executors"),
    Target(f"{_EXEC}.base", "Executor.next_completed", "executors"),
    Target(f"{_EXEC}.base", "Executor.close", "executors"),
    Target(f"{_EXEC}.pooled", "PoolExecutor.submit", "executors"),
    Target(f"{_EXEC}.pooled", "PoolExecutor.next_completed", "executors"),
    Target(f"{_EXEC}.pooled", "PoolExecutor.close", "executors"),
    Target("repro.sim.plan", "run_job", "executors"),
    Target("repro.sim.vectorized", "simulate_chunk", "sim", _cells_rpc),
    Target("repro.sim.plan", "_batch_single_job", "sim", _cells_rpc),
    Target("repro.sim.batch", "_batch_chunk_worker", "sim", _cells_rpc),
    Target("repro.sim.plan", "_des_slice_job", "sim",
           lambda a, k, r: {"sim.cells": a[3] * len(a[4])}),
    Target("repro.experiments.ext_weibull", "_renewal_overhead", "sim",
           lambda a, k, r: {"sim.cells": a[3] * a[5]}),
    Target("repro.experiments.ext_nodes", "_nodes_overhead", "sim",
           lambda a, k, r: {"sim.cells": a[3] * a[4]}),
    Target(_CACHE, "ResultCache.put_estimate", "cache"),
    Target(_CACHE, "ResultCache.put_value", "cache"),
    Target(_CACHE, "ResultCache.get_estimate", "cache", _cache_get),
    Target(_CACHE, "ResultCache.get_value", "cache", _cache_get),
    Target(_CACHE, "ResultCache.contains", "cache"),
    Target(_CACHE, "ResultCache.verify_entry", "cache"),
    Target("repro.sim.manifest", "RunRecorder.on_event", "manifest"),
    Target("repro.sim.manifest", "RunRecorder.write", "manifest"),
    Target("repro.sim.manifest", "RunRecorder.finish", "manifest"),
    Target("repro.sim.manifest", "RunRecorder.create", "manifest"),
    Target("repro.sim.manifest", "RunRecorder.resume", "manifest"),
    Target("repro.sim.manifest", "validate_resume", "manifest"),
    Target("repro.io.stream", "StreamingEmitter.on_event", "stream", _status),
    Target("repro.io.stream", "StreamingEmitter.pump", "stream"),
    Target("repro.io.stream", "StreamingEmitter.drain", "stream"),
    Target("repro.io.stream", "StreamingEmitter._emit_one", "stream"),
    Target("repro.io.stream", "StreamingEmitter.emit_results", "stream",
           lambda a, k, r: {"stream.tables": _n(a[1])}),
    Target("repro.io.bands", "BandedEmitter._emit_one", "stream"),
    Target(_SPEC, "StagedStudy.ready", "stream"),
    Target(f"{_SCEN}.scenario_set", "ScenarioFamily.ready", "stream"),
    Target(f"{_SCEN}.toml_loader", "load_scenario_toml", "scenarios"),
    Target(f"{_SCEN}.scenario_set", "ScenarioSet.derive", "scenarios"),
    Target(f"{_SCEN}.scenario_set", "ScenarioSet.stage", "scenarios"),
    Target(f"{_SCEN}.scenario_set", "ScenarioFamily.finish", "scenarios"),
    Target(f"{_SCEN}.aggregate", "band_tables", "scenarios"),
)

#: Spans the tracer opens itself, outside any target.
IMPORT_SPAN = "runner:import"
TRACE_LAYER = "trace"
#: The wrappers' own cost, moved out of the layers (see ``main_totals``).
WRAPPER_SPAN = "trace:wrappers"

LAYER_NAMES = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: Layer -> which end-to-end metric its metrics should move, on which workload.
PREDICTIONS: dict[str, str] = {
    "runner": "setup_s on both; wall_s most on figures-paper",
    "spec": "wall_s, first_output_s on figures-paper; ~none on family-resume",
    "analytic": "wall_s on figures-paper; small on family-resume",
    "optimize": "wall_s on figures-paper",
    "core": "wall_s on figures-paper",
    "plan": "wall_s on family-resume",
    "scheduler": "wall_s on family-resume",
    "executors": "wall_s on figures-paper only",
    "sim": "wall_s on figures-paper; <=5% of family-resume",
    "cache": "stores, reads and verify: wall_s on family-resume; none on "
             "figures-paper",
    "manifest": "wall_s on family-resume; none on figures-paper",
    "stream": "wall_s, first_output_s on family-resume",
    "scenarios": "wall_s on family-resume",
}


# -- from spans to metrics ---------------------------------------------------


def layer_of(span: str) -> str:
    return span.split(":", 1)[0]


class SpanTotals:
    """Per span name: calls, inclusive time and self time."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self: dict[str, float] = {}

    def add(self, name: str, total: float, self_s: float, calls: int = 1) -> None:
        self.calls[name] = self.calls.get(name, 0) + calls
        self.total[name] = self.total.get(name, 0.0) + total
        self.self[name] = self.self.get(name, 0.0) + self_s

    def sum(self, table: dict, *names: str) -> float:
        return sum(table.get(n, 0) for n in names)

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, value in self.self.items():
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + value
        return out


def main_totals(names: list[str], spans: list[list], inside: float = 0.0,
                outside: float = 0.0) -> SpanTotals:
    """Self times from the main process's raw ``[name, start, end, parent]``.

    ``inside`` and ``outside`` are the tracer's cost per span, split where
    the span's clock readings fall (``tracer.calibrate``): ``inside`` lands
    in the span's own self time, ``outside`` in its parent's, or outside
    every layer for a top-level span.  Both are taken out of the layers and
    charged to ``WRAPPER_SPAN`` in the trace layer.
    """
    child = [0.0] * len(spans)
    children = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
            children[parent] += 1
    totals = SpanTotals()
    for i, (name_id, start, end, _) in enumerate(spans):
        own = end - start - child[i] - inside - outside * children[i]
        totals.add(names[name_id], end - start, own)
    cost = (inside + outside) * len(spans)
    totals.add(WRAPPER_SPAN, cost, cost, calls=len(spans))
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(main: SpanTotals, workers: SpanTotals, counts: dict,
                      wall: float, untraced_wall: float, tracer_s: float,
                      points: int) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run.

    ``main`` and ``workers`` hold the spans of the traced process and of
    its pool workers, ``counts`` the counters of both, ``points`` the
    points resolved.  Times are self times unless a comment says otherwise.
    """
    m, w, c = main, workers, counts
    self_main = m.layer_self()
    self_workers = w.layer_self()

    attributed = sum(v for k, v in self_main.items() if k != TRACE_LAYER)
    sched_jobs = c.get("scheduler.jobs", 0)
    sim_s = self_main.get("sim", 0.0) + self_workers.get("sim", 0.0)
    on_event_calls = m.calls.get("manifest:RunRecorder.on_event", 0)
    emit_calls = m.calls.get("stream:StreamingEmitter.on_event", 0)
    job_s = m.total.get("executors:run_job", 0.0) + w.total.get("executors:run_job", 0.0)
    return {
        # `import repro.experiments.runner`, and the modules it loads.
        "runner.import_s": m.self.get(IMPORT_SPAN, 0.0),
        "runner.parse_s": m.self.get("runner:build_parser", 0.0),
        "runner.modules": c.get("runner.modules", 0),
        # stage_study runs the declare phases; finish assembles tables.
        "spec.declare_s": m.self.get("spec:stage_study", 0.0),
        "spec.assemble_s": m.self.get("spec:StagedStudy.finish", 0.0),
        "spec.studies": c.get("spec.studies", 0),
        # Simulated points declared.
        "spec.points": c.get("spec.points", 0),
        # evaluate_analytic and the memo flush; optima computed, and the
        # share of analytic lookups the memo served.
        "analytic.s": self_main.get("analytic", 0.0),
        "analytic.evaluated": c.get("analytic.evaluated", 0),
        "analytic.memo_hit_ratio": _ratio(
            c.get("analytic.served", 0),
            c.get("analytic.served", 0) + c.get("analytic.evaluated", 0)),
        "optimize.batch_s": m.self.get("optimize:optimize_allocation_batch", 0.0),
        "optimize.scalar_s": m.sum(m.self, "optimize:minimize_scalar",
                                   "optimize:optimize_segments"),
        "optimize.scalar_calls": m.calls.get("optimize:minimize_scalar", 0),
        # pattern_overhead and expected_pattern_time.
        "core.s": self_main.get("core", 0.0),
        "core.overhead_calls": m.calls.get("core:pattern_overhead", 0),
        # Planning, request keys, serve/claim/expand and merge; unique keys,
        # 1 - unique keys / requests, and chunk jobs expanded.
        "plan.s": self_main.get("plan", 0.0),
        "plan.unique": c.get("plan.unique", 0),
        "plan.dedup_ratio": 1.0 - _ratio(c.get("plan.unique", 0),
                                         c.get("plan.requests", 0))
        if c.get("plan.requests") else 0.0,
        "plan.jobs": c.get("plan.jobs", 0),
        # Inside Scheduler.events; job completions yielded, transient-failure
        # resubmissions.
        "scheduler.self_s": self_main.get("scheduler", 0.0),
        "scheduler.jobs": sched_jobs,
        "scheduler.retries": c.get("scheduler.retries", 0),
        "scheduler.ms_per_job": 1e3 * _ratio(self_main.get("scheduler", 0.0), sched_jobs),
        # run_job inclusive time over all processes; inclusive time waiting
        # in next_completed; executor self time in the main process; job
        # time / (workers x scheduler drain wall).
        "executors.job_s": job_s,
        "executors.wait_s": m.sum(m.total, "executors:Executor.next_completed",
                                  "executors:PoolExecutor.next_completed"),
        "executors.self_s": self_main.get("executors", 0.0),
        "executors.utilization": _ratio(job_s, c.get("scheduler.worker_s", 0.0)),
        # Samplers over all processes; run x pattern cells sampled.
        "sim.s": sim_s,
        "sim.cells": c.get("sim.cells", 0),
        "sim.ns_per_cell": 1e9 * _ratio(sim_s, c.get("sim.cells", 0)),
        # ResultCache: stores, lookups (get_* and contains), verification;
        # fsyncs and files published (bytes) inside cache spans.
        "cache.put_s": m.sum(m.self, "cache:ResultCache.put_estimate",
                             "cache:ResultCache.put_value"),
        "cache.puts": m.sum(m.calls, "cache:ResultCache.put_estimate",
                            "cache:ResultCache.put_value"),
        "cache.get_s": m.sum(m.self, "cache:ResultCache.get_estimate",
                             "cache:ResultCache.get_value", "cache:ResultCache.contains"),
        "cache.gets": c.get("cache.gets", 0),
        "cache.verify_s": m.self.get("cache:ResultCache.verify_entry", 0.0),
        "cache.hit_ratio": _ratio(c.get("cache.hits", 0), c.get("cache.gets", 0)),
        "cache.fsyncs": c.get("cache.fsyncs", 0),
        "cache.bytes": c.get("cache.bytes", 0),
        "cache.files": c.get("cache.files", 0),
        "cache.ms_per_point": 1e3 * _ratio(self_main.get("cache", 0.0), points),
        # RunRecorder journaling, then validate_resume; fsyncs and bytes
        # published inside manifest spans; inclusive on_event time per event.
        "manifest.write_s": self_main.get("manifest", 0.0)
        - m.self.get("manifest:validate_resume", 0.0),
        "manifest.writes": m.calls.get("manifest:RunRecorder.write", 0),
        "manifest.fsyncs": c.get("manifest.fsyncs", 0),
        "manifest.bytes_written": c.get("manifest.bytes", 0),
        "manifest.validate_s": m.self.get("manifest:validate_resume", 0.0),
        "manifest.ms_per_event": 1e3 * _ratio(
            m.total.get("manifest:RunRecorder.on_event", 0.0), on_event_calls),
        # Emitters and ready() probes; inclusive emitter on_event time per event.
        "stream.s": self_main.get("stream", 0.0),
        "stream.ready_probes": m.sum(m.calls, "stream:StagedStudy.ready",
                                     "stream:ScenarioFamily.ready"),
        "stream.tables": c.get("stream.tables", 0),
        "stream.ms_per_event": 1e3 * _ratio(
            m.total.get("stream:StreamingEmitter.on_event", 0.0), emit_calls),
        # TOML load, derive and stage; family band reduction.
        "scenarios.stage_s": m.sum(m.self, "scenarios:load_scenario_toml",
                                   "scenarios:ScenarioSet.derive",
                                   "scenarios:ScenarioSet.stage"),
        "scenarios.aggregate_s": m.sum(m.self, "scenarios:ScenarioFamily.finish",
                                       "scenarios:band_tables"),
        # Traced wall in no layer and not the tracer's: interpreter start
        # and exit, glue.
        "other.unattributed_s": wall - attributed - tracer_s,
        "trace.overhead_s": wall - untraced_wall,
    }


def largest_layer(main: SpanTotals) -> tuple[str, float]:
    """The layer with the largest self time in the main process."""
    layers = {k: v for k, v in main.layer_self().items() if k != TRACE_LAYER}
    name = max(layers, key=layers.get)
    return name, layers[name]
