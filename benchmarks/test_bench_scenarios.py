"""Replicate-dedup savings of the scenario lab.

A scenario set's replicate 0 keeps the master seed, so its points are
plan-key-identical to a plain run of the base study: against a warm
base-grid cache, an N-replicate scenario set computes only the N-1
resampled realizations and is served the base one.  The acceptance
bar: with 3 replicates of the Figure 5 grid, the warm-base run must
beat the cold run (which computes all 3) by
``REPRO_BENCH_SCENARIO_FLOOR`` (default 1.15x locally; the ideal gain
at 3 replicates is 1.5x).  The workload is pure single-process compute
(``jobs=1``), so the bench is 1-CPU-safe: the gain measures cache
dedup, not parallelism.  Exact (noise-free) assertions pin the served
point count and the value equality of both runs.  Every measurement
lands in ``BENCH_scenarios.json`` (path overridable via
``REPRO_BENCH_SCENARIO_JSON``) so CI can archive the perf trajectory.
"""

from __future__ import annotations

import os
import time

import pytest

import dataclasses

from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.registry import REGISTRY
from repro.experiments.scenarios import Resample, ScenarioSet
from repro.experiments.spec import stage_study
from repro.sim.montecarlo import Fidelity

#: Warm-base-over-cold floor (ideal 1.5x at 3 replicates; derate on CI).
SCENARIO_FLOOR = float(os.environ.get("REPRO_BENCH_SCENARIO_FLOOR", "1.15"))

REPLICATES = 3

#: Alternating cold/warm timing pairs; each side keeps its best run.
TIMING_REPS = 5

#: A simulation-bound workload, mirroring the sleep-bound waves of the
#: scheduler bench: the gain must measure replicate *reuse*, so the
#: per-point work is one batch-sampler call at a fixed pattern — the
#: numerical optimiser (recomputed per member, never cached, ~20 ms a
#: point) would otherwise drown out the sampling the cache saves.
SETTINGS = SimSettings(
    fidelity=Fidelity(n_runs=1000, n_patterns=500, name="bench"), method="batch"
)


def _bench_eval(ctx, model, needed):
    """Simulate the fixed pattern PATTERN(3600 s, 512) under ``model``."""
    return {"H_sim": ctx.pipeline.simulate_mean(model, 3600.0, 512.0, ctx.settings)}


#: The fig5 error-rate grid over scenarios 1/3/5, one simulated point
#: per grid cell (27 per member), no per-point optimisation.
BASE_SPEC = dataclasses.replace(
    REGISTRY["fig5"],
    name="bench_grid",
    point_eval=_bench_eval,
    panels=(
        dataclasses.replace(
            REGISTRY["fig5"].panels[2], columns=("H_sim",), notes=()
        ),
    ),
)

RESULTS: dict[str, float | int | str] = {
    "study": "fig5 error-rate grid, fixed pattern, batch sampler",
    "replicates": REPLICATES,
    "fidelity": f"{SETTINGS.fidelity.n_runs}x{SETTINGS.fidelity.n_patterns}",
}


@pytest.fixture(scope="module", autouse=True)
def write_bench_json(bench_writer):
    yield
    bench_writer("REPRO_BENCH_SCENARIO_JSON", "BENCH_scenarios.json", RESULTS)


def _scenario_run(cache_dir):
    """(elapsed, band tables, served/computed counts) of one full set."""
    sset = ScenarioSet("bench", BASE_SPEC, [Resample(REPLICATES)])
    tallies = {"served": 0, "computed": 0}
    with SimulationPipeline(jobs=1, cache_dir=cache_dir) as pipe:
        start = time.perf_counter()
        families = sset.stage(pipe, SETTINGS)
        pipe.resolve(on_event=lambda e: tallies.__setitem__(
            e.status, tallies[e.status] + 1))
        tables = [t.table() for family in families for t in family.finish()]
        elapsed = time.perf_counter() - start
    return elapsed, tables, tallies


def test_replicate_dedup_savings(wallclock_assertions, tmp_path):
    """Acceptance: warm base grid -> N-replicate set >= floor x faster."""
    import shutil

    # Warm the base grid only — the plain study a user already ran.
    warm_cache = tmp_path / "warm"
    with SimulationPipeline(jobs=1, cache_dir=warm_cache) as pipe:
        stage_study(BASE_SPEC, settings=SETTINGS, pipeline=pipe)
        pipe.resolve()
    base_points = len(list(warm_cache.glob("*.npz")))

    # Cold runs (every replicate computed) and warm-base runs alternate
    # in one loop, best of TIMING_REPS each, so drift in machine load
    # between two separate timing phases cannot skew their ratio.  A
    # cold run starts from an empty directory; a warm one from its own
    # copy of the base-only cache, because the run writes the resampled
    # replicates back and a second pass over the same directory would
    # measure the fully-warm case instead.
    t_cold = t_warm = float("inf")
    for i in range(TIMING_REPS):
        elapsed, cold_tables, cold_tallies = _scenario_run(tmp_path / f"cold{i}")
        t_cold = min(t_cold, elapsed)
        snapshot = tmp_path / f"warm{i}"
        shutil.copytree(warm_cache, snapshot)
        elapsed, warm_tables, warm_tallies = _scenario_run(snapshot)
        t_warm = min(t_warm, elapsed)
    assert cold_tallies["served"] == 0

    # Exact: replicate 0 is served from the base run's cache, and the
    # dedup changes wall-clock only, never the aggregated bands.
    assert warm_tallies["served"] == base_points > 0
    assert warm_tables == cold_tables

    gain = t_cold / t_warm
    RESULTS["base_points"] = base_points
    RESULTS["cold_seconds"] = t_cold
    RESULTS["warm_base_seconds"] = t_warm
    RESULTS["replicate_dedup_gain"] = gain
    print(
        f"\n  {REPLICATES} replicates x {base_points} points: cold "
        f"{t_cold * 1e3:.0f} ms, warm base {t_warm * 1e3:.0f} ms, "
        f"dedup gain {gain:.2f}x"
    )
    assert gain >= SCENARIO_FLOOR, (
        f"warm-base scenario set only {gain:.2f}x over cold "
        f"(floor {SCENARIO_FLOOR}x)"
    )


def test_scenario_report_cli_wallclock(wallclock_assertions, tmp_path):
    """Record the example scenario report end to end (FAST, serial)."""
    from contextlib import redirect_stdout
    from io import StringIO
    from pathlib import Path

    from repro.experiments.runner import main

    example = Path(__file__).parents[1] / "examples" / "scenario_jitter.toml"
    start = time.perf_counter()
    with redirect_stdout(StringIO()) as out:
        code = main(
            ["scenario", "report", str(example),
             "--cache-dir", str(tmp_path / "cache")]
        )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "[bands x6]" in out.getvalue()
    RESULTS["report_seconds"] = elapsed
    print(f"\n  scenario report (6 members): {elapsed:.2f} s")
    # Generous ceiling: catches pathological regressions, not noise.
    assert elapsed < 120.0
