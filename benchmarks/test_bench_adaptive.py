"""Simulated-work savings of adaptive replicate scheduling.

The fixed path simulates every declared replicate of every variant
over the full grid; the adaptive engine stages replicates in waves and
stops staging a grid row once its relative band width stabilized
within the tolerance.  The acceptance bar: on the fig5 error-rate
grid, an adaptive run capped at the same ``max_replicates`` must
simulate at least ``REPRO_BENCH_ADAPTIVE_FLOOR`` (default 2x) fewer
replicate-points than the fixed run *and* converge every grid row, so
the saving is not bought with an unconverged band.

The metric is count-based (member-rows staged, tied to the pipeline's
``computed`` tally exactly), not wall-clock, so the bench is 1-CPU-safe
and immune to scheduler noise.  Every measurement lands in
``BENCH_adaptive.json`` (path overridable via
``REPRO_BENCH_ADAPTIVE_JSON``) so CI can archive the perf trajectory.
"""

from __future__ import annotations

import os
import time

import pytest

import dataclasses

from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.registry import REGISTRY
from repro.experiments.scenarios import (
    AdaptivePolicy,
    AdaptiveRun,
    Resample,
    ScenarioSet,
)
from repro.sim.montecarlo import Fidelity

#: Required simulated-work reduction of adaptive over fixed (ideal on
#: this workload is 3.0x: 4 of 12 replicates suffice for every row).
ADAPTIVE_FLOOR = float(os.environ.get("REPRO_BENCH_ADAPTIVE_FLOOR", "2.0"))

#: The fixed path's declared replicate count — also the adaptive cap,
#: so both runs answer the same question with the same worst case.
MAX_REPLICATES = 12

#: A deliberately *tight* tolerance (2%, below the 5% CLI default):
#: the bands of this workload stabilize fast, and a tight tolerance
#: shows the saving is not an artifact of a loose stopping rule.
POLICY = AdaptivePolicy(
    min_replicates=3,
    max_replicates=MAX_REPLICATES,
    wave=1,
    band_tol=0.02,
    stable_waves=1,
)

#: Same simulation-bound workload as the scenario-dedup bench: one
#: batch-sampler call at a fixed pattern per grid cell, no per-point
#: optimiser, so the counts below map 1:1 onto sampling work.
SETTINGS = SimSettings(
    fidelity=Fidelity(n_runs=1000, n_patterns=500, name="bench"), method="batch"
)


def _bench_eval(ctx, model, needed):
    """Simulate the fixed pattern PATTERN(3600 s, 512) under ``model``."""
    return {"H_sim": ctx.pipeline.simulate_mean(model, 3600.0, 512.0, ctx.settings)}


#: The fig5 error-rate grid over scenarios 1/3/5, one simulated point
#: per grid cell (27 per full-grid member).
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
    "max_replicates": MAX_REPLICATES,
    "policy": (
        f"min {POLICY.min_replicates}, wave {POLICY.wave}, "
        f"band tol {POLICY.band_tol:g}, {POLICY.stable_waves} stable"
    ),
    "fidelity": f"{SETTINGS.fidelity.n_runs}x{SETTINGS.fidelity.n_patterns}",
}


@pytest.fixture(scope="module", autouse=True)
def write_bench_json(bench_writer):
    yield
    bench_writer("REPRO_BENCH_ADAPTIVE_JSON", "BENCH_adaptive.json", RESULTS)


def _tally_events(tallies):
    return lambda e: tallies.__setitem__(e.status, tallies[e.status] + 1)


def _fixed_run(cache_dir):
    """(elapsed, computed-point count) of the fixed 12-replicate set."""
    sset = ScenarioSet("bench", BASE_SPEC, [Resample(MAX_REPLICATES)])
    tallies = {"served": 0, "computed": 0}
    with SimulationPipeline(jobs=1, cache_dir=cache_dir) as pipe:
        start = time.perf_counter()
        families = sset.stage(pipe, SETTINGS)
        pipe.resolve(on_event=_tally_events(tallies))
        for family in families:
            family.finish()
        elapsed = time.perf_counter() - start
    return elapsed, tallies["computed"]


def _adaptive_run(cache_dir):
    """(elapsed, run summary, computed-point count) of the adaptive set."""
    sset = ScenarioSet("bench", BASE_SPEC, [Resample(MAX_REPLICATES)])
    tallies = {"served": 0, "computed": 0}
    tally = _tally_events(tallies)
    with SimulationPipeline(jobs=1, cache_dir=cache_dir) as pipe:
        start = time.perf_counter()
        run = AdaptiveRun(sset, POLICY, pipe, SETTINGS)
        run.stage_initial()

        def on_event(event):
            tally(event)
            run.on_event(event)

        pipe.resolve(on_event=on_event, on_round=run.on_round)
        run.finalize()
        for family in run.families:
            family.finish()
        elapsed = time.perf_counter() - start
    return elapsed, run.summary(), tallies["computed"]


def test_adaptive_work_reduction(tmp_path):
    """Acceptance: adaptive stages >= floor x fewer replicate-points."""
    t_fixed, fixed_computed = _fixed_run(tmp_path / "fixed")
    t_adaptive, summary, adaptive_computed = _adaptive_run(tmp_path / "adaptive")

    # The saving must not be bought with an unconverged band: every
    # grid row met the band tolerance before staging stopped.
    assert summary["n_rows"] > 0
    assert summary["rows_converged"] == summary["n_rows"]

    # The count metric is real simulated work, not bookkeeping: each
    # member-row is one grid value x 3 scenario columns, all computed
    # (the caches start cold, so nothing is served).
    cells_per_row = fixed_computed // summary["fixed_rows"]
    assert fixed_computed == summary["fixed_rows"] * cells_per_row
    assert adaptive_computed == summary["rows_staged"] * cells_per_row

    reduction = summary["fixed_rows"] / summary["rows_staged"]
    RESULTS["n_rows"] = summary["n_rows"]
    RESULTS["rows_converged"] = summary["rows_converged"]
    RESULTS["fixed_member_rows"] = summary["fixed_rows"]
    RESULTS["adaptive_member_rows"] = summary["rows_staged"]
    RESULTS["fixed_points"] = fixed_computed
    RESULTS["adaptive_points"] = adaptive_computed
    RESULTS["fixed_seconds"] = t_fixed
    RESULTS["adaptive_seconds"] = t_adaptive
    RESULTS["work_reduction"] = reduction
    print(
        f"\n  fixed {fixed_computed} points ({t_fixed:.2f} s), adaptive "
        f"{adaptive_computed} points ({t_adaptive:.2f} s), "
        f"{summary['rows_converged']}/{summary['n_rows']} rows converged, "
        f"reduction {reduction:.2f}x"
    )
    assert reduction >= ADAPTIVE_FLOOR, (
        f"adaptive staged only {reduction:.2f}x fewer member-rows than "
        f"fixed (floor {ADAPTIVE_FLOOR}x)"
    )
