"""Event-driven scheduling vs wave barriers: the overlap gain.

The wave-barriered dispatcher drained one study at a time: every job of
a wave had to finish before the next wave's jobs could start, so a
single long job left pool workers idle at each wave tail.  The
:class:`repro.sim.scheduler.Scheduler` fuses all waves into one global
in-flight window, so the next wave's jobs backfill the idle workers.

The measured workload makes that tail explicit: several waves of
deliberately uneven sleep-bound jobs (one long straggler plus short
fillers per wave) on a two-worker pool.  Sleeps overlap perfectly even
on a single-core host, so the bench is 1-CPU-safe: the gain measures
scheduling, not hardware parallelism.  Acceptance: the global window
must beat per-wave barriers by ``REPRO_BENCH_SCHED_FLOOR`` (default
1.1x locally; derate on noisy shared runners).  Every measurement
lands in ``BENCH_scheduler.json`` (path overridable via
``REPRO_BENCH_SCHED_JSON``) so CI can archive the perf trajectory.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.sim.executors import PoolExecutor
from repro.sim.scheduler import Scheduler

#: Scheduled-over-waved floor (acceptance: 1.1x; derate on shared CI).
SCHED_FLOOR = float(os.environ.get("REPRO_BENCH_SCHED_FLOOR", "1.1"))

WORKERS = 2
MAX_INFLIGHT = 8

#: Wave shapes: one straggler + short fillers, mirroring a study whose
#: slowest chunk used to stall every study behind it.
WAVES = [[0.08, 0.01, 0.01, 0.01] for _ in range(4)]

RESULTS: dict[str, float | int | str] = {
    "workers": WORKERS,
    "max_inflight": MAX_INFLIGHT,
    "waves": len(WAVES),
    "jobs_per_wave": len(WAVES[0]),
}


@pytest.fixture(scope="module", autouse=True)
def write_bench_json(bench_writer):
    yield
    bench_writer("REPRO_BENCH_SCHED_JSON", "BENCH_scheduler.json", RESULTS)


def _nap(args):
    """One sleep-bound job (module-level: picklable)."""
    duration, index = args
    time.sleep(duration)
    return index


def _jobs(wave_index, wave):
    return [
        (_nap, ((duration, (wave_index, j)),), {})
        for j, duration in enumerate(wave)
    ]


def _pool_available() -> bool:
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=2) as pool:
            return list(pool.map(abs, [-1])) == [1]
    except Exception:  # pragma: no cover - sandbox-dependent
        return False


def _run_waved(executor) -> tuple[float, set]:
    """One scheduler drain per wave: the historical barrier semantics."""
    seen = set()
    start = time.perf_counter()
    for i, wave in enumerate(WAVES):
        scheduler = Scheduler(executor, max_inflight=MAX_INFLIGHT)
        for job in _jobs(i, wave):
            scheduler.add(job)
        for _, result in scheduler.events():  # barrier: drain the wave
            seen.add(result)
    return time.perf_counter() - start, seen


def _run_scheduled(executor) -> tuple[float, set]:
    """All waves fused into one global in-flight window."""
    seen = set()
    scheduler = Scheduler(executor, max_inflight=MAX_INFLIGHT)
    start = time.perf_counter()
    for i, wave in enumerate(WAVES):
        for job in _jobs(i, wave):
            scheduler.add(job)
    for _, result in scheduler.events():
        seen.add(result)
    return time.perf_counter() - start, seen


def test_global_window_beats_wave_barriers(wallclock_assertions):
    """Acceptance: fused dispatch >= SCHED_FLOOR x over per-wave barriers."""
    if not _pool_available():
        pytest.skip("no process pool on this host: nothing to overlap")
    expected = {(i, j) for i in range(len(WAVES)) for j in range(len(WAVES[0]))}
    t_waved = t_sched = float("inf")
    with PoolExecutor(WORKERS) as executor:
        executor.submit(_nap, (0.0, (0, 0)))  # spawn the pool outside timing
        executor.next_completed().result()
        for _ in range(2):
            elapsed, seen = _run_waved(executor)
            assert seen == expected
            t_waved = min(t_waved, elapsed)
            elapsed, seen = _run_scheduled(executor)
            assert seen == expected
            t_sched = min(t_sched, elapsed)
    gain = t_waved / t_sched
    RESULTS["waved_seconds"] = t_waved
    RESULTS["scheduled_seconds"] = t_sched
    RESULTS["overlap_gain"] = gain
    print(
        f"\n  {len(WAVES)} waves x {len(WAVES[0])} jobs: waved "
        f"{t_waved * 1e3:.0f} ms, scheduled {t_sched * 1e3:.0f} ms, "
        f"overlap gain {gain:.2f}x"
    )
    assert gain >= SCHED_FLOOR, (
        f"global in-flight window only {gain:.2f}x over wave barriers "
        f"(floor {SCHED_FLOOR}x)"
    )


def test_scheduled_all_cli_wallclock(wallclock_assertions):
    """Record the event-driven full evaluation (FAST, two jobs)."""
    from contextlib import redirect_stdout
    from io import StringIO

    from repro.experiments.runner import main

    start = time.perf_counter()
    with redirect_stdout(StringIO()) as out:
        code = main(["all", "--jobs", "2"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "[done in" in out.getvalue()
    RESULTS["all_jobs2_scheduled_seconds"] = elapsed
    print(f"\n  all --jobs 2: {elapsed:.2f} s")
    # Generous ceiling: catches pathological regressions, not noise.
    assert elapsed < 120.0
