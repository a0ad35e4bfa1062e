"""Exact paths and accounting invariants of the protocol loop.

The loop (:class:`repro.sim.protocol._RenewalRun`) is driven here by
scripted fail-stop arrivals and scripted silent-error draws, so every
branch of Section II's protocol has a hand-computed wall-clock and time
breakdown.  Random runs are then held to the exact bookkeeping
identities the protocol implies, in every failure regime the loop
serves (exponential, Weibull, per-node pool).
"""

from __future__ import annotations

import math

import pytest

from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts
from repro.sim.nodes import simulate_run_nodes
from repro.sim.protocol import (
    RunStats,
    TimeBreakdown,
    _NeverFails,
    _RenewalRun,
    _RenewalStream,
    simulate_run,
)
from repro.sim.rng import make_rng
from repro.sim.streams import ArrivalProcess, ExponentialArrivals, WeibullArrivals

T, P = 1000.0, 10
C, V, D = 60.0, 10.0, 30.0
R = C  # ResilienceCosts.simple recovers at the checkpoint cost
CLEAN = T + V + C  # one error-free pattern


def _model(lambda_ind: float = 1e-5, f: float = 0.5) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=lambda_ind, fail_stop_fraction=f),
        costs=ResilienceCosts.simple(checkpoint=C, verification=V, downtime=D),
        speedup=AmdahlSpeedup(0.1),
    )


class _ScriptedFailures:
    """Fail-stop arrivals at fixed exposed-time instants, then none."""

    def __init__(self, *instants: float) -> None:
        self._pending = list(instants)

    def peek(self) -> float:
        return self._pending[0] if self._pending else math.inf

    def fail_and_renew(self) -> None:
        self._pending.pop(0)


class _ScriptedRng:
    """Silent-error draws from a script; no strike once it runs out."""

    def __init__(self, *draws: float) -> None:
        self._draws = list(draws)

    def exponential(self, scale: float) -> float:
        return self._draws.pop(0) if self._draws else math.inf


class _NoDraws:
    """A generator that must not be touched."""

    def exponential(self, scale: float) -> float:
        raise AssertionError("the run drew a silent error it cannot have")


class _Constant(ArrivalProcess):
    """Deterministic inter-arrivals cycling through ``gaps``."""

    def __init__(self, *gaps: float) -> None:
        self._gaps = list(gaps)
        self.draws = 0

    def sample_interarrival(self, rng) -> float:
        gap = self._gaps[self.draws % len(self._gaps)]
        self.draws += 1
        return gap

    @property
    def mean(self) -> float:
        return sum(self._gaps) / len(self._gaps)


def _run(failures, rng=None, n_patterns=1, model=None) -> _RenewalRun:
    run = _RenewalRun(model or _model(), T, P, rng or _ScriptedRng(), failures)
    run.run(n_patterns)
    return run


def _breakdown(stats: RunStats) -> dict:
    return {k: v for k, v in vars(stats.breakdown).items() if v}


class TestScriptedFailStop:
    def test_fail_stop_during_work(self):
        stats = _run(_ScriptedFailures(400.0)).stats
        assert stats.total_time == pytest.approx(400.0 + D + R + CLEAN)
        assert _breakdown(stats) == pytest.approx(
            {"useful_work": T, "verification": V, "checkpoint": C,
             "recovery": R, "downtime": D, "lost": 400.0}
        )
        assert (stats.n_attempts, stats.n_fail_stop) == (2, 1)
        assert (stats.n_downtimes, stats.n_recoveries) == (1, 1)

    def test_fail_stop_during_verification_loses_the_whole_segment(self):
        stats = _run(_ScriptedFailures(T + 5.0)).stats
        assert stats.total_time == pytest.approx(T + 5.0 + D + R + CLEAN)
        assert stats.breakdown.lost == pytest.approx(T + 5.0)
        assert stats.breakdown.wasted_work == 0.0
        assert stats.breakdown.verification == pytest.approx(V)

    def test_fail_stop_during_checkpoint_wastes_verified_work(self):
        stats = _run(_ScriptedFailures(T + V + 20.0)).stats
        assert stats.total_time == pytest.approx(T + V + 20.0 + D + R + CLEAN)
        assert _breakdown(stats) == pytest.approx(
            {"useful_work": T, "wasted_work": T, "verification": 2 * V,
             "checkpoint": C, "recovery": R, "downtime": D, "lost": 20.0}
        )

    def test_fail_stop_during_recovery_restarts_it(self):
        stats = _run(_ScriptedFailures(400.0, 430.0)).stats
        assert stats.total_time == pytest.approx(400.0 + D + 30.0 + D + R + CLEAN)
        assert stats.breakdown.lost == pytest.approx(430.0)
        assert (stats.n_fail_stop, stats.n_downtimes) == (2, 2)
        # A failed recovery is retried, not counted, and starts no attempt.
        assert (stats.n_recoveries, stats.n_attempts) == (1, 2)

    def test_downtime_pauses_the_failure_clock(self):
        # The second arrival is 1 s of *exposed* time after the first:
        # the 30 s downtime in between does not bring it closer.
        run = _run(_ScriptedFailures(400.0, 401.0))
        assert run.stats.total_time == pytest.approx(400.0 + D + 1.0 + D + R + CLEAN)
        assert run.wall - run.exposed == pytest.approx(2 * D)

    def test_arrival_at_segment_end_strikes_the_next_segment(self):
        stats = _run(_ScriptedFailures(T + V)).stats
        assert stats.breakdown.wasted_work == pytest.approx(T)
        assert stats.breakdown.lost == 0.0
        assert stats.total_time == pytest.approx(T + V + D + R + CLEAN)

    def test_arrival_at_final_checkpoint_end_is_outside_the_run(self):
        stats = _run(_ScriptedFailures(CLEAN)).stats
        assert stats.total_time == pytest.approx(CLEAN)
        assert stats.n_fail_stop == 0

    def test_arrival_between_patterns_hits_the_next_one(self):
        stats = _run(_ScriptedFailures(CLEAN + 100.0), n_patterns=2).stats
        assert stats.total_time == pytest.approx(2 * CLEAN + 100.0 + D + R)
        assert (stats.n_patterns, stats.n_attempts) == (2, 3)


class TestScriptedSilent:
    def test_detected_silent_error_pays_recovery_without_downtime(self):
        stats = _run(_ScriptedFailures(), _ScriptedRng(500.0)).stats
        assert stats.total_time == pytest.approx(T + V + R + CLEAN)
        assert _breakdown(stats) == pytest.approx(
            {"useful_work": T, "wasted_work": T, "verification": 2 * V,
             "checkpoint": C, "recovery": R}
        )
        assert (stats.n_silent_struck, stats.n_silent_detected) == (1, 1)
        assert (stats.n_downtimes, stats.n_attempts) == (0, 2)

    def test_silent_error_masked_by_fail_stop(self):
        stats = _run(_ScriptedFailures(400.0), _ScriptedRng(100.0)).stats
        assert (stats.n_silent_struck, stats.n_silent_detected) == (1, 0)
        assert stats.total_time == pytest.approx(400.0 + D + R + CLEAN)

    def test_silent_strike_after_the_fail_stop_does_not_count(self):
        stats = _run(_ScriptedFailures(400.0), _ScriptedRng(700.0)).stats
        assert stats.n_silent_struck == 0

    def test_silent_errors_strike_only_the_computation(self):
        # A flip drawn inside the verification window is not an error.
        stats = _run(_ScriptedFailures(), _ScriptedRng(T + 5.0)).stats
        assert stats.n_silent_struck == 0
        assert stats.total_time == pytest.approx(CLEAN)

    def test_fail_stop_in_verification_caps_the_silent_window_at_T(self):
        stats = _run(_ScriptedFailures(T + 5.0), _ScriptedRng(T + 2.0)).stats
        assert stats.n_silent_struck == 0

    def test_no_silent_rate_draws_nothing(self):
        stats = _run(_ScriptedFailures(400.0), _NoDraws(), model=_model(1e-5, 1.0)).stats
        assert stats.n_fail_stop == 1

    def test_error_free_run_draws_nothing(self):
        stats = simulate_run(_model(0.0), T, P, 3, _NoDraws())
        assert stats.total_time == pytest.approx(3 * CLEAN)


class TestStreams:
    def test_renewal_stream_accumulates_interarrivals(self):
        stream = _RenewalStream(_Constant(5.0, 7.0, 11.0), make_rng(1))
        seen = [stream.peek()]
        for _ in range(3):
            stream.fail_and_renew()
            seen.append(stream.peek())
        assert seen == [5.0, 12.0, 23.0, 28.0]

    def test_renewal_stream_draws_only_on_renewal(self):
        law = _Constant(5.0)
        stream = _RenewalStream(law, make_rng(1))
        stream.peek()
        stream.peek()
        assert law.draws == 1
        stream.fail_and_renew()
        assert law.draws == 2

    def test_never_fails(self):
        assert _NeverFails().peek() == math.inf

    def test_explicit_exponential_law_is_the_default_stream(self):
        model = _model(3e-5, 0.5)
        law = ExponentialArrivals(float(model.errors.fail_stop_rate(20)))
        a = simulate_run(model, 1500.0, 20, 30, make_rng(7))
        b = simulate_run(model, 1500.0, 20, 30, make_rng(7), fail_stop=law)
        assert a == b

    def test_explicit_law_overrides_the_model_rate(self):
        # The model has no fail-stop errors; the law alone supplies them.
        law = WeibullArrivals.from_mean(0.7, 2000.0)
        stats = simulate_run(_model(3e-5, 0.0), 1500.0, 20, 30, make_rng(8), fail_stop=law)
        assert stats.n_fail_stop > 0
        assert stats.n_downtimes == stats.n_fail_stop


class TestRecords:
    def test_breakdown_total_sums_every_activity(self):
        parts = TimeBreakdown(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        assert parts.total == 127.0
        assert TimeBreakdown().total == 0.0

    def test_run_stats_breakdowns_are_not_shared(self):
        a = RunStats(0.0, 0, 0, 0, 0, 0, 0, 0)
        b = RunStats(0.0, 0, 0, 0, 0, 0, 0, 0)
        a.breakdown.downtime += 1.0
        assert b.breakdown.downtime == 0.0


_RT, _RP, _RN = 1500.0, 20, 60


def _weibull(model: PatternModel, shape: float) -> WeibullArrivals:
    return WeibullArrivals.from_mean(shape, 1.0 / float(model.errors.fail_stop_rate(_RP)))


#: Every failure regime the loop serves, each busy enough that every
#: branch of the protocol runs many times over the 60 patterns.
REGIMES = {
    "fail-stop-only": lambda rng: simulate_run(_model(2e-5, 1.0), _RT, _RP, _RN, rng),
    "silent-only": lambda rng: simulate_run(_model(2e-5, 0.0), _RT, _RP, _RN, rng),
    "mixed": lambda rng: simulate_run(_model(2e-5, 0.5), _RT, _RP, _RN, rng),
    "weibull": lambda rng: simulate_run(
        _model(2e-5, 0.5), _RT, _RP, _RN, rng, fail_stop=_weibull(_model(2e-5, 0.5), 0.7)
    ),
    "node-pool": lambda rng: simulate_run_nodes(_model(2e-5, 0.5), _RT, _RP, _RN, rng),
}


@pytest.fixture(params=sorted(REGIMES), scope="module")
def regime_stats(request) -> tuple[str, RunStats]:
    return request.param, REGIMES[request.param](make_rng(2024))


class TestRunInvariants:
    def test_regime_exercises_its_errors(self, regime_stats):
        name, stats = regime_stats
        assert stats.n_patterns == _RN
        assert (stats.n_fail_stop > 0) is (name != "silent-only")
        assert (stats.n_silent_struck > 0) is (name != "fail-stop-only")

    def test_every_fail_stop_pays_one_downtime(self, regime_stats):
        _, stats = regime_stats
        assert stats.n_downtimes == stats.n_fail_stop
        assert stats.breakdown.downtime == pytest.approx(stats.n_downtimes * D)

    def test_every_failed_attempt_pays_one_recovery(self, regime_stats):
        _, stats = regime_stats
        assert stats.n_recoveries == stats.n_attempts - stats.n_patterns
        assert stats.breakdown.recovery == pytest.approx(stats.n_recoveries * R)

    def test_completed_patterns_account_useful_work_and_checkpoints(self, regime_stats):
        _, stats = regime_stats
        assert stats.breakdown.useful_work == pytest.approx(stats.n_patterns * _RT)
        assert stats.breakdown.checkpoint == pytest.approx(stats.n_patterns * C)

    def test_every_completed_verification_is_accounted(self, regime_stats):
        # Verified segments either complete a pattern or are wasted whole
        # (silent detection, fail-stop in the checkpoint).
        _, stats = regime_stats
        wasted_segments = stats.breakdown.wasted_work / _RT
        assert wasted_segments == pytest.approx(round(wasted_segments))
        assert wasted_segments >= stats.n_silent_detected
        assert stats.breakdown.verification == pytest.approx(
            (stats.n_patterns + wasted_segments) * V
        )

    def test_silent_detections_are_a_subset_of_strikes(self, regime_stats):
        _, stats = regime_stats
        assert stats.n_silent_detected <= stats.n_silent_struck
        assert stats.n_silent_detected <= stats.n_attempts - stats.n_patterns

    def test_breakdown_sums_to_total_time(self, regime_stats):
        _, stats = regime_stats
        assert stats.breakdown.total == pytest.approx(stats.total_time, rel=1e-12)
