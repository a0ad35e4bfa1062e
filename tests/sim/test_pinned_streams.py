"""Pinned random streams of the simulators (values recorded at v1.15.0;
``overhead-des`` re-recorded at v1.24.0, when ``des`` became the
renewal loop).

Statistical tests tolerate a reordered RNG stream; these do not.  Each
case pins the exact :class:`~repro.sim.protocol.RunStats` of one run
(every counter and breakdown float, floats as ``float.hex()``) or the
exact :class:`~repro.sim.results.OverheadEstimate` of one point, so any
change to the order or number of draws — in the protocol loop, under a
renewal or a node-level failure stream, or in how :func:`~repro.sim.montecarlo.simulate_overhead` maps a
point to jobs — fails here even where the FAST goldens do not reach.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.sim.batch as batch_mod
from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts
from repro.platforms import build_model
from repro.sim.montecarlo import simulate_overhead
from repro.sim.nodes import simulate_run_nodes
from repro.sim.protocol import simulate_run
from repro.sim.rng import make_rng
from repro.sim.streams import WeibullArrivals

T, P, N = 1500.0, 20, 40
LAM_IND, F = 3e-5, 0.5


def _model(f: float = F) -> PatternModel:
    return PatternModel(
        errors=ErrorModel(lambda_ind=LAM_IND, fail_stop_fraction=f),
        costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0, downtime=30.0),
        speedup=AmdahlSpeedup(0.1),
    )


def _weibull(shape: float, rate: float) -> WeibullArrivals:
    return WeibullArrivals.from_mean(shape, 1.0 / rate)


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _stats_pin(stats) -> dict:
    pin = {k: _hex(v) for k, v in dataclasses.asdict(stats).items() if k != "breakdown"}
    pin["breakdown"] = {k: _hex(v) for k, v in dataclasses.asdict(stats.breakdown).items()}
    return pin


def _estimate_pin(est) -> dict:
    fields = ("mean", "std", "stderr", "ci_low", "ci_high", "n_runs")
    return {k: _hex(getattr(est, k)) for k in fields}


def _hera_weibull():
    hera = build_model("Hera", 3, lambda_ind=2e-7)
    law = _weibull(0.5, float(hera.errors.fail_stop_rate(300.0)))
    return simulate_run(hera, 8000.0, 300.0, 100, make_rng(24), fail_stop=law)


RUNS = {
    "renewal-exponential": lambda: simulate_run(_model(), T, P, N, make_rng(21)),
    "renewal-weibull-0.7": lambda: simulate_run(
        _model(), T, P, N, make_rng(22),
        fail_stop=_weibull(0.7, float(_model().errors.fail_stop_rate(P))),
    ),
    "renewal-silent-only": lambda: simulate_run(_model(f=0.0), T, P, N, make_rng(23)),
    "renewal-hera-weibull-0.5": _hera_weibull,
    "nodes-exponential": lambda: simulate_run_nodes(_model(), T, P, N, make_rng(31)),
    "nodes-weibull-stationary": lambda: simulate_run_nodes(
        _model(), T, P, N, make_rng(32), node_process=_weibull(0.7, LAM_IND * F)
    ),
    "nodes-weibull-fresh": lambda: simulate_run_nodes(
        _model(), T, P, N, make_rng(33),
        node_process=_weibull(0.7, LAM_IND * F), stationary=False,
    ),
}

#: ``(method, n_runs, n_patterns, seed, MAX_CHUNK_ELEMENTS or None)``.
POINTS = {
    "overhead-auto": ("auto", 20, 50, 1, None),
    "overhead-batch": ("batch", 20, 50, 1, None),
    "overhead-vectorized": ("vectorized", 20, 50, 1, None),
    "overhead-des": ("des", 6, 20, 1, None),
    "overhead-batch-chunked": ("batch", 30, 20, 5, 500),
    "overhead-vectorized-chunked": ("vectorized", 30, 20, 5, 500),
}

PINS = {'renewal-exponential': {'total_time': '0x1.145eb5e711cd4p+17',
                         'n_patterns': 40,
                         'n_attempts': 107,
                         'n_fail_stop': 40,
                         'n_silent_struck': 35,
                         'n_silent_detected': 29,
                         'n_recoveries': 67,
                         'n_downtimes': 40,
                         'breakdown': {'useful_work': '0x1.d4c0000000000p+15',
                                       'wasted_work': '0x1.5f90000000000p+15',
                                       'verification': '0x1.5e00000000000p+9',
                                       'checkpoint': '0x1.2c00000000000p+11',
                                       'recovery': '0x1.f680000000000p+11',
                                       'downtime': '0x1.2c00000000000p+10',
                                       'lost': '0x1.b855af388e6a3p+14'}},
 'renewal-weibull-0.7': {'total_time': '0x1.be0a5200c1de5p+16',
                         'n_patterns': 40,
                         'n_attempts': 88,
                         'n_fail_stop': 30,
                         'n_silent_struck': 24,
                         'n_silent_detected': 19,
                         'n_recoveries': 48,
                         'n_downtimes': 30,
                         'breakdown': {'useful_work': '0x1.d4c0000000000p+15',
                                       'wasted_work': '0x1.bd50000000000p+14',
                                       'verification': '0x1.2700000000000p+9',
                                       'checkpoint': '0x1.2c00000000000p+11',
                                       'recovery': '0x1.6800000000000p+11',
                                       'downtime': '0x1.c200000000000p+9',
                                       'lost': '0x1.2791480307794p+14'}},
 'renewal-silent-only': {'total_time': '0x1.170b000000000p+17',
                         'n_patterns': 40,
                         'n_attempts': 91,
                         'n_fail_stop': 0,
                         'n_silent_struck': 51,
                         'n_silent_detected': 51,
                         'n_recoveries': 51,
                         'n_downtimes': 0,
                         'breakdown': {'useful_work': '0x1.d4c0000000000p+15',
                                       'wasted_work': '0x1.2ad4000000000p+16',
                                       'verification': '0x1.c700000000000p+9',
                                       'checkpoint': '0x1.2c00000000000p+11',
                                       'recovery': '0x1.7e80000000000p+11',
                                       'downtime': '0x0.0p+0',
                                       'lost': '0x0.0p+0'}},
 'renewal-hera-weibull-0.5': {'total_time': '0x1.3423e689e1001p+20',
                              'n_patterns': 100,
                              'n_attempts': 152,
                              'n_fail_stop': 12,
                              'n_silent_struck': 40,
                              'n_silent_detected': 40,
                              'n_recoveries': 52,
                              'n_downtimes': 12,
                              'breakdown': {'useful_work': '0x1.86a0000000000p+19',
                                            'wasted_work': '0x1.3880000000000p+18',
                                            'verification': '0x1.0d8000000000cp+11',
                                            'checkpoint': '0x1.d4c0000000000p+14',
                                            'recovery': '0x1.e780000000000p+13',
                                            'downtime': '0x1.5180000000000p+15',
                                            'lost': '0x1.8fe4d13c2005fp+15'}},
 'nodes-exponential': {'total_time': '0x1.d62e39623db80p+16',
                       'n_patterns': 40,
                       'n_attempts': 97,
                       'n_fail_stop': 40,
                       'n_silent_struck': 23,
                       'n_silent_detected': 18,
                       'n_recoveries': 57,
                       'n_downtimes': 40,
                       'breakdown': {'useful_work': '0x1.d4c0000000000p+15',
                                     'wasted_work': '0x1.ec30000000000p+14',
                                     'verification': '0x1.3100000000000p+9',
                                     'checkpoint': '0x1.2c00000000000p+11',
                                     'recovery': '0x1.ab80000000000p+11',
                                     'downtime': '0x1.2c00000000000p+10',
                                     'lost': '0x1.4bd0e588f6e00p+14'}},
 'nodes-weibull-stationary': {'total_time': '0x1.75c07b3ad1db7p+17',
                              'n_patterns': 40,
                              'n_attempts': 158,
                              'n_fail_stop': 72,
                              'n_silent_struck': 61,
                              'n_silent_detected': 48,
                              'n_recoveries': 118,
                              'n_downtimes': 72,
                              'breakdown': {'useful_work': '0x1.d4c0000000000p+15',
                                            'wasted_work': '0x1.1f1c000000000p+16',
                                            'verification': '0x1.bd00000000000p+9',
                                            'checkpoint': '0x1.2c00000000000p+11',
                                            'recovery': '0x1.ba80000000000p+12',
                                            'downtime': '0x1.0e00000000000p+11',
                                            'lost': '0x1.6225eceb476dep+15'}},
 'nodes-weibull-fresh': {'total_time': '0x1.0e01489e3c7f2p+17',
                         'n_patterns': 40,
                         'n_attempts': 112,
                         'n_fail_stop': 50,
                         'n_silent_struck': 34,
                         'n_silent_detected': 22,
                         'n_recoveries': 72,
                         'n_downtimes': 50,
                         'breakdown': {'useful_work': '0x1.d4c0000000000p+15',
                                       'wasted_work': '0x1.01d0000000000p+15',
                                       'verification': '0x1.3600000000000p+9',
                                       'checkpoint': '0x1.2c00000000000p+11',
                                       'recovery': '0x1.0e00000000000p+12',
                                       'downtime': '0x1.7700000000000p+10',
                                       'lost': '0x1.1c652278f1fc8p+15'}},
 'overhead-auto': {'mean': '0x1.bd5de9e4fdfa2p-4',
                   'std': '0x1.4ca60205b6d13p-9',
                   'stderr': '0x1.2987a346a7d5dp-11',
                   'ci_low': '0x1.b8cf9e3da28e9p-4',
                   'ci_high': '0x1.c1ec358c5965bp-4',
                   'n_runs': 20},
 'overhead-batch': {'mean': '0x1.bd5de9e4fdfa2p-4',
                    'std': '0x1.4ca60205b6d13p-9',
                    'stderr': '0x1.2987a346a7d5dp-11',
                    'ci_low': '0x1.b8cf9e3da28e9p-4',
                    'ci_high': '0x1.c1ec358c5965bp-4',
                    'n_runs': 20},
 'overhead-vectorized': {'mean': '0x1.c24bb95147033p-4',
                         'std': '0x1.add91aeaac8b7p-9',
                         'stderr': '0x1.8077c1ae6ed33p-11',
                         'ci_low': '0x1.bc68a348031bcp-4',
                         'ci_high': '0x1.c82ecf5a8aeaap-4',
                         'n_runs': 20},
 'overhead-des': {'mean': '0x1.baf32203d7549p-4',
                  'std': '0x1.67fb4541e24a3p-9',
                  'stderr': '0x1.25ec769b532e1p-10',
                  'ci_low': '0x1.b1f2d04335180p-4',
                  'ci_high': '0x1.c3f373c479912p-4',
                  'n_runs': 6},
 'overhead-batch-chunked': {'mean': '0x1.bf43f184bd0bbp-4',
                            'std': '0x1.514b5f9d85ba5p-8',
                            'stderr': '0x1.eca6694c694afp-11',
                            'ci_low': '0x1.b7b8ca6e38a46p-4',
                            'ci_high': '0x1.c6cf189b41730p-4',
                            'n_runs': 30},
 'overhead-vectorized-chunked': {'mean': '0x1.bc883658df10fp-4',
                                 'std': '0x1.bf958ed4c5811p-9',
                                 'stderr': '0x1.46de89e217af4p-11',
                                 'ci_low': '0x1.b786e880d5a13p-4',
                                 'ci_high': '0x1.c1898430e880bp-4',
                                 'n_runs': 30}}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_stats_are_pinned(case):
    assert _stats_pin(RUNS[case]()) == PINS[case]


@pytest.mark.parametrize("case", sorted(POINTS))
def test_point_estimates_are_pinned(case, monkeypatch):
    method, n_runs, n_patterns, seed, cap = POINTS[case]
    if cap is not None:
        # Below the cap a batch point is one single-pass job; force chunks.
        monkeypatch.setattr(batch_mod, "MAX_CHUNK_ELEMENTS", cap)
    est = simulate_overhead(
        build_model("Hera", 1), 6000.0, 256.0,
        n_runs=n_runs, n_patterns=n_patterns, seed=seed, method=method,
    )
    assert _estimate_pin(est) == PINS[case]
