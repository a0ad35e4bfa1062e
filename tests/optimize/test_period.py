"""Numerical period optimisation against the exact overhead objective."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize as sp_optimize

from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts
from repro.core.first_order import optimal_period
from repro.core.pattern import ColumnWorkspace, PreparedColumns
from repro.exceptions import OptimizationError
from repro.experiments.fig3_processors import default_processor_grid
from repro.optimize.period import optimize_period, optimize_period_batch
from repro.platforms import build_model


class TestOptimizePeriod:
    def test_is_a_true_minimum(self, hera_sc1):
        P = 256.0
        result = optimize_period(hera_sc1, P)
        H = result.overhead
        for factor in (0.9, 0.99, 1.01, 1.1):
            assert hera_sc1.overhead(result.period * factor, P) > H

    def test_matches_scipy_bounded(self, hera_sc1):
        P = 256.0
        ours = optimize_period(hera_sc1, P)
        scipy_result = sp_optimize.minimize_scalar(
            lambda T: hera_sc1.overhead(T, P),
            bounds=(10.0, 1e6),
            method="bounded",
            options={"xatol": 1e-8},
        )
        assert ours.period == pytest.approx(scipy_result.x, rel=1e-5)
        assert ours.overhead <= scipy_result.fun * (1 + 1e-12)

    def test_close_to_first_order_in_regime(self, hera_sc3):
        # Within the validity regime the numerical optimum is within a
        # few percent of Theorem 1.
        P = 256.0
        T_fo = optimal_period(P, hera_sc3.errors, hera_sc3.costs)
        result = optimize_period(hera_sc3, P)
        assert result.period == pytest.approx(T_fo, rel=0.1)

    def test_converges_to_first_order_as_lambda_vanishes(self, hera_sc3):
        model = hera_sc3.with_lambda(1e-13)
        P = 256.0
        T_fo = optimal_period(P, model.errors, model.costs)
        result = optimize_period(model, P)
        assert result.period == pytest.approx(T_fo, rel=1e-3)

    def test_overhead_consistent(self, hera_sc1):
        result = optimize_period(hera_sc1, 256.0)
        assert result.overhead == pytest.approx(
            hera_sc1.overhead(result.period, 256.0), rel=1e-12
        )

    def test_custom_seed_agrees(self, hera_sc1):
        a = optimize_period(hera_sc1, 256.0)
        b = optimize_period(hera_sc1, 256.0, seed=a.period * 7.0)
        assert a.period == pytest.approx(b.period, rel=1e-6)

    def test_error_free_raises(self, simple_costs):
        model = PatternModel(
            ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5),
            simple_costs,
            AmdahlSpeedup(0.1),
        )
        with pytest.raises(OptimizationError):
            optimize_period(model, 100.0)

    def test_high_rate_short_period(self):
        # Aggressive error rate: optimum must be much shorter than MTBF.
        model = PatternModel(
            ErrorModel(lambda_ind=1e-4, fail_stop_fraction=0.5),
            ResilienceCosts.simple(checkpoint=10.0, verification=1.0, downtime=5.0),
            AmdahlSpeedup(0.1),
        )
        result = optimize_period(model, 10.0)
        assert 0 < result.period < 1.0 / model.errors.total_rate(10.0)


class TestBatch:
    def test_matches_scalar_solver(self, hera_sc1):
        P = np.array([128.0, 256.0, 512.0, 1024.0])
        T_batch, H_batch = optimize_period_batch(hera_sc1, P)
        for i, p in enumerate(P):
            scalar = optimize_period(hera_sc1, float(p))
            assert T_batch[i] == pytest.approx(scalar.period, rel=1e-6)
            assert H_batch[i] == pytest.approx(scalar.overhead, rel=1e-10)

    def test_shapes(self, hera_sc3):
        P = np.logspace(1, 4, 7)
        T, H = optimize_period_batch(hera_sc3, P)
        assert T.shape == H.shape == (7,)

    def test_monotone_overhead_tail(self, hera_sc1):
        # Past the optimum allocation, min_T H(T, P) increases with P.
        P = np.logspace(3, 5, 10)
        _, H = optimize_period_batch(hera_sc1, P)
        assert np.all(np.diff(H) > 0)

    def test_rejects_empty(self, hera_sc1):
        with pytest.raises(OptimizationError):
            optimize_period_batch(hera_sc1, np.array([]))

    def test_rejects_2d(self, hera_sc1):
        with pytest.raises(OptimizationError):
            optimize_period_batch(hera_sc1, np.ones((2, 2)))

    def test_handles_extreme_processor_counts(self, hera_sc3):
        # Huge P overflows the exponentials in parts (or all) of the T
        # window; the zoom must survive and report +inf, never NaN, so
        # the outer allocation search can discard those regions.
        P = np.array([1e8, 1e10])
        T, H = optimize_period_batch(hera_sc3, P)
        assert np.all(np.isfinite(T))
        assert not np.any(np.isnan(H))
        # At P = 1e8 the overhead is finite (astronomical but representable).
        assert np.isfinite(H[0])
        # At P = 1e10, lambda_f * C ~ 1.1e4 overflows float64: genuinely inf.
        assert H[1] == np.inf


class TestBatchEdgePinnedBracket:
    """Regression: edge-pinned brackets must widen once, then raise.

    The scalar solver has always re-tried a 1e3-widened window when the
    optimum pinned to a bracket edge; the batch solver used to return
    the pinned edge silently.
    """

    def test_tiny_seed_window_recovers_after_widening(self, hera_sc1):
        P = np.array([128.0, 512.0, 1024.0])
        T_ref, H_ref = optimize_period_batch(hera_sc1, P)
        # A 0.01-decade window cannot contain the optimum unless the
        # first-order seed is essentially exact; every column pins and
        # must be recovered by the widened re-zoom.
        T, H = optimize_period_batch(hera_sc1, P, seed_decades=0.01)
        np.testing.assert_allclose(T, T_ref, rtol=1e-5)
        np.testing.assert_allclose(H, H_ref, rtol=1e-9)

    def test_matches_scalar_widening(self, hera_sc1):
        P = np.array([256.0])
        T, H = optimize_period_batch(hera_sc1, P, seed_decades=0.01)
        scalar = optimize_period(hera_sc1, 256.0)
        assert T[0] == pytest.approx(scalar.period, rel=1e-5)
        assert H[0] == pytest.approx(scalar.overhead, rel=1e-9)

    def test_monotone_objective_raises_per_column(self, hera_sc1):
        class MonotoneWorkspace(ColumnWorkspace):
            """Strictly decreasing overhead: no interior optimum exists."""

            __slots__ = ()

            def overhead(self):
                np.divide(1.0, self.T, out=self.H)
                return np.add(self.H, 1.0, out=self.H)

        class MonotoneColumns(PreparedColumns):
            __slots__ = ()

            def workspace(self, shape, buffers=None):
                return MonotoneWorkspace(self, shape, buffers)

        class MonotoneModel(PatternModel):
            def prepare(self, P):
                # The batch zoom evaluates through the prepared columns'
                # workspaces.
                return MonotoneColumns(P, self.errors, self.costs, self.speedup)

        stub = MonotoneModel(
            errors=hera_sc1.errors, costs=hera_sc1.costs, speedup=hera_sc1.speedup
        )
        with pytest.raises(OptimizationError, match="monotone"):
            optimize_period_batch(stub, np.array([128.0, 512.0]), seed_decades=0.5)

    def test_default_windows_are_never_pinned(self, hera_sc1, hera_sc3):
        # The honest-seed path must be bit-unchanged by the fallback.
        for model in (hera_sc1, hera_sc3):
            P = np.logspace(2, 3.5, 6)
            T, H = optimize_period_batch(model, P)
            T0 = np.asarray(optimal_period(P, model.errors, model.costs))
            assert np.all(T / (T0 * 1e-3) > 1.001)
            assert np.all((T0 * 1e3) / T > 1.001)


#: ``optimize_period_batch`` on Figure 3's grid (Hera, P = 128..1536),
#: as ``float.hex()``: scenario -> seed_decades -> (T_opt, H_opt).  The
#: 0.01-decade window pins every column and exercises the widen path.
PINNED_FIG3_GRID = {
    1: {
        3.0: (
            ["0x1.a94c85c040e89p+12", "0x1.9453cc95fd4e2p+12", "0x1.8b9ab270ee81cp+12",
             "0x1.860f186fc17c7p+12", "0x1.81cfac736b052p+12", "0x1.7e397094e90c3p+12",
             "0x1.7b05ec18a079ep+12", "0x1.7811a66f481f4p+12", "0x1.7548d3ffe4248p+12",
             "0x1.729f8ef5f95ccp+12", "0x1.700e3a7ca962cp+12", "0x1.6d8fc1e0952a2p+12"],
            ["0x1.c2e0f8e144f91p-4", "0x1.bf6f2f6940c09p-4", "0x1.c5dd7ce7eb263p-4",
             "0x1.cef8f0e886ecfp-4", "0x1.d95257e500705p-4", "0x1.e4707ac094d5fp-4",
             "0x1.f02072ad74926p-4", "0x1.fc49be961d364p-4", "0x1.046fcfee32a81p-3",
             "0x1.0aed9fd71cec2p-3", "0x1.119c8302bd8c0p-3", "0x1.187ba2ad8f2d1p-3"],
        ),
        0.01: (
            ["0x1.a94c8508284dcp+12", "0x1.9453cc5590622p+12", "0x1.8b9ab3461d4e0p+12",
             "0x1.860f18deb4800p+12", "0x1.81cfab94568a1p+12", "0x1.7e397088ea7b1p+12",
             "0x1.7b05ebb3391e6p+12", "0x1.7811a5693038ap+12", "0x1.7548d40ec44a7p+12",
             "0x1.729f8e8957078p+12", "0x1.700e3a9cced92p+12", "0x1.6d8fc25f5aff0p+12"],
            ["0x1.c2e0f8e144f91p-4", "0x1.bf6f2f6940c0ap-4", "0x1.c5dd7ce7eb262p-4",
             "0x1.cef8f0e886ecfp-4", "0x1.d95257e500705p-4", "0x1.e4707ac094d5dp-4",
             "0x1.f02072ad74928p-4", "0x1.fc49be961d363p-4", "0x1.046fcfee32a81p-3",
             "0x1.0aed9fd71cec3p-3", "0x1.119c8302bd8c0p-3", "0x1.187ba2ad8f2d1p-3"],
        ),
    },
    3: {
        3.0: (
            ["0x1.8aebf39efeeccp+13", "0x1.15d2881a9917ep+13", "0x1.c3e6264ef080fp+12",
             "0x1.860f186fc17c7p+12", "0x1.5bdc470361a23p+12", "0x1.3cb691c875887p+12",
             "0x1.2481de424e55fp+12", "0x1.10ff3c80d9257p+12", "0x1.00d66a136b0e6p+12",
             "0x1.e6561a257316bp+11", "0x1.ced158b44e43bp+11", "0x1.ba4e380a086bfp+11"],
            ["0x1.cd4cfe85719dcp-4", "0x1.c816eb147ff4ap-4", "0x1.cac9a0a0a97b4p-4",
             "0x1.cef8f0e886ecfp-4", "0x1.d3869222c2bdcp-4", "0x1.d8230e6ea10f2p-4",
             "0x1.dcb3ebb6c4e97p-4", "0x1.e1300d7bce8e0p-4", "0x1.e594db46031c6p-4",
             "0x1.e9e259f094e23p-4", "0x1.ee199c0de8e51p-4", "0x1.f23c16d7b544bp-4"],
        ),
        0.01: (
            ["0x1.8aebf3b66f6fep+13", "0x1.15d288ef4702cp+13", "0x1.c3e626ed2729ep+12",
             "0x1.860f18deb4800p+12", "0x1.5bdc468cfe980p+12", "0x1.3cb69109507bap+12",
             "0x1.2481dec79419dp+12", "0x1.10ff3bf5db35fp+12", "0x1.00d66a5946b33p+12",
             "0x1.e65619000e769p+11", "0x1.ced1589077b33p+11", "0x1.ba4e3663532e0p+11"],
            ["0x1.cd4cfe85719dbp-4", "0x1.c816eb147ff4ap-4", "0x1.cac9a0a0a97b2p-4",
             "0x1.cef8f0e886ecfp-4", "0x1.d3869222c2bdcp-4", "0x1.d8230e6ea10f0p-4",
             "0x1.dcb3ebb6c4e96p-4", "0x1.e1300d7bce8e1p-4", "0x1.e594db46031c4p-4",
             "0x1.e9e259f094e20p-4", "0x1.ee199c0de8e4fp-4", "0x1.f23c16d7b5449p-4"],
        ),
    },
}


class TestBatchPinnedBits:
    """Exact bits of the batch period zoom, default and widen paths."""

    @pytest.mark.parametrize("scenario", sorted(PINNED_FIG3_GRID))
    @pytest.mark.parametrize("seed_decades", [3.0, 0.01])
    def test_fig3_grid_bits(self, scenario, seed_decades):
        T, H = optimize_period_batch(
            build_model("Hera", scenario), default_processor_grid(),
            seed_decades=seed_decades,
        )
        T_hex, H_hex = PINNED_FIG3_GRID[scenario][seed_decades]
        assert [float(v).hex() for v in T] == T_hex
        assert [float(v).hex() for v in H] == H_hex
