"""Node-level failure modelling: P independent streams, superposed.

The paper works with *platform-level* rates, invoking Proposition 1.2
of [13]: a platform of ``P`` processors of individual rate
``lambda_ind`` fails at rate ``P * lambda_ind``.  This module models the
platform at the level it physically exists — one renewal failure stream
**per node** — and superposes them:

* with exponential nodes, the superposition is exactly a Poisson
  process of rate ``P * lambda``, so the node-level simulator must
  reproduce the aggregated model's distribution (this *is* Proposition
  1.2, validated empirically in the tests);
* with non-exponential nodes (e.g. per-node Weibull), the superposition
  is **not** Weibull — and for large ``P`` it approaches a Poisson
  process regardless of the node law (Palm–Khintchine theorem).  That
  is the deep justification for the paper's exponential platform
  assumption: even if individual nodes are bursty, a 512-node machine's
  aggregate failure process is already close to memoryless.  The test
  suite demonstrates this convergence quantitatively.

Renewal semantics: each node carries its own next-arrival timestamp in
global *exposed time* (downtime pauses every clock, per the paper's
error-free-downtime assumption).  When a node fails, only *its* stream
renews — other nodes keep their ages, which is exactly what makes the
non-exponential case physically meaningful.

The protocol loop is :func:`repro.sim.protocol.simulate_run`'s: a
:class:`NodePool` offers the same ``peek()`` / ``fail_and_renew()``
interface as a single renewal stream, so the two simulators differ only
in the failure stream they drive.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from .protocol import RunStats, _RenewalRun
from .streams import ArrivalProcess, ExponentialArrivals

__all__ = ["NodePool", "simulate_run_nodes"]


class NodePool:
    """``P`` independent renewal failure streams with a min-heap frontier."""

    def __init__(
        self,
        n_nodes: int,
        process: ArrivalProcess,
        rng: np.random.Generator,
    ) -> None:
        if n_nodes < 1:
            raise SimulationError(f"need at least one node, got {n_nodes!r}")
        self.n_nodes = int(n_nodes)
        self.process = process
        self.rng = rng
        # (next_failure_exposed_time, node_id); drawn lazily in bulk at
        # construction for reproducibility.
        self._heap: list[tuple[float, int]] = [
            (process.sample_interarrival(rng), node) for node in range(self.n_nodes)
        ]
        heapq.heapify(self._heap)

    def peek(self) -> float:
        """Exposed-time instant of the next platform failure."""
        return self._heap[0][0]

    def fail_and_renew(self) -> int:
        """Consume the imminent failure; renew that node's stream.

        Returns the failing node id.
        """
        time, node = heapq.heappop(self._heap)
        heapq.heappush(
            self._heap, (time + self.process.sample_interarrival(self.rng), node)
        )
        return node

    def empirical_rate(self, horizon: float) -> float:
        """Arrivals per unit exposed time over ``[0, horizon)`` (destructive).

        Consumes the pool; used by the Proposition-1.2 validation tests.
        """
        count = 0
        while self.peek() < horizon:
            self.fail_and_renew()
            count += 1
        return count / horizon

    def warm_up(self, mean_multiples: float = 3.0) -> int:
        """Advance the pool into the stationary regime and rebase time to 0.

        A freshly built pool has every node at age zero.  For
        non-exponential laws that is a *transient*: Weibull nodes with
        shape < 1 have diverging hazard at age 0, so a fresh machine
        fails measurably more often than a seasoned one (the
        infant-mortality effect, visible in the tests).  Running the
        pool for a few mean inter-arrivals and rebasing makes each
        node's age distribution approach stationarity, which is the
        regime the paper's steady-state analysis describes.

        Returns the number of warm-up failures consumed.
        """
        horizon = mean_multiples * self.process.mean
        consumed = 0
        while self.peek() < horizon:
            self.fail_and_renew()
            consumed += 1
        self._heap = [(t - horizon, node) for (t, node) in self._heap]
        heapq.heapify(self._heap)
        return consumed


def simulate_run_nodes(
    model: PatternModel,
    T: float,
    P: int,
    n_patterns: int,
    rng: np.random.Generator,
    node_process: ArrivalProcess | None = None,
    stationary: bool = True,
) -> RunStats:
    """Simulate the VC protocol with one fail-stop stream per node.

    Parameters
    ----------
    P:
        Integer node count (this simulator models physical nodes).
    node_process:
        Per-node inter-arrival law.  ``None`` uses the model's
        exponential per-node fail-stop rate (``f * lambda_ind``), under
        which the superposition equals the aggregated platform process —
        Proposition 1.2.  Pass per-node Weibull laws to study how fast
        the superposition "poissonises" (Palm–Khintchine).
    stationary:
        Warm the pool up into the stationary regime before the run
        (default).  ``False`` starts every node at age zero — for
        infant-mortality laws (Weibull shape < 1) that fresh-machine
        transient measurably *raises* the failure rate.

    Notes
    -----
    Silent errors remain at the aggregated platform rate (they are
    detected by verifications regardless of which node hosts the flip,
    so node identity carries no information for the protocol).
    """
    if n_patterns <= 0:
        raise SimulationError(f"n_patterns must be positive, got {n_patterns!r}")
    if T <= 0.0:
        raise SimulationError(f"pattern period must be positive, got {T!r}")
    if P < 1:
        raise SimulationError(f"node count must be >= 1, got {P!r}")
    if node_process is None:
        lam_node = model.errors.lambda_ind * model.errors.fail_stop_fraction
        if lam_node <= 0.0:
            raise SimulationError(
                "node-level simulation needs a positive per-node fail-stop "
                "rate or an explicit node_process"
            )
        node_process = ExponentialArrivals(lam_node)
    pool = NodePool(P, node_process, rng)
    if stationary:
        pool.warm_up()
    return _RenewalRun(model, T, P, rng, pool).run(n_patterns)
