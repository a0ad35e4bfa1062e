#!/usr/bin/env python3
"""Anatomy of the overhead: where the waste goes, analytically and simulated.

Uses the waste-accounting toolkit to split the expected overhead of a
pattern into its physical channels — the deterministic resilience bill
(verification + checkpoint), the fail-stop re-execution loss and the
silent re-execution loss — across a range of periods, then validates
the totals against the event-level simulator's activity breakdown.

The punchline is the generalised Young/Daly equilibrium: at the optimal
period the deterministic bill exactly balances the expected error loss.

Run:  python examples/waste_anatomy.py
"""

import numpy as np

from repro import build_model
from repro.analysis.waste import compare_with_simulation, waste_breakdown
from repro.core import optimal_period
from repro.io.tables import render_table
from repro.sim import simulate_run, spawn_rngs


def main() -> None:
    model = build_model("Hera", scenario_id=1)
    P = 256.0
    T_star = float(optimal_period(P, model.errors, model.costs))

    rows = []
    for label, T in [
        ("T*/8", T_star / 8),
        ("T*/2", T_star / 2),
        ("T* (optimal)", T_star),
        ("2 T*", T_star * 2),
        ("8 T*", T_star * 8),
    ]:
        b = waste_breakdown(model, T, P)
        fr = b.fractions()
        rows.append(
            (
                label,
                round(T, 0),
                f"{b.total:.5f}",
                f"{fr['resilience_bill']:.0%}",
                f"{fr['fail_stop_reexecution']:.0%}",
                f"{fr['silent_reexecution']:.0%}",
                f"{fr['residual']:.1%}",
            )
        )
    print(
        render_table(
            ("period", "T (s)", "rel. waste", "bill", "fail-stop", "silent", "residual"),
            rows,
            title=f"Hera sc1, P = {P:.0f}: waste channels vs checkpointing period",
        )
    )
    print(
        "\nAt T* the bill and the error-loss channels balance "
        "(the generalised Young/Daly equilibrium).\n"
    )

    # Validate the analytic total against simulated runs at T*.
    totals = []
    for rng in spawn_rngs(20, seed=29):
        stats = simulate_run(model, T_star, P, 150, rng)
        totals.append(compare_with_simulation(model, T_star, P, stats)["total"])
    analytic = waste_breakdown(model, T_star, P).total
    print(
        f"simulated relative waste at T*: {np.mean(totals):.5f} "
        f"(analytic {analytic:.5f}, 20 runs x 150 patterns)"
    )


if __name__ == "__main__":
    main()
