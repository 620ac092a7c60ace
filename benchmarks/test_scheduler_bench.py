"""Scheduler-subsystem performance pins.

OLAR's heap greedy is the subsystem's scalable path — O(n + D log n)
independent of the cost-matrix width — so it must stay fast at fleet
scale (n = 1000 users). The MinEnergy DP is exact but O(n D^2); its pin
is a testbed-scale budget documenting where it is meant to be used.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_scheduler_bench.py -s``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.sched import SchedulingProblem, get_scheduler
from repro.sched.olar import olar_assign


def fleet_problem(n_users, total_shards, seed=0, with_energy=False):
    rng = np.random.default_rng(seed)
    intercepts = rng.uniform(0.5, 3.0, n_users)
    slopes = rng.uniform(0.05, 1.0, n_users)
    k = np.arange(1, total_shards + 1)
    time_cost = intercepts[:, None] + slopes[:, None] * k[None, :]
    energy_cost = None
    if with_energy:
        energy_cost = (
            rng.uniform(0.2, 2.0, n_users)[:, None] * k[None, :]
        )
    return SchedulingProblem(
        time_cost=time_cost,
        total_shards=total_shards,
        shard_size=100,
        energy_cost=energy_cost,
        rng=seed,
    )


class TestOlarScale:
    def test_olar_1000_users(self, benchmark):
        """Perf pin: n = 1000 users, D = 5000 shards in well under a
        second (the matrix build dominates, not the heap)."""
        problem = fleet_problem(1000, 5000)
        caps = problem.effective_capacities()

        def solve():
            return olar_assign(
                problem.time_cost, problem.total_shards, caps
            )

        counts = benchmark(solve)
        assert int(counts.sum()) == 5000
        t0 = time.perf_counter()
        solve()
        elapsed = time.perf_counter() - t0
        print(f"\nOLAR n=1000, D=5000: {elapsed * 1e3:.1f} ms")
        assert elapsed < 1.0, "OLAR regressed past its 1 s budget"

    def test_olar_still_optimal_at_scale(self):
        """Spot-check: the predicted makespan matches Fed-LBAP's exact
        threshold search on the same large instance."""
        problem = fleet_problem(1000, 2000, seed=1)
        olar = get_scheduler("olar").schedule(problem)
        lbap = get_scheduler("fed_lbap").schedule(problem)
        assert abs(
            olar.predicted_makespan_s - lbap.predicted_makespan_s
        ) < 1e-9


class TestMinEnergyBudget:
    def test_min_energy_testbed_scale(self, benchmark):
        """The exact DP stays interactive at testbed scale
        (n = 10 devices, D = 120 shards)."""
        problem = fleet_problem(10, 120, seed=2, with_energy=True)
        scheduler = get_scheduler("min_energy")

        assignment = benchmark(scheduler.schedule, problem)
        assert (
            assignment.shard_counts.sum() == problem.total_shards
        )
        t0 = time.perf_counter()
        scheduler.schedule(problem)
        elapsed = time.perf_counter() - t0
        print(f"\nMinEnergy n=10, D=120: {elapsed * 1e3:.1f} ms")
        assert elapsed < 5.0, "MinEnergy DP regressed past its budget"
