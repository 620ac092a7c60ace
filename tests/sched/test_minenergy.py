"""MinEnergy DP: exactness, makespan cap, infeasibility reporting."""

import itertools

import numpy as np
import pytest

from repro.sched import get_scheduler
from repro.sched.minenergy import min_energy_assign
from tests.oracles import compositions

from .conftest import synthetic_problem


def brute_force_energy(energy, total, capacities, time_cost=None, cap=None):
    """Exhaustive (MC)²MKP oracle for tiny instances."""
    n, s = energy.shape
    best, best_val = None, np.inf
    for comp in compositions(total, n):
        if any(k > min(capacities[j], s) for j, k in enumerate(comp)):
            continue
        if cap is not None and any(
            k > 0 and time_cost[j, k - 1] > cap
            for j, k in enumerate(comp)
        ):
            continue
        val = sum(
            energy[j, k - 1] for j, k in enumerate(comp) if k > 0
        )
        if val < best_val:
            best, best_val = comp, val
    return best, best_val


class TestMinEnergyAssign:
    def test_concentrates_on_cheapest_device(self):
        k = np.arange(1.0, 7.0)
        energy = np.vstack([1.0 * k, 5.0 * k, 9.0 * k])
        counts = min_energy_assign(energy, 6, np.full(3, 6))
        np.testing.assert_array_equal(counts, [6, 0, 0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            total = int(rng.integers(1, 8))
            s = max(total, 1)
            # concave-ish random energies make splitting non-trivial
            energy = np.cumsum(
                rng.uniform(0.1, 3.0, size=(n, s)), axis=1
            )
            caps = rng.integers(0, s + 1, n)
            if caps.sum() < total:
                continue
            _, optimum = brute_force_energy(energy, total, caps)
            if not np.isfinite(optimum):
                continue
            counts = min_energy_assign(energy, total, caps)
            got = sum(
                energy[j, counts[j] - 1]
                for j in range(n)
                if counts[j] > 0
            )
            assert got == pytest.approx(optimum)

    def test_makespan_cap_filters_slow_devices(self):
        k = np.arange(1.0, 5.0)
        energy = np.vstack([1.0 * k, 3.0 * k])  # user 0 cheapest
        time_cost = np.vstack([10.0 * k, 1.0 * k])  # but slow
        counts = min_energy_assign(
            energy, 4, np.full(2, 4),
            time_cost=time_cost, makespan_cap_s=10.0,
        )
        # user 0 admits at most 1 shard under the 10 s deadline
        assert counts[0] <= 1
        assert counts.sum() == 4

    def test_cap_matches_capped_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, total = 3, 6
            energy = np.cumsum(
                rng.uniform(0.1, 2.0, size=(n, total)), axis=1
            )
            time_cost = np.cumsum(
                rng.uniform(0.1, 2.0, size=(n, total)), axis=1
            )
            cap = float(np.median(time_cost))
            caps = np.full(n, total)
            comp, optimum = brute_force_energy(
                energy, total, caps, time_cost, cap
            )
            if comp is None:
                with pytest.raises(ValueError, match="infeasible"):
                    min_energy_assign(
                        energy, total, caps,
                        time_cost=time_cost, makespan_cap_s=cap,
                    )
                continue
            counts = min_energy_assign(
                energy, total, caps,
                time_cost=time_cost, makespan_cap_s=cap,
            )
            got = sum(
                energy[j, counts[j] - 1]
                for j in range(n)
                if counts[j] > 0
            )
            assert got == pytest.approx(optimum)
            assert all(
                time_cost[j, counts[j] - 1] <= cap
                for j in range(n)
                if counts[j] > 0
            )

    def test_cap_without_time_matrix_raises(self):
        energy = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="time_cost"):
            min_energy_assign(
                energy, 1, np.array([2]), makespan_cap_s=1.0
            )

    def test_infeasible_cap_raises(self):
        energy = np.array([[1.0, 2.0]])
        time_cost = np.array([[5.0, 9.0]])
        with pytest.raises(ValueError, match="infeasible"):
            min_energy_assign(
                energy, 2, np.array([2]),
                time_cost=time_cost, makespan_cap_s=1.0,
            )


class TestMinEnergyScheduler:
    def test_requires_energy_matrix(self):
        p = synthetic_problem(with_energy=False)
        with pytest.raises(ValueError, match="energy_cost"):
            get_scheduler("min_energy").schedule(p)

    def test_energy_never_above_other_schedulers(self, problem):
        me = get_scheduler("min_energy").schedule(problem)
        for other in ("fed_lbap", "olar", "equal", "proportional"):
            a = get_scheduler(other).schedule(problem)
            assert me.predicted_energy_j <= a.predicted_energy_j + 1e-9

    def test_instance_cap_overrides_problem_cap(self):
        p = synthetic_problem(seed=3, total_shards=6)
        uncapped = get_scheduler("min_energy").schedule(p)
        # the LBAP optimum is feasible by construction, so capping the
        # DP at it must succeed while forcing a faster schedule
        cap = float(
            get_scheduler("fed_lbap").schedule(p).predicted_makespan_s
        )
        capped = get_scheduler(
            "min_energy", makespan_cap_s=cap
        ).schedule(p)
        assert capped.predicted_makespan_s <= cap + 1e-12
        assert capped.meta["makespan_cap_s"] == cap
        # tightening the deadline can only cost energy
        assert (
            capped.predicted_energy_j
            >= uncapped.predicted_energy_j - 1e-9
        )
