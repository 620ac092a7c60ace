"""OLAR: heap greedy correctness, optimality, capacities, determinism."""

import numpy as np
import pytest

from repro.sched import get_scheduler
from repro.sched.olar import olar_assign
from tests.oracles import brute_force_makespan

from .conftest import synthetic_problem


def monotone_matrix(rng, n, s):
    """Random non-decreasing rows (Property 1)."""
    return np.cumsum(rng.uniform(0.05, 2.0, size=(n, s)), axis=1)


class TestOlarAssign:
    def test_simple_instance(self):
        # one fast user, one slow: the fast user takes almost all
        cost = np.array(
            [[1.0, 2.0, 3.0, 4.0], [3.0, 6.0, 9.0, 12.0]]
        )
        counts = olar_assign(cost, 4, np.array([4, 4]))
        np.testing.assert_array_equal(counts, [3, 1])

    def test_respects_capacities(self):
        cost = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
        counts = olar_assign(cost, 4, np.array([2, 3]))
        assert counts[0] == 2  # capped despite being cheapest
        assert counts.sum() == 4

    def test_zero_capacity_user_excluded(self):
        cost = np.array([[0.1, 0.2], [5.0, 6.0]])
        counts = olar_assign(cost, 2, np.array([0, 2]))
        np.testing.assert_array_equal(counts, [0, 2])

    def test_infeasible_raises(self):
        cost = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="infeasible"):
            olar_assign(cost, 3, np.array([2]))

    def test_ties_break_lowest_index(self):
        cost = np.ones((3, 4))
        counts = olar_assign(cost, 1, np.array([4, 4, 4]))
        np.testing.assert_array_equal(counts, [1, 0, 0])

    def test_matches_brute_force_on_random_instances(self):
        """Optimality (Pilla 2020, Thm. 1) against the exhaustive
        oracle on every small random instance."""
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(1, 5))
            total = int(rng.integers(1, 9))
            cost = monotone_matrix(rng, n, max(total, 1))
            if total > n * cost.shape[1]:
                continue
            counts = olar_assign(
                cost, total, np.full(n, cost.shape[1])
            )
            got = max(
                cost[j, counts[j] - 1]
                for j in range(n)
                if counts[j] > 0
            )
            _, optimum = brute_force_makespan(cost, total)
            assert got == pytest.approx(optimum), (
                f"trial {trial}: OLAR {got} vs optimum {optimum}"
            )


class TestOlarScheduler:
    def test_full_assignment(self, problem):
        a = get_scheduler("olar").schedule(problem)
        assert a.scheduler == "olar"
        assert a.shard_counts.sum() == problem.total_shards
        assert a.meta["makespan_optimal"] is True

    def test_matches_fed_lbap_makespan(self):
        """Both are exact for P1, so predicted makespans coincide."""
        for seed in range(5):
            p = synthetic_problem(seed=seed, n_users=5, total_shards=9)
            olar = get_scheduler("olar").schedule(p)
            lbap = get_scheduler("fed_lbap").schedule(p)
            assert olar.predicted_makespan_s == pytest.approx(
                lbap.predicted_makespan_s
            )
