"""Fed-LBAP tests: correctness vs brute force (including property-based
instances), threshold feasibility, and the exact-LBAP reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import SchedulingProblem, get_scheduler
from repro.sched.lbap import (
    fed_lbap,
    feasible_at_threshold,
    solve_lbap_threshold_exact,
)
from tests.oracles import brute_force_makespan, compositions


def monotone_cost(rng, n, s, scale=1.0):
    """Random non-decreasing cost rows."""
    inc = rng.uniform(0.1, 1.0, size=(n, s)) * scale
    return np.cumsum(inc, axis=1)


class TestFeasibility:
    def test_counts_match_threshold(self):
        cost = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        feasible, counts = feasible_at_threshold(cost, 2.0, 3)
        np.testing.assert_array_equal(counts, [2, 1])
        assert feasible

    def test_infeasible_below_min(self):
        cost = np.array([[1.0, 2.0], [1.5, 3.0]])
        feasible, counts = feasible_at_threshold(cost, 0.5, 1)
        assert not feasible
        assert counts.sum() == 0


class TestFedLbap:
    def test_matches_brute_force_small(self, rng):
        for trial in range(20):
            r = np.random.default_rng(trial)
            n = int(r.integers(2, 4))
            s = int(r.integers(3, 7))
            total = int(r.integers(2, min(n * s, 10)))
            cost = monotone_cost(r, n, s)
            sched, c_star = fed_lbap(cost, total)
            _, opt = brute_force_makespan(cost, total)
            assert c_star == pytest.approx(opt), (trial, n, s, total)

    def test_allocation_achieves_bottleneck(self, rng):
        cost = monotone_cost(rng, 4, 10)
        sched, c_star = fed_lbap(cost, 12)
        realized = max(
            cost[j, k - 1]
            for j, k in enumerate(sched)
            if k > 0
        )
        assert realized <= c_star + 1e-12

    def test_total_allocated_exactly(self, rng):
        cost = monotone_cost(rng, 5, 8)
        sched, _ = fed_lbap(cost, 17)
        assert sched.sum() == 17

    def test_heterogeneous_favours_fast_user(self, rng):
        slow = np.cumsum(np.full(10, 10.0))
        fast = np.cumsum(np.full(10, 1.0))
        cost = np.vstack([slow, fast])
        sched, _ = fed_lbap(cost, 10)
        assert sched[1] > sched[0]

    def test_full_capacity_feasible(self):
        cost = np.cumsum(np.ones((2, 3)), axis=1)
        sched, c_star = fed_lbap(cost, 6)
        np.testing.assert_array_equal(sched, [3, 3])
        assert c_star == pytest.approx(3.0)

    def test_infeasible_raises(self):
        cost = np.cumsum(np.ones((2, 3)), axis=1)
        with pytest.raises(ValueError):
            fed_lbap(cost, 7)

    def test_non_monotone_rows_rejected(self):
        cost = np.array([[2.0, 1.0, 3.0]])
        with pytest.raises(ValueError):
            fed_lbap(cost, 2)

    def test_validation(self, rng):
        cost = monotone_cost(rng, 2, 3)
        with pytest.raises(ValueError):
            fed_lbap(cost, 0)
        with pytest.raises(ValueError):
            fed_lbap(cost[0], 2)

    def test_shard_size_propagates(self, rng):
        cost = monotone_cost(rng, 3, 5)
        p = SchedulingProblem(time_cost=cost, total_shards=6, shard_size=250)
        a = get_scheduler("fed_lbap").schedule(p)
        assert a.shard_size == 250
        assert a.samples_per_user().sum() == 1500

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 4),
        s=st.integers(2, 6),
    )
    def test_property_optimal_bottleneck(self, seed, n, s):
        """Fed-LBAP's threshold equals the exhaustive optimum on every
        random monotone instance."""
        r = np.random.default_rng(seed)
        cost = monotone_cost(r, n, s)
        total = int(r.integers(1, n * s + 1))
        _, c_star = fed_lbap(cost, total)
        _, opt = brute_force_makespan(cost, total)
        assert abs(c_star - opt) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_monotone_in_total(self, seed):
        """More shards can never reduce the optimal bottleneck."""
        r = np.random.default_rng(seed)
        cost = monotone_cost(r, 3, 6)
        values = []
        for total in (3, 6, 9, 12):
            _, c_star = fed_lbap(cost, total)
            values.append(c_star)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestExactLbapReference:
    def test_identity_cost(self):
        cost = np.eye(3) * 10 + 1  # diagonal expensive
        assignment, bottleneck = solve_lbap_threshold_exact(cost)
        # off-diagonal assignment achievable with bottleneck 1
        assert bottleneck == pytest.approx(1.0)
        assert all(assignment[j] != j for j in range(3))

    def test_matches_exhaustive_permutations(self, rng):
        import itertools

        for trial in range(10):
            r = np.random.default_rng(100 + trial)
            cost = r.uniform(0, 10, size=(4, 4))
            _, bottleneck = solve_lbap_threshold_exact(cost)
            best = min(
                max(cost[j, p[j]] for j in range(4))
                for p in itertools.permutations(range(4))
            )
            assert bottleneck == pytest.approx(best)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            solve_lbap_threshold_exact(rng.uniform(size=(2, 3)))


class TestLbapCapacities:
    def test_capacity_binds(self, rng):
        """The cheap user is capped; the overflow pays a higher
        bottleneck on the expensive user."""
        cheap = np.cumsum(np.full(10, 1.0))
        dear = np.cumsum(np.full(10, 5.0))
        cost = np.vstack([cheap, dear])
        unconstrained, c1 = fed_lbap(cost, 8)
        # optimum splits 7/1: max(7*1, 1*5) = 7 beats all-on-cheap (8)
        assert unconstrained[0] == 7
        capped, c2 = fed_lbap(cost, 8, capacities=np.array([4, 10]))
        assert capped[0] <= 4
        assert capped.sum() == 8
        assert c2 >= c1

    def test_capacity_infeasible_raises(self, rng):
        cost = monotone_cost(rng, 2, 5)
        with pytest.raises(ValueError):
            fed_lbap(cost, 8, capacities=np.array([3, 3]))

    def test_capacity_matches_brute_force(self):
        """Exactness with capacities, vs capacity-filtered brute force."""
        rng = np.random.default_rng(7)
        for trial in range(10):
            r = np.random.default_rng(trial)
            cost = monotone_cost(r, 3, 5)
            caps = r.integers(1, 6, size=3)
            total = int(min(caps.sum(), 8))
            _, c_star = fed_lbap(cost, total, capacities=caps)
            # brute force over capacity-respecting compositions
            best = np.inf
            for comp in compositions(total, 3):
                if any(k > c for k, c in zip(comp, caps)):
                    continue
                if any(k > 5 for k in comp):
                    continue
                val = max(
                    (cost[j, k - 1] for j, k in enumerate(comp) if k > 0),
                    default=0.0,
                )
                best = min(best, val)
            assert c_star == pytest.approx(best), trial

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_capacity_exactness(self, seed):
        """Capacity-constrained Fed-LBAP equals the capacity-filtered
        exhaustive optimum on every random instance."""
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 4))
        s = int(r.integers(2, 6))
        cost = monotone_cost(r, n, s)
        caps = r.integers(1, s + 1, size=n)
        total = int(r.integers(1, int(caps.sum()) + 1))
        _, c_star = fed_lbap(cost, total, capacities=caps)
        best = np.inf
        for comp in compositions(total, n):
            if any(k > c or k > s for k, c in zip(comp, caps)):
                continue
            val = max(
                (cost[j, k - 1] for j, k in enumerate(comp) if k > 0),
                default=0.0,
            )
            best = min(best, val)
        assert c_star == pytest.approx(best)
