"""Property-based invariants every registered scheduler must satisfy.

For arbitrary valid instances (random monotone cost matrices, random
capacities), each registered scheduler must (a) conserve the shard
budget exactly and (b) respect per-user capacity bounds; OLAR must
additionally match the brute-force P1 optimum on small instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    SchedulingProblem,
    available_schedulers,
    get_scheduler,
)
from tests.oracles import brute_force_makespan


def build_instance(seed, n_users, total_shards, capped):
    rng = np.random.default_rng(seed)
    n_slots = total_shards
    time_cost = np.cumsum(
        rng.uniform(0.05, 2.0, size=(n_users, n_slots)), axis=1
    )
    energy_cost = np.cumsum(
        rng.uniform(0.05, 3.0, size=(n_users, n_slots)), axis=1
    )
    capacities = None
    if capped:
        # feasible by construction: partition the budget, then pad
        splits = rng.multinomial(
            total_shards, np.full(n_users, 1.0 / n_users)
        )
        capacities = splits + rng.integers(0, 3, n_users)
    classes = [
        tuple(
            int(c)
            for c in rng.choice(10, size=int(rng.integers(1, 4)),
                                replace=False)
        )
        for _ in range(n_users)
    ]
    return SchedulingProblem(
        time_cost=time_cost,
        total_shards=total_shards,
        shard_size=50,
        energy_cost=energy_cost,
        capacities=capacities,
        user_classes=classes,
        alpha=10.0,
        rng=seed,
    )


@pytest.mark.parametrize("name", available_schedulers())
class TestSchedulerInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 6),
        total_shards=st.integers(1, 12),
        capped=st.booleans(),
    )
    def test_conserves_total_and_respects_capacities(
        self, name, seed, n_users, total_shards, capped
    ):
        problem = build_instance(seed, n_users, total_shards, capped)
        assignment = get_scheduler(name).schedule(problem)
        counts = assignment.shard_counts
        assert int(counts.sum()) == total_shards
        assert (counts >= 0).all()
        assert (counts <= problem.effective_capacities()).all()
        # the predicted makespan is the cost-model bottleneck
        expected = problem.predicted_makespan(counts)
        assert assignment.predicted_makespan_s == pytest.approx(
            expected
        )


class TestOlarOptimality:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 6),
        total_shards=st.integers(1, 10),
    )
    def test_matches_brute_force_optimum(
        self, seed, n_users, total_shards
    ):
        """Acceptance: OLAR == exhaustive optimum on all small
        uncapacitated instances (n <= 6 users)."""
        problem = build_instance(seed, n_users, total_shards, False)
        assignment = get_scheduler("olar").schedule(problem)
        _, optimum = brute_force_makespan(
            problem.time_cost, total_shards
        )
        assert assignment.predicted_makespan_s == pytest.approx(
            optimum
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 6),
        total_shards=st.integers(1, 10),
    )
    def test_agrees_with_fed_lbap(self, seed, n_users, total_shards):
        """Two exact P1 solvers must report the same bottleneck."""
        problem = build_instance(seed, n_users, total_shards, False)
        olar = get_scheduler("olar").schedule(problem)
        lbap = get_scheduler("fed_lbap").schedule(problem)
        assert olar.predicted_makespan_s == pytest.approx(
            lbap.predicted_makespan_s
        )
