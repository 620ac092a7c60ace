"""Shard-allocation checks, the Assignment result and makespan
evaluation."""

import numpy as np
import pytest

from repro.sched import (
    Assignment,
    Scheduler,
    SchedulingProblem,
    check_counts,
    evaluate_makespan,
)


class _Fixed(Scheduler):
    """Returns a preset allocation through the shared ``_finish``."""

    name = "fixed"

    def __init__(self, counts):
        self.counts = counts

    def schedule(self, problem):
        return self._finish(problem, self.counts)


def problem(total_shards=5, shard_size=100, n_users=3):
    return SchedulingProblem(
        time_cost=np.tile(np.arange(1.0, 6.0), (n_users, 1)),
        total_shards=total_shards,
        shard_size=shard_size,
    )


class TestSchedule:
    def test_totals(self):
        a = _Fixed([2, 0, 3]).schedule(problem())
        assert isinstance(a, Assignment)
        assert a.shard_counts.dtype == np.int64
        assert a.shard_size == 100
        np.testing.assert_array_equal(a.samples_per_user(), [200, 0, 300])

    def test_participants(self):
        a = _Fixed([2, 0, 3]).schedule(problem())
        np.testing.assert_array_equal(np.flatnonzero(a.shard_counts), [0, 2])
        assert a.predicted_makespan_s == 3.0  # three shards on user 2

    def test_validate_total(self):
        np.testing.assert_array_equal(check_counts([2, 3], 5), [2, 3])
        with pytest.raises(ValueError, match="expected 6"):
            check_counts([2, 3], 6)
        with pytest.raises(ValueError, match="allocates 4"):
            _Fixed([2, 0, 2]).schedule(problem())

    def test_validate_capacities(self):
        check_counts([2, 3], 5, capacities=[2, 3])
        with pytest.raises(ValueError, match="capacity"):
            check_counts([2, 3], 5, capacities=[1, 3])
        with pytest.raises(ValueError, match="length"):
            check_counts([2, 3], 5, capacities=[1])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_counts([-1, 2], 1)

    def test_two_d_counts_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            check_counts([[1, 2]], 3)

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValueError, match="shard_size"):
            problem(shard_size=0)

    def test_finish_checks_the_effective_capacities(self):
        p = SchedulingProblem(
            time_cost=np.tile(np.arange(1.0, 6.0), (2, 1)),
            total_shards=5,
            capacities=[4, 4],
        )
        with pytest.raises(ValueError, match="capacity"):
            _Fixed([5, 0]).schedule(p)


class TestEvaluateMakespan:
    def curves(self):
        return [lambda x: 0.01 * x, lambda x: 0.05 * x]

    def test_makespan_is_max_participant(self):
        cost = evaluate_makespan([1000, 1000], self.curves())
        assert cost.makespan_s == pytest.approx(50.0)
        assert cost.mean_s == pytest.approx(30.0)

    def test_idle_users_excluded(self):
        cost = evaluate_makespan([1000, 0], self.curves())
        assert cost.makespan_s == pytest.approx(10.0)
        assert cost.per_user_s[1] == 0.0

    def test_comm_costs_added_to_participants(self):
        cost = evaluate_makespan(
            [1000, 0], self.curves(), comm_costs=[5.0, 5.0]
        )
        assert cost.makespan_s == pytest.approx(15.0)
        assert cost.per_user_s[1] == 0.0  # idle user pays nothing

    def test_straggler_gap_and_efficiency(self):
        cost = evaluate_makespan([1000, 1000], self.curves())
        assert cost.straggler_gap == pytest.approx(20.0)
        assert cost.parallel_efficiency == pytest.approx(0.6)

    def test_empty_schedule(self):
        cost = evaluate_makespan([0, 0], self.curves())
        assert cost.makespan_s == 0.0
        assert cost.parallel_efficiency == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            evaluate_makespan([100], self.curves())
        with pytest.raises(ValueError):
            evaluate_makespan([100, 100], self.curves(), comm_costs=[1.0])
