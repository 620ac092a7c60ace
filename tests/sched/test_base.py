"""SchedulingProblem validation and Assignment scoring."""

import numpy as np
import pytest

from repro.sched import Scheduler, SchedulingProblem

from .conftest import synthetic_problem


def mat(rows):
    return np.asarray(rows, dtype=np.float64)


class TestValidation:
    def test_empty_user_list(self):
        with pytest.raises(ValueError, match="empty user list"):
            SchedulingProblem(
                time_cost=np.empty((0, 3)), total_shards=5
            )

    def test_non_positive_total(self):
        with pytest.raises(ValueError, match="total_shards"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]), total_shards=0
            )
        with pytest.raises(ValueError, match="total_shards"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]), total_shards=-3
            )

    def test_nan_cost_entries(self):
        with pytest.raises(ValueError, match="NaN"):
            SchedulingProblem(
                time_cost=mat([[1.0, np.nan]]), total_shards=1
            )

    def test_negative_cost_entries(self):
        with pytest.raises(ValueError, match="negative"):
            SchedulingProblem(
                time_cost=mat([[-0.5, 1.0]]), total_shards=1
            )

    def test_energy_matrix_validated_too(self):
        with pytest.raises(ValueError, match="energy_cost"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]),
                energy_cost=mat([[np.inf, 1.0]]),
                total_shards=1,
            )
        with pytest.raises(ValueError, match="shape"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]),
                energy_cost=mat([[1.0]]),
                total_shards=1,
            )

    def test_class_id_must_index_the_cost_rows(self):
        with pytest.raises(ValueError, match="class_id"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]),
                total_shards=1,
                class_id=np.array([0, 1]),
            )
        with pytest.raises(ValueError, match="class_id"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]),
                total_shards=1,
                class_id=np.array([[0]]),
            )

    def test_class_rows_expand_per_user(self):
        p = SchedulingProblem(
            time_cost=mat([[1.0, 2.0], [3.0, 5.0]]),
            energy_cost=mat([[0.5, 1.0], [2.0, 4.0]]),
            total_shards=2,
            class_id=np.array([1, 0, 1]),
        )
        assert p.n_users == 3
        assert np.array_equal(
            p.dense_time_cost(), mat([[3.0, 5.0], [1.0, 2.0], [3.0, 5.0]])
        )
        assert np.array_equal(p.dense_energy_cost()[1], mat([0.5, 1.0]))
        counts = np.array([1, 1, 0])
        assert p.predicted_makespan(counts) == 3.0
        assert p.predicted_energy(counts) == 2.5

    def test_capacity_infeasibility(self):
        with pytest.raises(ValueError, match="infeasible"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0], [1.0, 2.0]]),
                total_shards=5,
                capacities=[2, 2],
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacities", np.array([2])),
            ("weights", np.ones(3)),
            ("comm_costs", np.ones(2)),
            ("time_curves", [lambda x: x] * 5),
        ],
    )
    def test_per_user_vectors_must_match_the_user_count(
        self, field, value
    ):
        with pytest.raises(ValueError, match=field):
            SchedulingProblem(
                time_cost=np.ones((4, 3)),
                total_shards=2,
                **{field: value},
            )

    def test_per_user_vectors_follow_class_rows(self):
        p = SchedulingProblem(
            time_cost=mat([[1.0, 2.0]]),
            total_shards=2,
            class_id=np.zeros(3, dtype=np.int64),
            capacities=[1, 1, 1],
            weights=np.ones(3),
        )
        assert p.n_users == 3

    def test_effective_capacities_clip_to_slots(self):
        p = SchedulingProblem(
            time_cost=mat([[1.0, 2.0], [1.0, 2.0]]),
            total_shards=2,
            capacities=[100, 1],
        )
        np.testing.assert_array_equal(
            p.effective_capacities(), [2, 1]
        )


class TestRng:
    def test_seed_materialises_generator(self):
        p = synthetic_problem(rng=None)
        p.rng = 42
        a = p.generator().integers(0, 1000, 5)
        b = np.random.default_rng(42).integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(7)
        p = synthetic_problem()
        p.rng = gen
        assert p.generator() is gen

    def test_fallback_seed(self):
        p = synthetic_problem()
        p.rng = None
        a = p.generator(fallback_seed=3).integers(0, 100, 4)
        b = np.random.default_rng(3).integers(0, 100, 4)
        np.testing.assert_array_equal(a, b)


class TestScoring:
    def test_predicted_makespan_is_bottleneck(self):
        p = SchedulingProblem(
            time_cost=mat([[1.0, 4.0], [2.0, 9.0]]), total_shards=2
        )
        assert p.predicted_makespan([2, 0]) == 4.0
        assert p.predicted_makespan([1, 1]) == 2.0
        assert p.predicted_makespan([0, 0]) == 0.0

    def test_predicted_energy_sums_active_users(self):
        p = SchedulingProblem(
            time_cost=mat([[1.0, 2.0], [1.0, 2.0]]),
            energy_cost=mat([[3.0, 5.0], [2.0, 7.0]]),
            total_shards=2,
        )
        assert p.predicted_energy([1, 1]) == 5.0
        assert p.predicted_energy([2, 0]) == 5.0

    def test_predicted_energy_none_without_matrix(self):
        p = synthetic_problem(with_energy=False)
        assert p.predicted_energy([1] * p.n_users) is None

    def test_from_schedule_scores_against_problem(self, problem):
        counts = np.zeros(problem.n_users, dtype=np.int64)
        counts[0] = problem.total_shards

        class AllOnFirst(Scheduler):
            name = "x"

            def schedule(self, p):
                return self._finish(p, counts, tag=1)

        a = AllOnFirst().schedule(problem)
        assert a.scheduler == "x"
        assert a.meta == {"tag": 1}
        assert a.shard_size == problem.shard_size
        assert a.predicted_makespan_s == pytest.approx(
            problem.time_cost[0, problem.total_shards - 1]
        )
        assert a.predicted_energy_j == pytest.approx(
            problem.energy_cost[0, problem.total_shards - 1]
        )
        np.testing.assert_array_equal(a.shard_counts, counts)
