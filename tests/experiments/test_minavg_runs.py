"""Tests for the shared Fed-MinAvg experiment plumbing."""

import numpy as np
import pytest

from repro.experiments.minavg_runs import (
    best_alpha_schedule,
    class_capacities,
    dataset_shape,
    schedule_minavg,
)
from repro.experiments.scenarios import scenario_classes


class TestDatasetShape:
    def test_known_shapes(self):
        assert dataset_shape("mnist") == (1, 28, 28)
        assert dataset_shape("cifar10") == (3, 32, 32)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            dataset_shape("svhn")


class TestClassCapacities:
    def test_proportional_to_class_count(self):
        caps = class_capacities([(0,), (0, 1), (0, 1, 2, 3, 4)], 100)
        assert caps == [10, 20, 50]

    def test_minimum_one(self):
        caps = class_capacities([(0,)], 5)
        assert caps[0] >= 1


class TestScheduleMinavg:
    def test_scenario_schedule_totals(self):
        classes = scenario_classes("S1")
        sched = schedule_minavg(
            1, classes, "cifar10", "lenet", alpha=100.0, beta=0.0,
            shard_size=500,
        )
        assert sched.sum() * 500 == 50_000

    def test_user_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            schedule_minavg(
                1, [(0,)], "cifar10", "lenet", alpha=100.0, beta=0.0
            )

    def test_capacities_can_be_disabled(self):
        classes = scenario_classes("S1")
        free = schedule_minavg(
            1, classes, "cifar10", "lenet",
            alpha=0.0, beta=0.0, shard_size=500, use_capacities=False,
        )
        capped = schedule_minavg(
            1, classes, "cifar10", "lenet",
            alpha=0.0, beta=0.0, shard_size=500, use_capacities=True,
        )
        # alpha=0: free mode is pure min-makespan; capacities bind the
        # 2-class pixel2 at 20% of the data
        assert capped[2] <= 20
        assert free.sum() == capped.sum()


def minavg_at(classes, alpha):
    return schedule_minavg(
        1, classes, "cifar10", "lenet", alpha=alpha, beta=0.0,
        shard_size=500,
    )


class TestBestAlpha:
    def test_picks_lowest_makespan(self):
        classes = scenario_classes("S1")
        sched, val = best_alpha_schedule(
            1, classes, "cifar10", "lenet",
            alphas=(100.0, 5000.0), beta=0.0, shard_size=500,
        )
        # alpha=100 spreads more -> lower profiled bottleneck
        np.testing.assert_array_equal(sched, minavg_at(classes, 100.0))
        assert val > 0

    def test_custom_scoring_function(self):
        classes = scenario_classes("S1")

        def prefer_concentration(schedule):
            # adversarial score: reward the largest single allocation
            return -float(schedule.max())

        sched, _ = best_alpha_schedule(
            1, classes, "cifar10", "lenet",
            alphas=(100.0, 5000.0), beta=0.0, shard_size=500,
            makespan_fn=prefer_concentration,
        )
        np.testing.assert_array_equal(sched, minavg_at(classes, 5000.0))


class TestHistoryCsv:
    def test_history_export(self, tiny_dataset, tmp_path):
        import csv

        from repro.data import iid_partition
        from repro.federated import FederatedSimulation, SimulationConfig
        from repro.models import logistic

        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 3, rng)
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = FederatedSimulation(
            tiny_dataset, model, users,
            config=SimulationConfig(lr=0.05, eval_every=2),
        )
        sim.run(4)
        path = tmp_path / "history.csv"
        sim.history.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "round"
        assert len(rows) == 5
        assert rows[2][4] != ""  # eval round has accuracy
        assert rows[1][4] == ""  # non-eval round blank

class TestTrainPartitionDirect:
    def test_uses_requested_model(self, tiny_dataset):
        from repro.data import iid_partition
        from repro.experiments.flruns import FLRunConfig, train_partition

        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 3, rng)
        acc = train_partition(
            tiny_dataset, users, FLRunConfig(model="mlp", rounds=3, lr=0.02)
        )
        assert 0.0 <= acc <= 1.0
