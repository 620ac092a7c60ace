"""Failure-injection and degenerate-input tests across the stack.

What happens when batteries die, schedules are infeasible, data
vanishes, links are absurd, or inputs are adversarial — the system must
fail loudly (ValueError/RuntimeError) or degrade gracefully (documented
fallbacks), never silently corrupt results.
"""

import numpy as np
import pytest

from repro.core import build_cost_matrix
from repro.data import iid_partition, load_preset, materialize_schedule
from repro.device import (
    BatteryDepletedError,
    MobileDevice,
    TrainingWorkload,
    make_device,
)
from repro.federated import (
    FederatedSimulation,
    SimulationConfig,
    fedavg_aggregate,
)
from repro.models import logistic
from repro.network.link import Link
from repro.sched import fed_lbap, fed_minavg


class TestBatteryFailures:
    def test_long_run_drains_battery_to_floor(self):
        """A multi-hour sustained workload floors the battery at zero
        instead of going negative."""
        dev = make_device("pixel2", jitter=0.0)
        w = TrainingWorkload(1e9, 200_000, batch_size=20)
        dev.run_workload(w, record=False)
        assert dev.battery.soc >= 0.0

    def test_strict_drain_raises(self):
        dev = make_device("pixel2", jitter=0.0)
        with pytest.raises(BatteryDepletedError):
            dev.battery.drain(1e9, 1e9, strict=True)

    def test_low_battery_device_sits_out(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 3, rng)
        devices = [make_device("pixel2", jitter=0.0) for _ in range(3)]
        devices[1].battery.reset(0.05)  # nearly dead
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = FederatedSimulation(
            tiny_dataset,
            model,
            users,
            devices=devices,
            config=SimulationConfig(lr=0.05, min_soc=0.2, eval_every=1),
        )
        rec = sim.run_round()
        assert rec.participant_count == 2
        assert rec.per_user_time_s[1] == 0.0

    def test_all_devices_dead_raises(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 2, rng)
        devices = [make_device("pixel2", jitter=0.0) for _ in range(2)]
        for d in devices:
            d.battery.reset(0.01)
        model = logistic(input_shape=tiny_dataset.input_shape)
        sim = FederatedSimulation(
            tiny_dataset, model, users, devices=devices,
            config=SimulationConfig(min_soc=0.2),
        )
        with pytest.raises(RuntimeError):
            sim.run_round()

    def test_recharged_device_rejoins(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 2, rng)
        devices = [make_device("pixel2", jitter=0.0) for _ in range(2)]
        devices[1].battery.reset(0.1)
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = FederatedSimulation(
            tiny_dataset, model, users, devices=devices,
            config=SimulationConfig(lr=0.05, min_soc=0.2, eval_every=5),
        )
        assert sim.run_round().participant_count == 1
        devices[1].battery.reset(1.0)  # user plugged the phone in
        assert sim.run_round().participant_count == 2


class TestSchedulerFailures:
    def test_lbap_rejects_nan_costs(self):
        cost = np.array([[1.0, np.nan, 3.0]])
        with pytest.raises(ValueError):
            fed_lbap(cost, 2)

    def test_cost_matrix_rejects_nan_curve(self):
        with pytest.raises(ValueError):
            build_cost_matrix([lambda x: float("nan")], 2, 100)

    def test_minavg_single_user_takes_everything(self):
        sched = fed_minavg(
            [lambda x: 0.01 * x],
            [(0, 1)],
            total_shards=10,
            shard_size=100,
            num_classes=10,
            alpha=100.0,
        )
        assert sched[0] == 10

    def test_minavg_exact_capacity_fit(self):
        """Capacities summing exactly to D must be fully used."""
        sched = fed_minavg(
            [lambda x: 0.01 * x, lambda x: 0.02 * x],
            [(0,), (1,)],
            total_shards=10,
            shard_size=100,
            num_classes=10,
            alpha=0.0,
            capacities=[4, 6],
        )
        np.testing.assert_array_equal(sched, [4, 6])

    def test_lbap_one_shard(self):
        cost = np.cumsum(np.ones((3, 4)), axis=1)
        sched, c = fed_lbap(cost, 1)
        assert sched.sum() == 1
        assert c == pytest.approx(1.0)


class TestDataFailures:
    def test_materialize_with_exhausted_class_falls_back(self):
        """Requesting far more shards of a class than exist falls back
        to sampling with replacement instead of crashing."""
        ds = load_preset("mnist_mini")
        per_class = ds.train_size // 10
        too_many = (per_class // 20) * 30  # 1.5x the class supply
        users = materialize_schedule(
            ds, [too_many], [(0,)], shard_size=20
        )
        assert users[0].size == too_many * 20
        assert set(ds.y_train[users[0].indices].tolist()) == {0}

    def test_aggregate_nan_weights_propagate_visibly(self):
        """NaNs in a client vector are not laundered into numbers."""
        out = fedavg_aggregate(
            [np.array([np.nan, 1.0]), np.array([1.0, 1.0])], [1, 1]
        )
        assert np.isnan(out[0])
        assert out[1] == 1.0


class TestLinkEdgeCases:
    def test_tiny_bandwidth_still_finite(self):
        link = Link("dialup", uplink_mbps=0.01, downlink_mbps=0.01)
        t = link.round_trip_time_s(65.4)
        assert np.isfinite(t)
        assert t > 10_000  # an hour-plus, but finite and positive

    def test_extreme_jitter_never_negative(self):
        link = Link("bad", 10.0, 10.0, jitter=2.0, seed=0)
        for _ in range(200):
            assert link.upload_time_s(1.0) > 0


class TestDeviceEdgeCases:
    def test_zero_sample_workload_rejected(self):
        with pytest.raises(ValueError):
            TrainingWorkload(1e7, n_samples=-1)

    def test_zero_samples_completes_instantly(self):
        dev = make_device("pixel2", jitter=0.0)
        w = TrainingWorkload(1e7, n_samples=0)
        trace = dev.run_workload(w, record=False)
        assert trace.total_time_s == 0.0

    def test_batch_larger_than_dataset(self):
        dev = make_device("pixel2", jitter=0.0)
        w = TrainingWorkload(1e7, n_samples=5, batch_size=100)
        trace = dev.run_workload(w)
        assert trace.total_time_s > 0
