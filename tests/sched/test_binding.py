"""Engine integration: per-round planning, events, sample overrides."""

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.engine.events import ClientDispatched, ScheduleComputed
from repro.federated.simulation import (
    FederatedSimulation,
    SimulationConfig,
)
from repro.models import logistic
from repro.sched import (
    EngineSchedulerBinding,
    SchedulingProblem,
    get_scheduler,
)


def make_sim(dataset, n_users=3, **cfg_kw):
    rng = np.random.default_rng(0)
    users = iid_partition(dataset, n_users, rng)
    model = logistic(input_shape=dataset.input_shape, seed=1)
    return FederatedSimulation(
        dataset, model, users,
        config=SimulationConfig(lr=0.05, **cfg_kw),
    )


def matrix_problem(sim, shard_size=50):
    """A synthetic instance sized to the simulation's fleet/data."""
    n = len(sim.users)
    total = sum(u.size for u in sim.users) // shard_size
    k = np.arange(1, total + 1)
    slopes = np.linspace(0.5, 2.0, n)
    time_cost = slopes[:, None] * k[None, :]
    energy_cost = 2.0 * time_cost
    return SchedulingProblem(
        time_cost=time_cost,
        total_shards=total,
        shard_size=shard_size,
        energy_cost=energy_cost,
    )


class TestEngineBinding:
    def test_round_follows_plan_and_emits_event(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        problem = matrix_problem(sim)
        binding = EngineSchedulerBinding("olar", problem=problem)
        sim.engine.bind_scheduler(binding)
        events = []
        sim.events.subscribe(events.append)
        sim.run_round(train=False)

        scheds = [e for e in events if isinstance(e, ScheduleComputed)]
        assert len(scheds) == 1
        assert scheds[0].scheduler == "olar"
        assert scheds[0].round_idx == 1
        assert sum(scheds[0].shard_counts) == problem.total_shards

        planned = binding.assignments[0].samples_per_user()
        dispatched = {
            e.client_id: e.n_samples
            for e in events
            if isinstance(e, ClientDispatched)
        }
        for j, n_samples in dispatched.items():
            assert n_samples == planned[j]
        # planned-out users are not dispatched at all
        for j in range(len(sim.users)):
            if planned[j] == 0:
                assert j not in dispatched

    def test_training_uses_planned_subset_sizes(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        problem = matrix_problem(sim)
        binding = EngineSchedulerBinding("fed_lbap", problem=problem)
        sim.engine.bind_scheduler(binding)
        record = sim.run_round(train=True)
        planned = binding.assignments[0].samples_per_user()
        assert record.participant_count == int((planned > 0).sum())

    def test_unbinding_restores_native_sizes(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        binding = EngineSchedulerBinding(
            "equal", problem=matrix_problem(sim)
        )
        sim.engine.bind_scheduler(binding)
        sim.run_round(train=False)
        sim.engine.bind_scheduler(None)
        events = []
        sim.events.subscribe(events.append)
        sim.run_round(train=False)
        assert not any(
            isinstance(e, ScheduleComputed) for e in events
        )
        dispatched = [
            e for e in events if isinstance(e, ClientDispatched)
        ]
        for e in dispatched:
            assert e.n_samples == sim.users[e.client_id].size

    def test_per_round_chooser(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        problem = matrix_problem(sim)
        chooser = lambda r: "olar" if r % 2 else "equal"  # noqa: E731
        binding = EngineSchedulerBinding(chooser, problem=problem)
        sim.engine.bind_scheduler(binding)
        events = []
        sim.events.subscribe(events.append)
        sim.run_round(train=False)
        sim.run_round(train=False)
        names = [
            e.scheduler
            for e in events
            if isinstance(e, ScheduleComputed)
        ]
        assert names == ["olar", "equal"]

    def test_scheduler_instance_accepted(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        binding = EngineSchedulerBinding(
            get_scheduler("min_energy"),
            problem=matrix_problem(sim),
        )
        sim.engine.bind_scheduler(binding)
        sim.run_round(train=False)
        assert binding.assignments[0].scheduler == "min_energy"

    def test_user_count_mismatch_raises(self, tiny_dataset):
        sim = make_sim(tiny_dataset, n_users=3)
        bad = SchedulingProblem(
            time_cost=np.ones((2, 4)), total_shards=4, shard_size=50
        )
        sim.engine.bind_scheduler(
            EngineSchedulerBinding("equal", problem=bad)
        )
        with pytest.raises(ValueError, match="users"):
            sim.run_round(train=False)

    def test_bad_scheduler_type_raises(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        binding = EngineSchedulerBinding(
            3.14, problem=matrix_problem(sim)
        )
        sim.engine.bind_scheduler(binding)
        with pytest.raises(TypeError, match="scheduler"):
            sim.run_round(train=False)


class TestRestrictProblem:
    """Membership restriction: the serve re-plan entry point."""

    def _problem(self, n=4, total=8, cap=4):
        k = np.arange(1, total + 1)
        time_cost = np.linspace(0.5, 2.0, n)[:, None] * k[None, :]
        return SchedulingProblem(
            time_cost=time_cost,
            total_shards=total,
            capacities=np.full(n, cap, dtype=np.int64),
        )

    def test_zeroes_non_eligible_capacities(self):
        from repro.sched.binding import restrict_problem

        p = self._problem()
        restricted = restrict_problem(p, [0, 2])
        assert restricted.capacities.tolist() == [4, 0, 4, 0]
        # the original instance is untouched
        assert p.capacities.tolist() == [4, 4, 4, 4]
        # budget is preserved: the workload does not shrink
        assert restricted.total_shards == p.total_shards

    def test_restricted_schedule_covers_only_eligible(self):
        from repro.sched.binding import restrict_problem

        p = self._problem()
        restricted = restrict_problem(p, [1, 3])
        a = get_scheduler("olar").schedule(restricted)
        counts = np.asarray(a.shard_counts)
        assert counts[0] == 0 and counts[2] == 0
        assert counts.sum() == p.total_shards

    def test_infeasible_restriction_is_loud(self):
        from repro.sched.binding import restrict_problem

        p = self._problem(n=4, total=8, cap=4)
        with pytest.raises(RuntimeError, match="infeasible"):
            restrict_problem(p, [0])  # 4 < 8 shards

    def test_uncapped_problem_defaults_to_budget(self):
        from repro.sched.binding import restrict_problem

        k = np.arange(1, 7)
        p = SchedulingProblem(
            time_cost=np.ones((3, 6)) * k[None, :],
            total_shards=6,
        )
        restricted = restrict_problem(p, [2])
        # effective capacity of an uncapped user is the full budget,
        # so one survivor can still absorb everything
        assert restricted.capacities.tolist() == [0, 0, 6]


class TestProblemFromEngine:
    def test_builds_from_devices_and_users(self, tiny_dataset):
        from repro.device.registry import make_device
        from repro.sched.binding import problem_from_engine

        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 3, rng)
        devices = [
            make_device(n, jitter=0.0)
            for n in ("nexus6", "mate10", "pixel2")
        ]
        model = logistic(
            input_shape=tiny_dataset.input_shape, seed=1
        )
        sim = FederatedSimulation(
            tiny_dataset, model, users, devices=devices,
            config=SimulationConfig(lr=0.05),
        )
        p = problem_from_engine(sim.engine, shard_size=100)
        assert p.n_users == 3
        total = sum(u.size for u in users)
        assert p.total_shards == total // 100
        assert p.energy_cost is not None
        assert p.meta["devices"] == ("nexus6", "mate10", "pixel2")
        # the matrix is usable by every registered scheduler
        a = get_scheduler("olar").schedule(p)
        assert a.shard_counts.sum() == p.total_shards

    def test_requires_devices(self, tiny_dataset):
        from repro.sched.binding import problem_from_engine

        sim = make_sim(tiny_dataset)
        with pytest.raises(ValueError, match="devices"):
            problem_from_engine(sim.engine)
