"""ISSUE acceptance: the columnar fleet path and the object-per-client
path are *bit-identical* — same event streams, same schedules, same
round records, same energy-ledger totals — at small n.

Both engines run over the same :class:`FleetStore` population, one via
the object views of ``conftest.py`` (driven through the engine's
``DeviceBackend``), one via ``fleet=``; the views call the store's own
vector ops on one-element index arrays, so every comparison below is
exact equality, never approx.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticConfig, make_dataset
from repro.federated.simulation import (
    FederatedSimulation,
    SimulationConfig,
)
from repro.fleet import UniformSampler
from repro.obs import ObsRecorder
from repro.sched.binding import EngineSchedulerBinding
from repro.sched.costs import fleet_problem

from .conftest import fleet_devices, fleet_links, toy_fleet

MAX_N = 50


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(
        SyntheticConfig(
            name="fleet-eq",
            shape=(1, 8, 8),
            num_classes=10,
            train_size=200,
            test_size=80,
            noise=1.0,
            seed=42,
        )
    )


def make_pair(dataset, n, seed, config, cohort_size=None):
    """Two simulations over copies of the same fleet: object views vs
    the columnar path. Returns (sim_object, sim_fleet, fa, fb)."""
    rng = np.random.default_rng(seed)
    users = iid_partition(dataset, n, rng)
    fa = toy_fleet(n=n, seed=seed)
    fb = fa.copy()
    kw_a = {}
    kw_b = {}
    if cohort_size is not None:
        kw_a = dict(
            cohort_sampler=UniformSampler(seed), cohort_size=cohort_size
        )
        kw_b = dict(
            cohort_sampler=UniformSampler(seed), cohort_size=cohort_size
        )
    from repro.models import logistic

    sim_a = FederatedSimulation(
        dataset,
        logistic(input_shape=dataset.input_shape, seed=1),
        users,
        devices=fleet_devices(fa),
        links=fleet_links(fa),
        config=config,
        **kw_a,
    )
    sim_b = FederatedSimulation(
        dataset,
        logistic(input_shape=dataset.input_shape, seed=1),
        users,
        fleet=fb,
        config=config,
        **kw_b,
    )
    return sim_a, sim_b, fa, fb


def captured(sim):
    seen = []
    sim.events.subscribe(seen.append)
    return seen


def event_dicts(events, drop=()):
    out = []
    for e in events:
        d = e.to_dict()
        for key in drop:
            d.pop(key, None)
        out.append(d)
    return out


class TestBitIdentity:
    def test_training_rounds_bit_identical(self, dataset):
        cfg = SimulationConfig(lr=0.05, min_soc=0.2, aggregation_s=0.5)
        sim_a, sim_b, fa, fb = make_pair(dataset, 12, seed=3, config=cfg)
        ev_a, ev_b = captured(sim_a), captured(sim_b)
        sim_a.run(3)
        sim_b.run(3)
        assert event_dicts(ev_a) == event_dicts(ev_b)
        assert np.array_equal(fa.battery_j, fb.battery_j)

    def test_round_records_identical(self, dataset):
        cfg = SimulationConfig(min_soc=0.3)
        sim_a, sim_b, _, _ = make_pair(dataset, 10, seed=1, config=cfg)
        ra = [sim_a.run_round(train=False) for _ in range(2)]
        rb = [sim_b.run_round(train=False) for _ in range(2)]
        for a, b in zip(ra, rb):
            assert a.round_idx == b.round_idx
            assert a.makespan_s == b.makespan_s
            assert a.mean_time_s == b.mean_time_s
            assert a.accuracy == b.accuracy
            assert a.participant_count == b.participant_count
            assert np.array_equal(a.per_user_time_s, b.per_user_time_s)

    def test_energy_ledger_totals_identical(self, dataset):
        cfg = SimulationConfig(min_soc=0.0)
        sim_a, sim_b, _, _ = make_pair(dataset, 8, seed=5, config=cfg)
        rec_a, rec_b = ObsRecorder(), ObsRecorder()
        sim_a.events.subscribe(rec_a)
        sim_b.events.subscribe(rec_b)
        sim_a.run(2, train=False)
        sim_b.run(2, train=False)
        assert rec_a.energy.total_energy_j > 0
        assert (
            rec_a.energy.total_energy_j == rec_b.energy.total_energy_j
        )
        assert rec_a.energy.round_energy == rec_b.energy.round_energy

    def test_scheduled_rounds_produce_identical_schedules(self, dataset):
        cfg = SimulationConfig(min_soc=0.0, aggregation_s=0.0)
        sim_a, sim_b, fa, fb = make_pair(dataset, 6, seed=2, config=cfg)
        sim_a.engine.bind_scheduler(
            EngineSchedulerBinding(
                "olar", problem=fleet_problem(fa, shard_size=50)
            )
        )
        binding_b = EngineSchedulerBinding(
            "olar", problem=fleet_problem(fb, shard_size=50)
        )
        sim_b.engine.bind_scheduler(binding_b)
        ev_a, ev_b = captured(sim_a), captured(sim_b)
        sim_a.run(2, train=False)
        sim_b.run(2, train=False)
        # solve_ms is host wall-time, the one legitimately
        # run-dependent field in the stream
        assert event_dicts(ev_a, drop=("solve_ms",)) == event_dicts(
            ev_b, drop=("solve_ms",)
        )
        counts = [
            np.asarray(a.shard_counts) for a in binding_b.assignments
        ]
        assert len(counts) == 2
        assert np.array_equal(counts[0], counts[1])

    def test_n50_timing_rounds_bit_identical(self, dataset):
        cfg = SimulationConfig(min_soc=0.25, aggregation_s=1.0)
        sim_a, sim_b, fa, fb = make_pair(
            dataset, MAX_N, seed=9, config=cfg
        )
        ev_a, ev_b = captured(sim_a), captured(sim_b)
        sim_a.run(3, train=False)
        sim_b.run(3, train=False)
        assert len(ev_a) > 0
        assert event_dicts(ev_a) == event_dicts(ev_b)
        assert np.array_equal(fa.battery_j, fb.battery_j)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n=st.integers(2, 16),
    min_soc=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_property_paths_agree_for_any_population(dataset, seed, n, min_soc):
    cfg = SimulationConfig(min_soc=min_soc, aggregation_s=0.5)
    sim_a, sim_b, fa, fb = make_pair(dataset, n, seed=seed, config=cfg)
    ev_a, ev_b = captured(sim_a), captured(sim_b)
    try:
        sim_a.run(2, train=False)
    except RuntimeError:
        # every device below the floor: the fleet path must agree
        with pytest.raises(RuntimeError):
            sim_b.run(2, train=False)
        return
    sim_b.run(2, train=False)
    assert event_dicts(ev_a) == event_dicts(ev_b)
    assert np.array_equal(fa.battery_j, fb.battery_j)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n=st.integers(6, 20),
    k=st.integers(2, 5),
)
def test_property_cohort_sampling_agrees(dataset, seed, n, k):
    """Seeded cohort sampling draws the same cohort on both paths."""
    cfg = SimulationConfig(min_soc=0.0, aggregation_s=0.0)
    sim_a, sim_b, fa, fb = make_pair(
        dataset, n, seed=seed, config=cfg, cohort_size=k
    )
    ev_a, ev_b = captured(sim_a), captured(sim_b)
    sim_a.run(2, train=False)
    sim_b.run(2, train=False)
    da, db = event_dicts(ev_a), event_dicts(ev_b)
    assert da == db
    dispatched = {
        d["client_id"] for d in da if d["event"] == "client_dispatched"
    }
    assert 0 < len(dispatched) <= 2 * k
    assert np.array_equal(fa.battery_j, fb.battery_j)
