"""The device seam: the engine's drivers, run through ``DeviceBackend``,
reproduce the per-client object loop exactly.

``ObjectLoopEngine`` keeps that loop as a test-only oracle: per
participant it runs the device workload, then the link round trip, then
reads ``battery.soc``, emitting each client's events as it goes. Both
engines run over freshly built, identically seeded (jittered) testbeds
in the same process; event streams and device state must match with
``==``, never approx.
"""

import numpy as np

from repro.data.partition import UserData, iid_partition
from repro.device.registry import make_testbed
from repro.device.workload import TrainingWorkload
from repro.engine import RoundEngine
from repro.engine.aggregation import (
    GossipAverage,
    StalenessWeighted,
    SyncFedAvg,
)
from repro.engine.backend import DeviceBackend
from repro.engine.events import ClientDispatched, ClientFinished
from repro.engine.topology import PeerGraph, make_topology
from repro.federated.server import ParameterServer
from repro.models import logistic
from repro.models.flops import model_training_flops
from repro.network.link import make_link
from repro.network.transfer import round_comm_cost

TESTBED = 2  # six phones: Nexus 6 x2, Nexus 6P x2, Mate 10, Pixel 2


class ObjectLoopEngine(RoundEngine):
    """The engine's drivers over the per-client object loop."""

    def eligible_clients(self):
        return [
            j
            for j, user in enumerate(self.users)
            if user.size > 0
            and (
                self.devices is None
                or self.min_soc <= 0.0
                or self.devices[j].battery.soc >= self.min_soc
            )
        ]

    def client_compute(self, j, epochs=1):
        if self.devices is None:
            return 0.0, 0.0
        workload = TrainingWorkload(
            flops_per_sample=model_training_flops(self.model),
            n_samples=self._client_samples(j),
            batch_size=self.batch_size,
            epochs=epochs,
            model_name=self.model.name,
        )
        trace = self.devices[j].run_workload(workload, record=False)
        return trace.total_time_s, trace.energy_j

    def battery_soc(self, j):
        if self.devices is None:
            return None
        return self.devices[j].battery.soc

    def _dispatch(self, round_idx, idx, comm):
        times = np.zeros(len(self.users))
        for j in idx.tolist():
            self.bus.emit(
                ClientDispatched(
                    round_idx=round_idx,
                    client_id=j,
                    n_samples=self._client_samples(j),
                    time_s=self.clock_s,
                )
            )
            compute_s, comm_s, energy_j = 0.0, 0.0, None
            if self.devices is not None:
                compute_s, energy_j = self.client_compute(
                    j, epochs=self.local_epochs
                )
                if comm and self.links is not None:
                    comm_s = round_comm_cost(
                        self.model, self.links[j]
                    ).total_s
            times[j] = compute_s + comm_s
            self.bus.emit(
                ClientFinished(
                    round_idx=round_idx,
                    client_id=j,
                    compute_s=compute_s,
                    comm_s=comm_s,
                    total_s=times[j],
                    time_s=self.clock_s + times[j],
                    energy_j=energy_j,
                    battery_soc=self.battery_soc(j),
                )
            )
        return times

    def _idle_to_barrier(self, times, makespan):
        if self.devices is None:
            return
        for j, user in enumerate(self.users):
            wait = makespan - times[j] + self.aggregation_s
            if user.size > 0 and wait > 0:
                self.devices[j].idle(wait)


def population(dataset, devices=True, links=True):
    """Users (the last one holds no data), jittered testbed devices and
    jittered links — rebuilt identically on every call."""
    n = 6
    users = iid_partition(dataset, n - 1, np.random.default_rng(3))
    users.append(UserData(user_id=n - 1, indices=np.array([], dtype=int)))
    kw = {}
    if devices:
        kw["devices"] = make_testbed(TESTBED, seed=11, jitter=0.05)
    if links:
        kw["links"] = [
            make_link("lte" if j % 2 else "wifi", jitter=0.2, seed=j)
            for j in range(n)
        ]
    return users, kw


def engine_pair(dataset, strategy, devices=True, links=True, **engine_kw):
    """(oracle, unified) engines over identical fresh populations."""
    out = []
    for cls in (ObjectLoopEngine, RoundEngine):
        users, kw = population(dataset, devices=devices, links=links)
        engine = cls(
            dataset,
            logistic(input_shape=dataset.input_shape, seed=1),
            users,
            strategy=strategy(users),
            **kw,
            **engine_kw,
        )
        seen = []
        engine.bus.subscribe(seen.append)
        out.append((engine, seen))
    return out


def dicts(events):
    return [e.to_dict() for e in events]


def device_state(engine):
    if engine.devices is None:
        return None
    return [
        (d.battery.soc, d.thermal.temp_c, d.clock_s) for d in engine.devices
    ]


def finished(events):
    return [e for e in events if isinstance(e, ClientFinished)]


def sync_fedavg(users):
    return SyncFedAvg()


def run_sync(dataset, devices, links, rounds=3):
    pair = engine_pair(
        dataset,
        sync_fedavg,
        devices=devices,
        links=links,
        min_soc=0.05,
        aggregation_s=0.5,
    )
    for engine, _ in pair:
        engine.bind_server(ParameterServer(engine.model))
        for _ in range(rounds):
            engine.run_sync_round()
    (oracle, ev_o), (unified, ev_u) = pair
    assert len(ev_o) > 0
    assert dicts(ev_u) == dicts(ev_o)
    assert device_state(unified) == device_state(oracle)
    assert unified.clock_s == oracle.clock_s
    assert np.array_equal(
        unified.model.get_weights(), oracle.model.get_weights()
    )
    return unified, ev_u


class TestSyncRounds:
    def test_devices_and_links(self, tiny_dataset):
        engine, events = run_sync(tiny_dataset, devices=True, links=True)
        assert isinstance(engine.backend, DeviceBackend)
        assert all(e.comm_s > 0 for e in finished(events))
        assert all(e.energy_j > 0 for e in finished(events))

    def test_devices_without_links(self, tiny_dataset):
        _, events = run_sync(tiny_dataset, devices=True, links=False)
        assert finished(events)
        assert all(e.comm_s == 0 for e in finished(events))
        assert all(e.compute_s > 0 for e in finished(events))

    def test_no_devices(self, tiny_dataset):
        engine, events = run_sync(tiny_dataset, devices=False, links=False)
        assert engine.backend is None
        assert finished(events)
        for e in finished(events):
            assert e.energy_j is None and e.battery_soc is None
            assert e.compute_s == e.comm_s == e.total_s == 0.0
        assert engine.clock_s == 0.0
        assert [r.makespan_s for r in engine.history.records] == [0.0] * 3


def test_async_horizon(tiny_dataset):
    pair = engine_pair(
        tiny_dataset, lambda users: StalenessWeighted(), links=False
    )
    for engine, _ in pair:
        engine.run_async(horizon_s=150.0)
    (oracle, ev_o), (unified, ev_u) = pair
    assert len(unified.updates) > 3
    assert dicts(ev_u) == dicts(ev_o)
    assert device_state(unified) == device_state(oracle)
    assert unified.clock_s == oracle.clock_s


def test_gossip_round(tiny_dataset):
    def gossip(users):
        return GossipAverage(
            PeerGraph(make_topology("ring", len(users))).mixing
        )

    pair = engine_pair(tiny_dataset, gossip)
    for engine, _ in pair:
        engine.run_gossip_round()
    (oracle, ev_o), (unified, ev_u) = pair
    assert dicts(ev_u) == dicts(ev_o)
    assert device_state(unified) == device_state(oracle)
    assert unified.clock_s == oracle.clock_s > 0
    assert np.array_equal(unified.replicas, oracle.replicas)
    # gossip moves no model over links: comm never enters the clock
    assert all(e.comm_s == 0 for e in finished(ev_u))


def test_device_backend_is_the_engine_seam(tiny_dataset):
    _, kw = population(tiny_dataset)
    backend = DeviceBackend(
        kw["devices"],
        kw["links"],
        logistic(input_shape=tiny_dataset.input_shape, seed=1),
        batch_size=20,
    )
    idx = np.array([0, 3])
    assert backend.eligible_mask(0.0).all()
    soc_before = backend.soc(idx)
    seconds, joules = backend.run_compute(idx, np.array([100, 100]), 1)
    assert (seconds > 0).all() and (joules > 0).all()
    assert (backend.soc(idx) < soc_before).all()
    assert not backend.eligible_mask(1.0)[idx].any()
    assert (backend.comm_time_s(idx, 1.0) > 0).all()
    before = backend.soc(idx)
    backend.idle(idx, np.array([10.0, 0.0]))
    after = backend.soc(idx)
    assert after[0] < before[0] and after[1] == before[1]
