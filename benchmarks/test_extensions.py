"""Extension benchmarks: the alternatives the paper discusses but does
not adopt, quantified against its own approach on the same substrate.

* **Hard straggler dropout** (ref [5], Sec. II-B): bounds round time
  but discards the stragglers' data — data-size scheduling (Fed-LBAP)
  achieves a comparable round time while using every sample.
* **Asynchronous aggregation** (Sec. II-B): more updates per unit time,
  but update counts skew heavily toward fast devices.
* **Decentralized topologies** (Sec. IV-A): Fed-MinAvg schedules plug
  into server-less gossip unchanged; denser graphs reach consensus
  faster.
* **Energy-aware capacities** (Sec. VI-A): battery budgets mapped into
  the C_j constraint of P2.
"""

import numpy as np
import pytest

from _util import record, run_once
from repro.core import build_cost_matrix
from repro.data import iid_partition, load_preset
from repro.device import (
    energy_capacity_shards,
    make_device,
)
from repro.experiments.runner import ExperimentResult
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.federated import (
    AsyncConfig,
    AsyncFederatedSimulation,
    DecentralizedConfig,
    DecentralizedSimulation,
    DropoutPolicy,
    FederatedSimulation,
    SimulationConfig,
    make_topology,
)
from repro.models import build_model, lenet
from repro.sched import fed_lbap, fed_minavg


def test_dropout_vs_scheduling(benchmark):
    """Dropout shortens rounds but wastes straggler data; data-size
    scheduling matches the round time *and* keeps the data.

    Time side: full MNIST-scale LeNet on Testbed 2, Equal+deadline vs
    Fed-LBAP. Data side: scenario S(I), where the straggling device
    that dropout discards is also a unique-class holder — dropping it
    is the paper's 'Missing' case of Fig. 3(b).
    """
    from repro.experiments.flruns import FLRunConfig, accuracy_of_schedule
    from repro.experiments.realized import realized_times
    from repro.experiments.scenarios import scenario_classes
    from repro.federated.dropout import apply_deadline

    def run_all():
        out = {}
        # --- time: Testbed 2, 60K samples, equal split + deadline ---
        names = testbed_names(2)
        model = lenet()
        shards, d = 120, 500
        equal_sizes = np.full(len(names), shards // len(names)) * d
        times = realized_times(equal_sizes, names, model)
        active = list(range(len(names)))
        survivors, dropped, t_dropout = apply_deadline(
            times, active, DropoutPolicy(deadline_factor=1.5)
        )
        wasted = equal_sizes[dropped].sum() / equal_sizes.sum()
        curves = cached_time_curves(names, model)
        cost = build_cost_matrix(curves, shards, d)
        counts, _ = fed_lbap(cost, shards)
        t_lbap = realized_times(counts * d, names, model).max()
        out["time"] = (t_dropout, t_lbap, float(wasted), len(dropped))

        # --- data: S(I): dropping the outlier loses class 7 entirely ---
        classes = scenario_classes("S1")
        fl = FLRunConfig(rounds=8)
        # dropout-of-outlier = equal shares with the outlier zeroed
        acc_drop = accuracy_of_schedule(
            "cifar10_mini", [1, 1, 0], classes, fl
        )
        minavg = fed_minavg(
            cached_time_curves(testbed_names(1), model),
            classes,
            total_shards=200,
            shard_size=250,
            num_classes=10,
            alpha=100.0,
            beta=2.0,
        )
        acc_sched = accuracy_of_schedule(
            "cifar10_mini", minavg, classes, fl
        )
        out["accuracy"] = (acc_drop, acc_sched)
        return out

    out = run_once(benchmark, run_all)
    t_dropout, t_lbap, wasted, n_dropped = out["time"]
    acc_drop, acc_sched = out["accuracy"]
    result = ExperimentResult(
        name="ext_dropout",
        description="hard straggler dropout [5] vs data-size scheduling",
        columns=["metric", "dropout", "scheduling"],
    )
    result.add_row(
        metric="round_time_s (testbed2, 60K lenet)",
        dropout=t_dropout,
        scheduling=t_lbap,
    )
    result.add_row(
        metric="training data wasted", dropout=wasted, scheduling=0.0
    )
    result.add_row(
        metric="accuracy (S1, outlier holds class 7)",
        dropout=acc_drop,
        scheduling=acc_sched,
    )
    record(result)
    assert n_dropped >= 1  # the Nexus 6Ps blow the deadline
    assert wasted > 0.2
    assert t_lbap <= t_dropout * 1.1  # scheduling matches dropout's time
    assert acc_sched > acc_drop + 0.02  # and keeps the unique class


def test_sync_vs_async(benchmark):
    """Async applies more updates per unit virtual time but skews toward
    fast devices — the trade-off behind the paper's sync choice."""
    dataset = load_preset("mnist_mini")
    names = ("pixel2", "nexus6", "nexus6p")

    def run_all():
        rng = np.random.default_rng(0)
        users = iid_partition(dataset, 3, rng)
        devices = [make_device(n, jitter=0.0) for n in names]
        model = build_model("logistic", dataset.input_shape, seed=1)
        sync = FederatedSimulation(
            dataset, model, users, devices=devices,
            config=SimulationConfig(lr=0.05, eval_every=4),
        )
        h = sync.run(4)
        horizon = h.total_time_s
        devices2 = [make_device(n, jitter=0.0) for n in names]
        model2 = build_model("logistic", dataset.input_shape, seed=1)
        asim = AsyncFederatedSimulation(
            dataset, model2, users, devices2,
            config=AsyncConfig(lr=0.05),
        )
        asim.run(horizon)
        return {
            "sync": (4 * len(names), sync.final_accuracy(), horizon),
            "async": (
                len(asim.updates),
                asim.final_accuracy(),
                horizon,
            ),
            "async_counts": asim.update_counts().tolist(),
        }

    out = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_async",
        description="sync FedAvg vs async staleness-weighted updates "
        "in the same virtual time",
        columns=["mode", "updates_applied", "accuracy", "horizon_s"],
    )
    for k in ("sync", "async"):
        u, a, t = out[k]
        result.add_row(mode=k, updates_applied=u, accuracy=a, horizon_s=t)
    result.add_note(f"async per-user update counts: {out['async_counts']}")
    record(result)
    counts = out["async_counts"]
    assert counts[0] > counts[2]  # pixel2 outpaces nexus6p
    assert out["async"][1] > 0.5  # still learns
    assert out["sync"][1] > 0.5


def test_decentralized_topologies(benchmark):
    """Gossip FL: denser topologies give tighter consensus at equal
    rounds; all reach useful accuracy without any server."""
    dataset = load_preset("mnist_mini")

    def run_all():
        out = {}
        for kind in ("ring", "random", "complete"):
            rng = np.random.default_rng(0)
            users = iid_partition(dataset, 6, rng)
            graph = make_topology(kind, 6, np.random.default_rng(1))
            model = build_model("logistic", dataset.input_shape, seed=1)
            sim = DecentralizedSimulation(
                dataset, model, users, graph,
                config=DecentralizedConfig(lr=0.05),
            )
            sim.run(6)
            out[kind] = (sim.mean_accuracy(), sim.consensus_distance())
        return out

    out = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_decentralized",
        description="server-less gossip FL across topologies "
        "(6 users, 6 rounds)",
        columns=["topology", "mean_accuracy", "consensus_distance"],
    )
    for k, (a, d) in out.items():
        result.add_row(topology=k, mean_accuracy=a, consensus_distance=d)
    record(result)
    assert all(a > 0.6 for a, _ in out.values())
    assert out["complete"][1] <= out["ring"][1]


def test_energy_aware_scheduling(benchmark):
    """Battery budgets as P2 capacities: a 2% budget caps what each
    device may take, and Fed-MinAvg routes the remainder elsewhere."""
    names = testbed_names(1)
    model = lenet()

    def run_all():
        caps = [
            energy_capacity_shards(
                make_device(n, jitter=0.0),
                model,
                shard_size=500,
                budget_fraction=0.02,
                max_shards=120,
            )
            for n in names
        ]
        curves = cached_time_curves(names, model)
        classes = [tuple(range(10))] * len(names)
        sched = fed_minavg(
            curves,
            classes,
            total_shards=min(sum(caps), 120),
            shard_size=500,
            num_classes=10,
            alpha=0.0,
            capacities=caps,
        )
        return caps, sched.tolist()

    caps, counts = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_energy",
        description="battery-budget (2%) capacities feeding P2",
        columns=["device", "capacity_shards", "scheduled_shards"],
    )
    for n, c, s in zip(names, caps, counts):
        result.add_row(device=n, capacity_shards=c, scheduled_shards=s)
    record(result)
    assert all(s <= c for s, c in zip(counts, caps))
    assert all(c > 0 for c in caps)


def test_no_congestion_assumption(benchmark):
    """Sec. IV-A assumes simultaneous transmissions never congest the
    server. The fair-share model quantifies where that holds: for the
    paper's testbeds (<= 10 devices) even VGG6 pushes stay device-link
    limited on a gigabit server, but a 32-device fleet saturates it and
    communication stops being negligible (Observation 3 inverts)."""
    from repro.network.congestion import congested_round_comm

    def run_all():
        out = []
        for n in (3, 10, 32, 64):
            t = congested_round_comm(
                model_size_mb=65.4, n_participants=n,
                device_mbps=85.0, server_mbps=1000.0,
            )
            # VGG6 testbed-2 compute round ~ 1900 s (Fed-LBAP)
            frac = t / (t + 1900.0)
            out.append((n, t, frac))
        return out

    rows = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_congestion",
        description="VGG6 upload tail vs participants under a 1 Gbps "
        "server (fair-share congestion)",
        columns=["participants", "upload_tail_s", "comm_fraction"],
    )
    for n, t, frac in rows:
        result.add_row(
            participants=n, upload_tail_s=t, comm_fraction=frac
        )
    record(result)
    by_n = {n: t for n, t, _ in rows}
    # the paper's regime: testbed sizes are uncongested
    assert by_n[10] == pytest.approx(by_n[3], rel=0.01)
    # the assumption's boundary: large fleets scale linearly
    assert by_n[64] > 1.8 * by_n[32]
