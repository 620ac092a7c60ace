"""Beyond the paper: dropout, async, and server-less alternatives.

The paper makes three design choices it argues for but does not
quantify head-to-head: synchronous aggregation (vs async), data-size
scheduling (vs hard straggler dropout [5]), and notes its schedules are
"amenable to decentralized topologies". This example runs all three
comparisons on the same simulated substrate.

Run:  python examples/beyond_the_paper.py
"""

import numpy as np

from repro.core import build_cost_matrix
from repro.data import iid_partition, load_preset
from repro.device import make_device
from repro.experiments.realized import realized_times
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.federated import (
    AsyncConfig,
    AsyncFederatedSimulation,
    DecentralizedConfig,
    DecentralizedSimulation,
    DropoutPolicy,
    FederatedSimulation,
    SimulationConfig,
    apply_deadline,
    make_topology,
)
from repro.models import build_model, lenet
from repro.sched import fed_lbap


def dropout_comparison() -> None:
    print("1. Hard straggler dropout [5] vs Fed-LBAP (testbed 2, 60K LeNet)")
    names = testbed_names(2)
    model = lenet()
    equal = np.full(len(names), 10_000)
    times = realized_times(equal, names, model)
    survivors, dropped, t_drop = apply_deadline(
        times, list(range(len(names))), DropoutPolicy(deadline_factor=1.5)
    )
    curves = cached_time_curves(names, model)
    cost = build_cost_matrix(curves, 120, 500)
    counts, _ = fed_lbap(cost, 120)
    t_lbap = realized_times(counts * 500, names, model).max()
    print(
        f"   dropout : round = {t_drop:6.1f} s, discards "
        f"{len(dropped)} device(s) = "
        f"{100 * len(dropped) / len(names):.0f}% of the data"
    )
    print(f"   fed-lbap: round = {t_lbap:6.1f} s, discards nothing\n")


def async_comparison() -> None:
    print("2. Synchronous FedAvg vs asynchronous staleness-weighted updates")
    dataset = load_preset("mnist_mini")
    names = ("pixel2", "nexus6", "nexus6p")
    users = iid_partition(dataset, 3, np.random.default_rng(0))

    sync = FederatedSimulation(
        dataset,
        build_model("logistic", dataset.input_shape, seed=1),
        users,
        devices=[make_device(n, jitter=0.0) for n in names],
        config=SimulationConfig(lr=0.05, eval_every=4),
    )
    h = sync.run(4)
    horizon = h.total_time_s

    asim = AsyncFederatedSimulation(
        dataset,
        build_model("logistic", dataset.input_shape, seed=1),
        users,
        [make_device(n, jitter=0.0) for n in names],
        config=AsyncConfig(lr=0.05),
    )
    asim.run(horizon)
    counts = asim.update_counts()
    print(
        f"   sync : {4 * 3} updates in {horizon:.0f} s "
        f"-> accuracy {sync.final_accuracy():.3f}"
    )
    print(
        f"   async: {len(asim.updates)} updates in the same window "
        f"-> accuracy {asim.final_accuracy():.3f}"
    )
    print(
        "   async per-device updates "
        + ", ".join(f"{n}={c}" for n, c in zip(names, counts))
        + "  (fast devices dominate: the bias the paper warns about)\n"
    )


def decentralized_comparison() -> None:
    print("3. Server-less gossip FL across topologies (6 users, 6 rounds)")
    dataset = load_preset("mnist_mini")
    for kind in ("ring", "complete"):
        users = iid_partition(dataset, 6, np.random.default_rng(0))
        sim = DecentralizedSimulation(
            dataset,
            build_model("logistic", dataset.input_shape, seed=1),
            users,
            make_topology(kind, 6),
            config=DecentralizedConfig(lr=0.05),
        )
        sim.run(6)
        print(
            f"   {kind:9s}: mean accuracy {sim.mean_accuracy():.3f}, "
            f"consensus distance {sim.consensus_distance():.3f}"
        )
    print()


def main() -> None:
    dropout_comparison()
    async_comparison()
    decentralized_comparison()


if __name__ == "__main__":
    main()
