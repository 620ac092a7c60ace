"""End-to-end federated training with a device-driven virtual clock.

A full FL deployment on Testbed I: non-IID users (activity-recognition
style — each phone sees a few classes), LTE links, Fed-MinAvg
scheduling, real NumPy training with FedAvg aggregation, and per-round
makespans from the device simulator — including the cross-round thermal
state (devices heat up, idle phases cool them).

Run:  python examples/federated_training.py
"""

import numpy as np

from repro.core import class_coverage
from repro.data import load_preset, materialize_schedule
from repro.experiments.minavg_runs import schedule_minavg
from repro.experiments.scenarios import scenario_classes
from repro.experiments.testbeds import testbed_names
from repro.federated import FederatedSimulation, SimulationConfig
from repro.device import make_device
from repro.models import build_model
from repro.network import make_link


def main() -> None:
    scenario = "S1"
    testbed = 1
    names = testbed_names(testbed)
    classes = scenario_classes(scenario)

    # 1. Plan the (full-scale) workload with Fed-MinAvg, then replay
    #    its shape on the fast mini dataset.
    counts = schedule_minavg(
        testbed, classes, "mnist", "lenet",
        alpha=100.0, beta=2.0, shard_size=100,
    )
    print("Fed-MinAvg schedule (alpha=100, beta=2):")
    for name, cs, n in zip(names, classes, counts * 100):
        print(f"  {name:8s} classes={cs!s:28s} -> {n:6d} samples")
    coverage = class_coverage(counts, classes, 10)
    print(f"  class coverage: {coverage:.0%}\n")

    dataset = load_preset("mnist_mini")
    mini_counts = np.maximum((counts * 40 / counts.sum()).astype(int), 0)
    mini_counts[(counts > 0) & (mini_counts == 0)] = 1
    users = materialize_schedule(
        dataset, mini_counts, classes, shard_size=50, seed=0
    )

    # 2. Wire up devices + links and run synchronous FedAvg rounds.
    devices = [make_device(n, seed=i) for i, n in enumerate(names)]
    links = [make_link("lte", seed=i) for i in range(len(names))]
    model = build_model("logistic", dataset.input_shape, seed=1)
    sim = FederatedSimulation(
        dataset,
        model,
        users,
        devices=devices,
        links=links,
        config=SimulationConfig(lr=0.05, eval_every=1, seed=0),
    )

    print("round  makespan   mean-time  participants  accuracy")
    for _ in range(8):
        rec = sim.run_round()
        print(
            f"{rec.round_idx:5d}  {rec.makespan_s:8.1f}s "
            f"{rec.mean_time_s:9.1f}s  {rec.participant_count:12d} "
            f" {rec.accuracy:.3f}"
        )
    h = sim.history
    print(
        f"\ntotal virtual wall time: {h.total_time_s:.0f} s over "
        f"{len(h.records)} rounds; final accuracy {h.final_accuracy:.3f}"
    )
    for d in devices:
        print(
            f"  {d.spec.name:8s}: temp={d.thermal.temp_c:5.1f}C  "
            f"battery={d.battery.soc:.1%}"
        )


if __name__ == "__main__":
    main()
