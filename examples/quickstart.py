"""Quickstart: schedule one federated round with Fed-LBAP.

Builds the paper's Testbed II (6 phones including two throttling
Nexus 6Ps), profiles each device for LeNet, schedules the full
MNIST-sized training set with Fed-LBAP and the three baselines, and
compares the realized synchronous-round makespans on the device
simulator.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import build_cost_matrix
from repro.device import build_spec
from repro.experiments.realized import realized_times
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.models import lenet
from repro.sched import (
    equal_schedule,
    fed_lbap,
    proportional_schedule,
    random_schedule,
)


def main() -> None:
    testbed = 2
    names = testbed_names(testbed)
    model = lenet()
    shard_size = 500
    total_shards = 60_000 // shard_size  # full MNIST-scale training set

    print(f"Testbed {testbed}: {', '.join(names)}")
    print(f"Model: {model.name} ({model.param_count():,} parameters)")
    print(f"Workload: {total_shards} shards x {shard_size} samples\n")

    # 1. Offline profiling: time-vs-data curves per device (Sec. IV-B).
    curves = cached_time_curves(names, model)
    for name, curve in zip(names, curves):
        print(f"  profile {name:8s}: T(3000) = {curve(3000):7.1f} s")

    # 2. Fed-LBAP: joint partitioning + assignment (Algorithm 1).
    cost = build_cost_matrix(curves, total_shards, shard_size)
    counts, bottleneck = fed_lbap(cost, total_shards)
    print(f"\nFed-LBAP bottleneck estimate: {bottleneck:.1f} s")
    print(f"allocation (samples/user):    {counts * shard_size}")

    # 3. Compare realized makespans against the paper's baselines.
    rng = np.random.default_rng(0)
    allocations = {
        "fed-lbap": counts,
        "equal": equal_schedule(len(names), total_shards),
        "random": random_schedule(len(names), total_shards, rng),
        "proportional": proportional_schedule(
            [build_spec(n) for n in names], total_shards
        ),
    }
    print("\nrealized synchronous-round makespan:")
    results = {}
    for label, alloc in allocations.items():
        times = realized_times(alloc * shard_size, names, model)
        results[label] = times.max()
        print(f"  {label:12s}: {times.max():8.1f} s")
    best_baseline = min(v for k, v in results.items() if k != "fed-lbap")
    print(
        f"\nFed-LBAP speedup vs best baseline: "
        f"{best_baseline / results['fed-lbap']:.2f}x"
    )


if __name__ == "__main__":
    main()
