"""Non-IID scheduling with Fed-MinAvg: the alpha/beta trade-off.

Uses the paper's scenario S(I) (Table IV): three devices where the
fastest one — Pixel2 — holds only two classes, one of which (class 7)
exists nowhere else. Sweeps alpha and beta, prints the schedules, and
trains each schedule with FedAvg on the CIFAR-like mini dataset to show
the time/accuracy/coverage trade-off of Fig. 6.

Run:  python examples/noniid_scheduling.py
"""

from repro.core import class_coverage
from repro.experiments.flruns import FLRunConfig, accuracy_of_schedule
from repro.experiments.minavg_runs import schedule_minavg
from repro.experiments.realized import realized_makespan
from repro.experiments.scenarios import scenario_classes
from repro.experiments.testbeds import testbed_names
from repro.models import CIFAR_SHAPE, lenet


def main() -> None:
    scenario = "S1"
    classes = scenario_classes(scenario)
    names = testbed_names(1)
    model = lenet(input_shape=CIFAR_SHAPE)

    print(f"Scenario {scenario} on testbed 1:")
    for name, cs in zip(names, classes):
        print(f"  {name:8s} holds classes {cs}")
    print("  -> class 7 exists ONLY on pixel2, the fastest device\n")

    fl = FLRunConfig(rounds=8)
    header = (
        f"{'alpha':>6} {'beta':>5} | "
        + " ".join(f"{n:>9}" for n in names)
        + f" | {'makespan':>9} {'coverage':>8} {'accuracy':>8}"
    )
    print(header)
    print("-" * len(header))
    for beta in (0.0, 2.0):
        for alpha in (100.0, 1000.0, 5000.0):
            counts = schedule_minavg(
                1, classes, "cifar10", "lenet",
                alpha=alpha, beta=beta, shard_size=100,
            )
            samples = counts * 100
            makespan = realized_makespan(samples, names, model)
            acc = accuracy_of_schedule("cifar10_mini", counts, classes, fl)
            alloc = " ".join(f"{s:>8.1f}K" for s in samples / 1e3)
            coverage = class_coverage(counts, classes, 10)
            print(
                f"{alpha:6.0f} {beta:5.1f} | {alloc} | "
                f"{makespan:8.1f}s {coverage:8.0%} "
                f"{acc:8.3f}"
            )
    print(
        "\nReading: larger alpha concentrates data on class-rich devices"
        "\n(losing parallelism); beta=2 buys class-7 coverage back by"
        "\nsubsidising the pixel2 outlier — the Fig. 6 trade-off."
    )


if __name__ == "__main__":
    main()
