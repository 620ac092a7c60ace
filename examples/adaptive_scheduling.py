"""Closed-loop adaptive scheduling: no offline profiling needed.

The paper profiles devices offline before scheduling. This extension
shows the loop can bootstrap itself: start with *no knowledge* (uniform
priors), schedule with Fed-LBAP, observe each round's realized times,
fold them into per-device online RLS profiles, and re-schedule. Within
two or three rounds the makespan matches the offline-profiled schedule.

Run:  python examples/adaptive_scheduling.py
"""

import numpy as np

from repro.core import build_cost_matrix
from repro.experiments.realized import realized_times
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.models import lenet
from repro.sched import AdaptiveScheduler, fed_lbap


def main() -> None:
    names = testbed_names(2)
    model = lenet()
    shards, d = 120, 500

    # Reference: the paper's pipeline (offline profiles -> one schedule).
    curves = cached_time_curves(names, model)
    offline, _ = fed_lbap(build_cost_matrix(curves, shards, d), shards)
    t_offline = realized_times(offline * d, names, model).max()
    print(
        f"offline-profiled Fed-LBAP makespan (testbed 2, 60K LeNet): "
        f"{t_offline:.1f} s\n"
    )

    # Adaptive: uniform priors, learn from round feedback.
    ada = AdaptiveScheduler(
        initial_curves=[(lambda x: 30.0 + 0.001 * x) for _ in names],
        total_shards=shards,
        shard_size=d,
        probe_every=2,
    )
    print("round  makespan  allocation (samples x1000)")
    for r in range(6):
        sched = ada.next_schedule()
        samples = sched * d
        times = realized_times(samples, names, model)
        makespan = times[samples > 0].max()
        alloc = " ".join(f"{s / 1000:5.1f}" for s in samples)
        print(f"{r + 1:5d}  {makespan:7.1f}s  [{alloc}]")
        ada.observe_round(sched, times)
    print(
        f"\nconverged to within "
        f"{100 * (makespan / t_offline - 1):+.1f}% of the offline "
        "schedule — without any offline profiling pass."
    )


if __name__ == "__main__":
    main()
