"""Two system-level ablations the paper's design implies but does not
report.

1. **Shard granularity** (Sec. IV-A fixes "e.g. 100 samples/shard"):
   finer shards give Fed-LBAP a finer partition lattice and hence a
   (weakly) better bottleneck, at a scheduling cost that grows as
   O(ns log ns). The sweep quantifies the trade.

2. **Multi-round sustained heat**: the paper's FL runs 20-50 global
   epochs back to back. Devices do not cool between rounds, so an
   equal-share schedule drives the Nexus 6P into its sustained-load
   emergency stage *cumulatively* — per-round times degrade across
   rounds — while Fed-LBAP's small 6P allocations leave thermal
   headroom. Single-round (cold) comparisons understate Fed-LBAP's
   advantage.
"""

import time

import numpy as np

from _util import record, run_once
from repro.core import build_cost_matrix
from repro.device import TrainingWorkload, make_device
from repro.experiments.runner import ExperimentResult
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.models import lenet, model_training_flops
from repro.sched import AdaptiveScheduler, equal_schedule, fed_lbap


def test_shard_granularity_tradeoff(benchmark):
    names = testbed_names(2)
    model = lenet()
    total_samples = 60_000

    def run_all():
        out = []
        curves = cached_time_curves(names, model)
        for d in (2000, 1000, 500, 250, 100):
            shards = total_samples // d
            t0 = time.perf_counter()
            cost = build_cost_matrix(curves, shards, d)
            _, bottleneck = fed_lbap(cost, shards)
            elapsed_ms = (time.perf_counter() - t0) * 1000
            out.append((d, shards, bottleneck, elapsed_ms))
        return out

    rows = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_granularity",
        description="Fed-LBAP bottleneck and scheduling cost vs shard "
        "size (testbed 2, 60K LeNet)",
        columns=["shard_size", "n_shards", "bottleneck_s", "schedule_ms"],
    )
    for d, shards, bottleneck, ms in rows:
        result.add_row(
            shard_size=d,
            n_shards=shards,
            bottleneck_s=bottleneck,
            schedule_ms=ms,
        )
    record(result)
    bottlenecks = [r[2] for r in rows]
    # finer granularity never hurts the bottleneck...
    assert all(
        b <= a + 1e-9 for a, b in zip(bottlenecks, bottlenecks[1:])
    )
    # ...and even the finest sweep schedules in well under a second
    assert max(r[3] for r in rows) < 1000.0


def test_multiround_sustained_heat(benchmark):
    """Per-round makespans over consecutive rounds without cooling:
    Equal on VGG6 drives the Nexus 6Ps into the sustained-load
    emergency stage cumulatively — later rounds are catastrophically
    slower — while Fed-LBAP's small 6P allocations stay clear of it.
    (LeNet's power draw keeps the hot-state die below the emergency
    trip, so this effect is VGG-specific, matching the paper's
    "2 orders of magnitude" claim appearing in Fig. 5(b) only.)"""
    from repro.models import MNIST_SHAPE, vgg6

    names = testbed_names(2)
    model = vgg6(input_shape=MNIST_SHAPE)
    shards, d = 60, 500  # 30K samples per round
    flops = model_training_flops(model)
    n_rounds = 6

    def run_one_round(devices, sizes):
        times = []
        for dev, s in zip(devices, sizes):
            if s <= 0:
                times.append(0.0)
                continue
            w = TrainingWorkload(flops, int(s), 20)
            times.append(dev.run_workload(w, record=False).total_time_s)
        makespan = max(times)
        # synchronous barrier: fast devices idle (and cool) while
        # waiting; a short aggregation gap follows
        for dev, t in zip(devices, times):
            dev.idle(makespan - t + 1.0)
        return times, makespan

    def run_rounds(sizes):
        devices = [make_device(n, jitter=0.0) for n in names]
        return [
            run_one_round(devices, sizes)[1] for _ in range(n_rounds)
        ]

    def run_adaptive(curves):
        devices = [make_device(n, jitter=0.0) for n in names]
        ada = AdaptiveScheduler(
            initial_curves=curves,
            total_shards=shards,
            shard_size=d,
            forgetting=0.6,
            probe_every=0,
        )
        makespans = []
        for _ in range(n_rounds):
            sched = ada.next_schedule()
            times, makespan = run_one_round(devices, sched * d)
            makespans.append(makespan)
            ada.observe_round(sched, times)
        return makespans

    def run_all():
        curves = cached_time_curves(names, model)
        counts, _ = fed_lbap(build_cost_matrix(curves, shards, d), shards)
        equal = equal_schedule(len(names), shards)
        return {
            "equal": run_rounds(equal * d),
            "fed-lbap": run_rounds(counts * d),
            "adaptive": run_adaptive(curves),
        }

    out = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_multiround_heat",
        description="per-round makespan across back-to-back rounds "
        "(testbed 2, 30K VGG6; no cooling between rounds)",
        columns=["round", "equal_s", "fed_lbap_s", "adaptive_s"],
    )
    for r in range(n_rounds):
        result.add_row(
            round=r + 1,
            equal_s=out["equal"][r],
            fed_lbap_s=out["fed-lbap"][r],
            adaptive_s=out["adaptive"][r],
        )
    record(result)
    eq = out["equal"]
    lbap = out["fed-lbap"]
    ada = out["adaptive"]
    # Equal's later rounds are far worse than its first (the emergency
    # stage engages on the 6Ps).
    assert max(eq[1:]) > 3.0 * eq[0]
    # The *static* Fed-LBAP schedule eventually hits the cliff too —
    # its cold-profile 6P allocation accumulates sustained load.
    assert max(lbap) > 2.0 * lbap[0]
    # Closed-loop rescheduling is the fix: observing the blow-up, it
    # moves work off the degraded device and ends far below both.
    assert ada[-1] < 0.5 * lbap[-1]
    assert sum(ada) < sum(lbap) < sum(eq)
