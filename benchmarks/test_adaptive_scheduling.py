"""Closed-loop adaptive scheduling benchmark.

Extension of the paper's one-shot offline scheduling: Fed-LBAP re-run
every round over online RLS profiles updated from realized round times.
Three regimes on Testbed 2 (60K-sample LeNet rounds):

* **offline** — the paper's pipeline: one schedule from offline
  bootstrap profiles, reused forever;
* **adaptive-cold** — no offline profiling at all: uniform priors,
  learned purely from round feedback;
* **adaptive-wrong** — adversarial priors (the profile ordering is
  inverted) with probing enabled.

The adaptive loop should converge to within a few percent of the
offline schedule's makespan in a handful of rounds, from either start.
"""

import numpy as np

from _util import record, run_once
from repro.core import build_cost_matrix
from repro.experiments.realized import realized_times
from repro.experiments.runner import ExperimentResult
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.models import lenet
from repro.sched import AdaptiveScheduler, fed_lbap

NAMES = testbed_names(2)
MODEL = lenet()
SHARDS, D = 120, 500
ROUNDS = 6


def _drive(ada: AdaptiveScheduler) -> list:
    """Run the closed loop against the device simulator; return the
    realized makespan per round."""
    makespans = []
    for _ in range(ROUNDS):
        sched = ada.next_schedule()
        times = realized_times(sched * D, NAMES, MODEL)
        makespans.append(float(times[sched > 0].max()))
        ada.observe_round(sched, times)
    return makespans


def test_adaptive_scheduling_convergence(benchmark):
    def run_all():
        curves = cached_time_curves(NAMES, MODEL)
        offline_counts, _ = fed_lbap(
            build_cost_matrix(curves, SHARDS, D), SHARDS
        )
        offline = float(
            realized_times(offline_counts * D, NAMES, MODEL).max()
        )
        cold = _drive(
            AdaptiveScheduler(
                initial_curves=[
                    (lambda x: 30.0 + 0.001 * x) for _ in NAMES
                ],
                total_shards=SHARDS,
                shard_size=D,
                probe_every=2,
            )
        )
        # adversarial priors: invert the true ordering
        wrong = _drive(
            AdaptiveScheduler(
                initial_curves=[
                    (lambda x, c=c: c(6000) * 2 - 0.5 * c(x))
                    for c in reversed(curves)
                ],
                total_shards=SHARDS,
                shard_size=D,
                probe_every=2,
            )
        )
        return offline, cold, wrong

    offline, cold, wrong = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_adaptive",
        description="closed-loop Fed-LBAP vs the offline one-shot "
        "schedule (testbed 2, 60K LeNet, realized makespan)",
        columns=["round", "offline_s", "cold_start_s", "wrong_priors_s"],
    )
    for r in range(ROUNDS):
        result.add_row(
            round=r + 1,
            offline_s=offline,
            cold_start_s=cold[r],
            wrong_priors_s=wrong[r],
        )
    record(result)
    # The loop converges near the offline optimum from both starts.
    assert cold[-1] <= offline * 1.2
    assert wrong[-1] <= offline * 1.3
    # And it improves on its own first round substantially.
    assert cold[-1] < cold[0]
