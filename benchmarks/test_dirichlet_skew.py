"""Dirichlet label skew: the FL-literature-standard non-IID model,
applied to the paper's scheduling question.

The paper generates non-IIDness by class subsets (n-class); the wider
FL literature uses Dirichlet(conc) label skew. This benchmark bridges
the two: accuracy degrades as concentration falls (matching Fig. 3a's
severity axis), and Fed-MinAvg retains its makespan advantage when the
user class sets come from Dirichlet draws instead of n-class draws.
"""

import numpy as np

from _util import record, run_once
from repro.data import dirichlet_noniid_partition, load_preset
from repro.experiments.flruns import FLRunConfig, train_partition
from repro.experiments.minavg_runs import best_alpha_schedule
from repro.experiments.realized import realized_makespan
from repro.experiments.runner import ExperimentResult
from repro.experiments.testbeds import testbed_names
from repro.models import lenet
from repro.sched.baselines import equal_schedule


def test_dirichlet_severity_curve(benchmark):
    """Accuracy vs concentration: the Dirichlet analogue of Fig. 3(a)."""
    fl = FLRunConfig(rounds=10)

    def run_all():
        out = []
        for conc in (0.05, 0.2, 1.0, 10.0):
            accs = []
            for rep in range(2):
                dataset = load_preset("cifar10_mini")
                rng = np.random.default_rng(17 + 31 * rep)
                users = dirichlet_noniid_partition(
                    dataset, 8, conc, rng, min_size=10
                )
                accs.append(train_partition(dataset, users, fl))
            mean_classes = float(
                np.mean([u.num_classes() for u in users])
            )
            out.append((conc, mean_classes, float(np.mean(accs))))
        return out

    rows = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_dirichlet",
        description="accuracy vs Dirichlet concentration "
        "(cifar10_mini, 8 users)",
        columns=["concentration", "mean_classes_per_user", "accuracy"],
    )
    for conc, k, acc in rows:
        result.add_row(
            concentration=conc, mean_classes_per_user=k, accuracy=acc
        )
    record(result)
    accs = [r[2] for r in rows]
    # severity axis: more concentration -> more classes -> more accuracy
    assert accs[-1] > accs[0] + 0.03
    ks = [r[1] for r in rows]
    assert ks[-1] > ks[0]


def test_minavg_under_dirichlet_classes(benchmark):
    """Fed-MinAvg keeps its makespan win when user class sets come from
    Dirichlet draws rather than the paper's n-class construction."""
    names = testbed_names(2)
    model = lenet()
    shards, d = 120, 500

    def run_all():
        dataset = load_preset("mnist_mini")
        rng = np.random.default_rng(5)
        users = dirichlet_noniid_partition(
            dataset, len(names), 0.3, rng, min_size=10
        )
        classes = [u.classes for u in users]
        sched, _ = best_alpha_schedule(
            2, classes, "mnist", "lenet",
            alphas=(100.0, 1000.0), beta=0.0, shard_size=d,
        )
        t_minavg = realized_makespan(sched * d, names, model)
        equal = equal_schedule(len(names), shards)
        t_equal = realized_makespan(equal * d, names, model)
        return t_minavg, t_equal, [len(c) for c in classes]

    t_minavg, t_equal, class_counts = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_dirichlet_sched",
        description="Fed-MinAvg vs Equal under Dirichlet(0.3) class "
        "sets (testbed 2, 60K LeNet)",
        columns=["scheduler", "makespan_s"],
    )
    result.add_row(scheduler="equal", makespan_s=t_equal)
    result.add_row(scheduler="fed-minavg", makespan_s=t_minavg)
    result.add_note(f"classes per user: {class_counts}")
    record(result)
    assert t_minavg < t_equal
