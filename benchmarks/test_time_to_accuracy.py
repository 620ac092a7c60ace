"""Time-to-accuracy: the end-to-end payoff of data-size scheduling.

The paper reports per-round time (Figs. 5/7) and final accuracy
(Tables III/V) separately; the deployment-relevant metric combines
them — virtual wall-clock time until the global model reaches a target
accuracy. Fed-LBAP's shorter rounds translate directly into earlier
convergence because (Table III) its unbalanced partitions learn just as
well per round.

Also covers two smaller end-to-end extensions:
* per-user link heterogeneity entering the LBAP cost matrix (Eq. 2's
  per-user T_u + T_d): an LTE-attached device gets less VGG6 data;
* governor sensitivity: the Fed-LBAP advantage persists under the
  modern schedutil governor, supporting the paper's claim that the
  approach works "while still using the default governor" whichever
  that is.
"""

import numpy as np

from _util import record, run_once
from repro.core import build_cost_matrix, comm_costs_for
from repro.data import load_preset, partition_from_sizes
from repro.device import make_device
from repro.experiments.flruns import scale_counts
from repro.experiments.realized import realized_makespan
from repro.experiments.runner import ExperimentResult
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.federated import FederatedSimulation, SimulationConfig
from repro.models import MNIST_SHAPE, build_model, lenet, vgg6
from repro.network import make_link
from repro.sched import fed_lbap


def _time_to_accuracy(schedule_sizes, names, dataset, target, seed=0):
    """Virtual seconds of synchronous FedAvg until test accuracy passes
    ``target`` (devices keep their thermal state across rounds)."""
    sizes = np.asarray(schedule_sizes)
    active = sizes > 0
    rng = np.random.default_rng(seed)
    users = partition_from_sizes(dataset, sizes[active], rng)
    devices = [
        make_device(n, jitter=0.0)
        for n, a in zip(names, active)
        if a
    ]
    model = build_model("logistic", dataset.input_shape, seed=1)
    sim = FederatedSimulation(
        dataset,
        model,
        users,
        devices=devices,
        config=SimulationConfig(lr=0.02, eval_every=1, seed=seed),
    )
    for _ in range(30):
        rec = sim.run_round()
        if rec.accuracy is not None and rec.accuracy >= target:
            return sim.history.total_time_s, rec.round_idx
    return sim.history.total_time_s, -1  # never reached


def test_time_to_accuracy(benchmark):
    """Fed-LBAP reaches the accuracy target in less virtual time than
    Equal, with the same number of rounds or fewer."""
    dataset = load_preset("mnist_mini")
    names = testbed_names(2)
    model = lenet()
    shards, d = 120, 500
    target = 0.94

    def run_all():
        curves = cached_time_curves(names, model)
        cost = build_cost_matrix(curves, shards, d)
        counts, _ = fed_lbap(cost, shards)
        # Replay allocation shapes on the mini dataset.
        mini = scale_counts(counts, 40) * 50
        equal = np.full(len(names), 40 // len(names) + 1)[: len(names)]
        equal = scale_counts(equal, 40) * 50
        # Virtual time per round is driven by the full-scale allocation;
        # scale round times by the realized makespans of each policy.
        t_lbap = realized_makespan(counts * d, names, model)
        t_equal = realized_makespan(
            np.full(len(names), shards // len(names)) * d, names, model
        )
        lbap_time, lbap_rounds = _time_to_accuracy(
            mini, names, dataset, target
        )
        eq_time, eq_rounds = _time_to_accuracy(
            equal, names, dataset, target
        )
        # Convert mini round counts into full-scale wall time.
        return {
            "fed-lbap": (lbap_rounds, lbap_rounds * t_lbap),
            "equal": (eq_rounds, eq_rounds * t_equal),
        }

    out = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_time_to_accuracy",
        description=f"virtual time to reach {0.94:.0%} accuracy "
        "(mnist, testbed 2, LeNet rounds)",
        columns=["policy", "rounds", "wall_time_s"],
    )
    for k, (r, t) in out.items():
        result.add_row(policy=k, rounds=r, wall_time_s=t)
    record(result)
    assert out["fed-lbap"][0] > 0 and out["equal"][0] > 0
    # Similar round counts (Table III) but far less wall time (Fig. 5).
    assert out["fed-lbap"][1] < 0.6 * out["equal"][1]


def test_link_heterogeneity_shifts_allocation(benchmark):
    """A device stuck on LTE pays ~50 s per VGG6 round in transfer
    alone; Eq. 2's per-user comm terms make Fed-LBAP shift its data to
    WiFi-attached peers."""
    names = testbed_names(1)
    model = vgg6(input_shape=MNIST_SHAPE)
    # Partial-participation rounds: 6K samples in 100-sample shards, the
    # regime where a 56-s LTE transfer is worth ~5 shards of compute.
    shards, d = 60, 100

    def run_all():
        curves = cached_time_curves(names, model)
        uniform = fed_lbap(build_cost_matrix(curves, shards, d), shards)[0]
        # pixel2 (index 2) drops to LTE; others stay on WiFi
        links = [make_link("wifi"), make_link("wifi"), make_link("lte")]
        comm = comm_costs_for(model, links)
        het = fed_lbap(
            build_cost_matrix(curves, shards, d, comm_costs=comm), shards
        )[0]
        return (
            uniform.tolist(),
            het.tolist(),
            comm.tolist(),
        )

    uniform, het, comm = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_link_heterogeneity",
        description="Fed-LBAP allocation with per-user comm costs "
        "(VGG6; pixel2 on LTE)",
        columns=["device", "comm_s", "uniform_shards", "lte_shards"],
    )
    for n, c, u, h in zip(names, comm, uniform, het):
        result.add_row(device=n, comm_s=c, uniform_shards=u, lte_shards=h)
    record(result)
    # The LTE device keeps a smaller or equal share; someone else gains.
    assert het[2] <= uniform[2]
    assert sum(het) == sum(uniform) == shards


def test_governor_robustness(benchmark):
    """The Fed-LBAP speedup survives a governor change when the profile
    is built under the governor actually deployed — the framework is
    governor-agnostic, but profiles are governor-specific (a schedule
    built from interactive-governor profiles misfires on powersave,
    where nothing ever throttles)."""
    from repro.device.workload import TrainingWorkload
    from repro.models.flops import model_training_flops
    from repro.profiling import bootstrap_curve

    names = testbed_names(2)
    model = lenet()
    shards, d = 120, 500
    flops = model_training_flops(model)

    def makespan(sizes, governor):
        worst = 0.0
        for n, s in zip(names, sizes):
            if s <= 0:
                continue
            dev = make_device(n, governor=governor, jitter=0.0)
            t = dev.run_workload(
                TrainingWorkload(flops, int(s), 20), record=False
            ).total_time_s
            worst = max(worst, t)
        return worst

    def run_all():
        equal_sizes = np.full(len(names), shards // len(names)) * d
        out = {}
        for gov in ("interactive", "schedutil", "powersave"):
            # Profile under the governor that will actually run.
            curves = [
                bootstrap_curve(
                    make_device(n, governor=gov, jitter=0.0),
                    model,
                    (500, 1500, 3000, 6000, 12000),
                )
                for n in names
            ]
            counts = fed_lbap(build_cost_matrix(curves, shards, d), shards)[0]
            out[gov] = (
                makespan(equal_sizes, gov),
                makespan(counts * d, gov),
            )
        return out

    out = run_once(benchmark, run_all)
    result = ExperimentResult(
        name="ext_governor",
        description="Equal vs Fed-LBAP makespan under different "
        "governors (testbed 2, 60K LeNet)",
        columns=["governor", "equal_s", "fed_lbap_s", "speedup"],
    )
    for gov, (te, tl) in out.items():
        result.add_row(
            governor=gov, equal_s=te, fed_lbap_s=tl, speedup=te / tl
        )
    record(result)
    for gov, (te, tl) in out.items():
        assert tl < te, gov  # the advantage persists under every policy
