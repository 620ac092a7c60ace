"""End-to-end integration tests: the full pipeline of the paper.

profile -> cost matrix -> schedule -> materialize -> federated train ->
evaluate, for both the IID (Fed-LBAP) and non-IID (Fed-MinAvg) paths,
all on the simulated substrate.
"""

import numpy as np
import pytest

from repro.core import build_cost_matrix, class_coverage
from repro.data import load_preset, materialize_schedule, partition_from_sizes
from repro.device import make_device
from repro.experiments.flruns import scale_counts
from repro.experiments.realized import realized_times
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.federated import FederatedSimulation, SimulationConfig
from repro.models import build_model, lenet
from repro.network import make_link
from repro.sched import equal_schedule, evaluate_makespan, fed_lbap, fed_minavg


class TestIidPipeline:
    def test_profile_schedule_train_evaluate(self):
        """The quickstart path, asserted end to end."""
        names = testbed_names(1)
        model = lenet()
        shards, d = 60, 500

        # 1. profile + schedule
        curves = cached_time_curves(names, model)
        cost = build_cost_matrix(curves, shards, d)
        sched, bottleneck = fed_lbap(cost, shards)
        assert sched.sum() == shards

        # 2. predicted vs realized makespan agree within profile error
        realized = realized_times(sched * d, names, model)
        active = sched > 0
        assert realized[active].max() == pytest.approx(
            bottleneck, rel=0.25
        )

        # 3. beats Equal on realized makespan
        eq = equal_schedule(len(names), shards)
        eq_real = realized_times(eq * d, names, model)
        assert realized[active].max() < eq_real.max()

        # 4. replay the allocation on the mini dataset and train
        dataset = load_preset("mnist_mini")
        sizes = scale_counts(sched, 40) * 50
        rng = np.random.default_rng(0)
        users = partition_from_sizes(dataset, sizes[sizes > 0], rng)
        devices = [
            make_device(n, jitter=0.0)
            for n, s in zip(names, sizes)
            if s > 0
        ]
        links = [make_link("wifi") for _ in devices]
        fl_model = build_model("logistic", dataset.input_shape, seed=1)
        sim = FederatedSimulation(
            dataset,
            fl_model,
            users,
            devices=devices,
            links=links,
            config=SimulationConfig(lr=0.05, eval_every=6),
        )
        history = sim.run(6)
        assert history.final_accuracy > 0.85
        assert history.total_time_s > 0


class TestNonIidPipeline:
    def test_minavg_schedule_respects_classes_end_to_end(self):
        names = testbed_names(1)
        model = lenet()
        # class-disjoint users: the beta discount can subsidise each of
        # them, so full coverage is achievable (partially-overlapping
        # users are outside the "disjoint" discount's reach — see the
        # semantics ablation)
        classes = [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9)]
        curves = cached_time_curves(names, model)

        sched = fed_minavg(
            curves,
            classes,
            total_shards=40,
            shard_size=50,
            num_classes=10,
            alpha=50.0,
            beta=2.0,
        )
        assert class_coverage(sched, classes, 10) == 1.0

        dataset = load_preset("mnist_mini")
        users = materialize_schedule(
            dataset, sched, classes, shard_size=50
        )
        # every user's data stays inside its class set
        for u, cs in zip(users, classes):
            if u.size:
                labels = set(dataset.y_train[u.indices].tolist())
                assert labels <= set(cs)

        fl_model = build_model("logistic", dataset.input_shape, seed=1)
        sim = FederatedSimulation(
            dataset,
            fl_model,
            users,
            config=SimulationConfig(lr=0.05, eval_every=6),
        )
        sim.run(6)
        # full coverage -> all 10 classes learnable
        assert sim.final_accuracy() > 0.8

    def test_makespan_evaluation_matches_curve_math(self):
        names = testbed_names(1)
        model = lenet()
        curves = cached_time_curves(names, model)
        sched = fed_minavg(
            curves,
            [(0,), (1,), (2,)],
            total_shards=30,
            shard_size=500,
            num_classes=10,
            alpha=0.0,
        )
        samples = sched * 500
        cost = evaluate_makespan(samples, curves)
        expected = max(
            curves[j](float(s)) for j, s in enumerate(samples) if s > 0
        )
        assert cost.makespan_s == pytest.approx(expected)


class TestAtScale:
    def test_twenty_user_federation(self):
        """Scalability smoke: a 20-device fleet, 600-shard Fed-LBAP
        schedule, realized evaluation — the paper's target deployment
        scale, in seconds of wall time."""
        names = tuple(
            ["nexus6"] * 6
            + ["nexus6p"] * 4
            + ["mate10"] * 5
            + ["pixel2"] * 5
        )
        model = lenet()
        curves = cached_time_curves(names, model)
        cost = build_cost_matrix(curves, 600, 100)
        sched, bottleneck = fed_lbap(cost, 600)
        assert sched.sum() == 600
        times = realized_times(sched * 100, names, model)
        active = sched > 0
        realized = times[active].max()
        # realized within profile error of the predicted bottleneck
        assert realized == pytest.approx(bottleneck, rel=0.3)
        # and comfortably below what Equal would realize
        eq = equal_schedule(len(names), 600)
        eq_real = realized_times(eq * 100, names, model)
        assert realized < eq_real.max()
