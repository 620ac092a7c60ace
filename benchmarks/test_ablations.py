"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. Fed-LBAP's threshold search vs the classic exact LBAP solver and the
   brute-force oracle (same optimum, different asymptotics).
2. Linear vs quadratic step-2 profiling on a thermally-throttled device.
3. Thermal throttling on/off: where Fed-LBAP's advantage comes from.
4. Eq.-(6) discount semantics (disjoint / strict / coverage / unique).
5. Greedy Fed-MinAvg vs random placement under the same P2 objective.
"""

import dataclasses

import numpy as np
import pytest

from _util import record, run_once
from repro.core.accuracy_cost import AccuracyCostTracker, class_coverage
from repro.device.device import MobileDevice
from repro.device.registry import build_spec
from repro.device.workload import TrainingWorkload
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import scenario_classes
from repro.experiments.testbeds import cached_time_curves, testbed_names
from repro.models import MNIST_SHAPE, lenet, model_training_flops
from repro.profiling import bootstrap_curve
from repro.sched.baselines import equal_schedule, random_schedule
from repro.sched.lbap import fed_lbap, solve_lbap_threshold_exact
from repro.sched.minavg import fed_minavg, fed_minavg_affine
from tests.oracles import brute_force_makespan
from repro.device.registry import make_device


def monotone_cost(rng, n, s):
    return np.cumsum(rng.uniform(0.1, 1.0, size=(n, s)), axis=1)


class TestLbapSolverAblation:
    def test_fed_lbap_matches_oracles(self, benchmark):
        """Same optimum as brute force on partition instances and as the
        Hopcroft-Karp LBAP on square assignment instances."""
        rng = np.random.default_rng(0)
        cost = monotone_cost(rng, 3, 6)

        def run_all():
            _, c_fed = fed_lbap(cost, 8)
            _, c_brute = brute_force_makespan(cost, 8)
            return c_fed, c_brute

        c_fed, c_brute = run_once(benchmark, run_all)
        assert c_fed == pytest.approx(c_brute)

    def test_square_instance_vs_exact_lbap(self, benchmark):
        """On the classic square LBAP (each user exactly one task of one
        shard) Fed-LBAP's relaxation can only do better or equal: it may
        assign several cheap tasks to one user."""
        rng = np.random.default_rng(1)
        cost = np.sort(rng.uniform(0, 10, size=(5, 5)), axis=1)

        def run_all():
            _, bottleneck_exact = solve_lbap_threshold_exact(cost)
            _, c_fed = fed_lbap(cost, 5)
            return bottleneck_exact, c_fed

        exact, fed = run_once(benchmark, run_all)
        assert fed <= exact + 1e-9

    def test_scaling_microbenchmark(self, benchmark):
        """Fed-LBAP at production scale (n=50 users, s=600 shards) runs
        in milliseconds — the O(ns log ns) claim in practice."""
        rng = np.random.default_rng(2)
        cost = monotone_cost(rng, 50, 600)
        counts, _ = benchmark(fed_lbap, cost, 600)
        assert counts.sum() == 600


class TestProfilerAblation:
    def test_quadratic_step2_on_throttled_device(self, benchmark):
        """A quadratic time-vs-data fit halves the prediction error on
        the Nexus 6P, whose true curve is convex (cold -> hot)."""
        model = lenet()
        flops = model_training_flops(model)
        sizes = (500, 1500, 3000, 6000, 9000)

        def run_all():
            device = make_device("nexus6p", jitter=0.0)
            lin = bootstrap_curve(device, model, sizes)
            quad = bootstrap_curve(device, model, sizes, quadratic=True)
            errors = {"linear": [], "quadratic": []}
            for n in (1000, 4500, 7500):
                device.reset()
                truth = device.run_workload(
                    TrainingWorkload(flops, n, 20), record=False
                ).total_time_s
                errors["linear"].append(abs(lin(n) - truth) / truth)
                errors["quadratic"].append(abs(quad(n) - truth) / truth)
            return {k: float(np.mean(v)) for k, v in errors.items()}

        errors = run_once(benchmark, run_all)
        result = ExperimentResult(
            name="ablation_profiler",
            description="linear vs quadratic step-2 fit on nexus6p",
            columns=["fit", "mean_rel_error"],
        )
        for k, v in errors.items():
            result.add_row(fit=k, mean_rel_error=v)
        record(result)
        assert errors["quadratic"] < errors["linear"]


class TestThermalAblation:
    def test_throttling_drives_the_straggler_gap(self, benchmark):
        """With trip points removed, the Nexus 6P epoch time collapses
        back to near-linear, erasing most of Equal's makespan penalty —
        thermal behaviour, not raw clocks, creates the stragglers."""
        model = lenet()
        flops = model_training_flops(model)

        def epoch(spec, n):
            dev = MobileDevice(spec, jitter=0.0)
            return dev.run_workload(
                TrainingWorkload(flops, n, 20), record=False
            ).total_time_s

        def run_all():
            spec = build_spec("nexus6p")
            no_thermal = dataclasses.replace(
                spec,
                thermal=dataclasses.replace(spec.thermal, trip_points=()),
            )
            return {
                "throttled_10k": epoch(spec, 10_000),
                "unthrottled_10k": epoch(no_thermal, 10_000),
            }

        times = run_once(benchmark, run_all)
        result = ExperimentResult(
            name="ablation_thermal",
            description="nexus6p 10K-sample LeNet epoch with and "
            "without thermal trips",
            columns=["variant", "time_s"],
        )
        for k, v in times.items():
            result.add_row(variant=k, time_s=v)
        record(result)
        assert times["throttled_10k"] > 2.0 * times["unthrottled_10k"]


class TestSemanticsAblation:
    def test_eq6_semantics_change_outlier_inclusion(self, benchmark):
        """On S(I) only the 'disjoint' reading recovers the unique-class
        outlier at beta=2; the printed 'strict' condition cannot (the
        outlier shares class 8 with Mate10)."""
        classes = scenario_classes("S1")
        names = testbed_names(1)
        curves = cached_time_curves(names, lenet())

        def run_all():
            out = {}
            for sem in ("disjoint", "strict", "coverage", "unique"):
                counts = fed_minavg(
                    curves,
                    classes,
                    total_shards=500,
                    shard_size=100,
                    num_classes=10,
                    alpha=100.0,
                    beta=2.0,
                    semantics=sem,
                )
                out[sem] = (
                    int(counts[2]),
                    class_coverage(counts, classes, 10),
                )
            return out

        out = run_once(benchmark, run_all)
        result = ExperimentResult(
            name="ablation_semantics",
            description="Eq.(6) discount semantics on S(I), "
            "alpha=100 beta=2",
            columns=["semantics", "outlier_shards", "coverage"],
        )
        for k, (shards, cov) in out.items():
            result.add_row(semantics=k, outlier_shards=shards, coverage=cov)
        record(result)
        assert out["disjoint"][1] == 1.0  # full class coverage
        assert out["strict"][0] <= out["disjoint"][0]


class TestGreedyAblation:
    def test_minavg_beats_random_on_p2_objective(self, benchmark):
        """Under the same cost model, the greedy allocation's P2
        objective (sum of times + accuracy costs of selected users) is
        lower than random/equal placements."""
        classes = scenario_classes("S2")
        names = testbed_names(2)
        curves = cached_time_curves(names, lenet())
        alpha, total, d = 500.0, 200, 250

        def objective(counts):
            tracker = AccuracyCostTracker(classes, 10, alpha, 0.0)
            val = 0.0
            for j, k in enumerate(counts):
                if k > 0:
                    val += curves[j](float(k * d))
                    val += tracker.scaled_cost(j)
                    tracker.record_assignment(j, int(k))
            return val

        def run_all():
            greedy = fed_minavg(
                curves, classes, total, d, 10, alpha=alpha
            )
            rng = np.random.default_rng(0)
            rand_vals = [
                objective(random_schedule(len(names), total, rng))
                for _ in range(10)
            ]
            return {
                "greedy": objective(greedy),
                "random_mean": float(np.mean(rand_vals)),
                "equal": objective(equal_schedule(len(names), total)),
            }

        vals = run_once(benchmark, run_all)
        result = ExperimentResult(
            name="ablation_greedy",
            description="P2 objective: Fed-MinAvg vs random/equal "
            "placement (S2, alpha=500)",
            columns=["scheduler", "objective"],
        )
        for k, v in vals.items():
            result.add_row(scheduler=k, objective=v)
        record(result)
        assert vals["greedy"] < vals["random_mean"]
        assert vals["greedy"] < vals["equal"]


class TestMinavgScaling:
    def test_minavg_microbenchmark(self, benchmark):
        """Fed-MinAvg at 600 shards x 10 users (full-MNIST scale)."""
        rng = np.random.default_rng(3)
        curves = [
            lambda x, s=s: s * x for s in rng.uniform(0.005, 0.05, 10)
        ]
        classes = [
            tuple(int(c) for c in rng.choice(10, size=4, replace=False))
            for _ in range(10)
        ]
        counts = benchmark(
            fed_minavg, curves, classes, 600, 100, 10, 200.0, 2.0
        )
        assert counts.sum() == 600

    def test_minavg_affine_fast_path(self, benchmark):
        """The vectorised fast path on the same instance — compare the
        two benchmark rows for the speedup (typically 20-50x)."""
        rng = np.random.default_rng(3)
        slopes = rng.uniform(0.005, 0.05, 10)
        classes = [
            tuple(int(c) for c in rng.choice(10, size=4, replace=False))
            for _ in range(10)
        ]
        counts = benchmark(
            fed_minavg_affine,
            np.zeros(10),
            slopes,
            classes,
            600,
            100,
            10,
            200.0,
            2.0,
        )
        assert counts.sum() == 600
        # identical output to the reference on this instance
        curves = [lambda x, s=s: s * x for s in slopes]
        ref = fed_minavg(curves, classes, 600, 100, 10, 200.0, 2.0)
        np.testing.assert_array_equal(counts, ref)
