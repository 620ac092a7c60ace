"""Closed-loop adaptive scheduler tests."""

import numpy as np
import pytest

from repro.core import build_cost_matrix
from repro.experiments.realized import realized_times
from repro.experiments.testbeds import testbed_names
from repro.models import lenet
from repro.sched.adaptive import AdaptiveScheduler
from repro.sched.lbap import fed_lbap


def flat_curves(n, value=10.0):
    """Uninformative priors: every user predicted identical."""
    return [lambda x, v=value: v + 0.001 * x for _ in range(n)]


class TestAdaptiveScheduler:
    def test_first_schedule_uses_priors(self):
        sched = AdaptiveScheduler(
            initial_curves=[lambda x: 0.01 * x, lambda x: 0.05 * x],
            total_shards=10,
            shard_size=100,
        ).next_schedule()
        assert sched.sum() == 10
        assert sched[0] > sched[1]

    def test_observations_correct_wrong_priors(self):
        """Priors say the users are equal; reality says user 1 is 10x
        slower. After a few rounds the allocation shifts to user 0."""
        truth = [lambda x: 0.001 * x, lambda x: 0.01 * x]
        ada = AdaptiveScheduler(
            initial_curves=flat_curves(2),
            total_shards=20,
            shard_size=100,
            probe_every=0,
        )
        first = ada.next_schedule()
        # Priors are symmetric: roughly even split.
        assert abs(first[0] - first[1]) <= 2
        for _ in range(5):
            sched = ada.next_schedule()
            samples = sched * 100
            times = [
                truth[j](float(s)) if s > 0 else 0.0
                for j, s in enumerate(samples)
            ]
            ada.observe_round(sched, times)
        final = ada.next_schedule()
        assert final[0] > 3 * final[1]

    def test_probing_revives_starved_user(self):
        """A user written off by a bad prior gets probe shards and can
        re-enter once observed fast."""
        truth = [lambda x: 0.005 * x, lambda x: 0.005 * x]
        ada = AdaptiveScheduler(
            initial_curves=[lambda x: 0.005 * x, lambda x: 1e3 + x],
            total_shards=20,
            shard_size=100,
            probe_every=1,
        )
        for _ in range(6):
            sched = ada.next_schedule()
            samples = sched * 100
            times = [
                truth[j](float(s)) if s > 0 else 0.0
                for j, s in enumerate(samples)
            ]
            ada.observe_round(sched, times)
        final = ada.next_schedule()
        assert final[1] >= 5  # rehabilitated

    def test_no_probe_starves_forever(self):
        ada = AdaptiveScheduler(
            initial_curves=[lambda x: 0.005 * x, lambda x: 1e3 + x],
            total_shards=20,
            shard_size=100,
            probe_every=0,
        )
        for _ in range(4):
            sched = ada.next_schedule()
            samples = sched * 100
            times = [
                0.005 * float(s) if s > 0 else 0.0 for s in samples
            ]
            ada.observe_round(sched, times)
            assert sched[1] <= 1

    def test_comm_costs_subtracted_from_observations(self):
        ada = AdaptiveScheduler(
            initial_curves=flat_curves(1),
            total_shards=5,
            shard_size=100,
            comm_costs=[7.0],
            probe_every=0,
        )
        sched = ada.next_schedule()
        ada.observe_round(sched, [7.0 + 2.0])  # 2 s of compute
        assert ada.profiles[0].predict(500) < 10.0

    def test_predicted_makespan(self):
        ada = AdaptiveScheduler(
            initial_curves=[lambda x: 0.01 * x, lambda x: 0.02 * x],
            total_shards=10,
            shard_size=100,
            probe_every=0,
        )
        sched = ada.next_schedule()
        pred = ada.predicted_makespan(sched)
        assert pred > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveScheduler([], 10, 100)
        with pytest.raises(ValueError):
            AdaptiveScheduler(flat_curves(2), 0, 100)
        ada = AdaptiveScheduler(flat_curves(2), 10, 100)
        sched = ada.next_schedule()
        with pytest.raises(ValueError):
            ada.observe_round(sched, [1.0])


class TestAdaptiveOnSimulator:
    def test_recovers_from_cold_uniform_priors(self):
        """Starting from identical priors on Testbed 1, three rounds of
        feedback land within 25% of the offline-profiled makespan."""
        from repro.experiments.testbeds import cached_time_curves

        names = testbed_names(1)
        model = lenet()
        shards, d = 60, 500
        ada = AdaptiveScheduler(
            initial_curves=flat_curves(len(names), 30.0),
            total_shards=shards,
            shard_size=d,
            probe_every=0,
        )
        makespans = []
        for _ in range(4):
            sched = ada.next_schedule()
            times = realized_times(sched * d, names, model)
            makespans.append(times[sched > 0].max())
            ada.observe_round(sched, times)
        # Reference: offline-profiled Fed-LBAP.
        curves = cached_time_curves(names, model)
        ref_counts, _ = fed_lbap(build_cost_matrix(curves, shards, d), shards)
        ref = realized_times(ref_counts * d, names, model).max()
        assert makespans[-1] <= ref * 1.25
        assert makespans[-1] <= makespans[0] + 1e-9
