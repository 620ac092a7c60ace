"""Fed-MinAvg tests: allocation invariants, alpha/beta dynamics,
capacities, and the paper's qualitative Table IV behaviours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import class_coverage
from repro.sched import SchedulingProblem, get_scheduler
from repro.sched.minavg import fed_minavg


def linear_curves(slopes):
    return [lambda x, s=s: s * x for s in slopes]


class TestInvariants:
    def test_total_allocated(self):
        sched = fed_minavg(
            linear_curves([0.01, 0.02]),
            [(0, 1), (2, 3)],
            total_shards=10,
            shard_size=100,
            num_classes=10,
            alpha=10.0,
        )
        assert sched.sum() == 10

    def test_capacities_respected(self):
        sched = fed_minavg(
            linear_curves([0.01, 1.0]),
            [(0,), (1,)],
            total_shards=10,
            shard_size=100,
            num_classes=10,
            alpha=1.0,
            capacities=[4, 10],
        )
        assert sched[0] <= 4
        assert sched.sum() == 10

    def test_infeasible_capacity_raises(self):
        with pytest.raises(ValueError):
            fed_minavg(
                linear_curves([0.01, 0.02]),
                [(0,), (1,)],
                total_shards=10,
                shard_size=100,
                num_classes=10,
                alpha=1.0,
                capacities=[2, 2],
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            fed_minavg([], [], 10, 100, 10, 1.0)
        with pytest.raises(ValueError):
            fed_minavg(
                linear_curves([0.01]), [(0,), (1,)], 10, 100, 10, 1.0
            )
        with pytest.raises(ValueError):
            fed_minavg(linear_curves([0.01]), [(0,)], 0, 100, 10, 1.0)

    def test_meta_records_parameters(self):
        p = SchedulingProblem(
            time_cost=np.arange(1.0, 6.0)[None, :],
            total_shards=5,
            shard_size=100,
            user_classes=[tuple(range(10))],
            alpha=7.0,
            beta=1.0,
        )
        a = get_scheduler("fed_minavg").schedule(p)
        assert a.meta == {"alpha": 7.0, "beta": 1.0, "semantics": "disjoint"}
        assert class_coverage(a.shard_counts, p.user_classes, 10) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        alpha=st.floats(0.0, 100.0),
        beta=st.floats(0.0, 5.0),
    )
    def test_property_full_allocation(self, seed, alpha, beta):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 6))
        slopes = r.uniform(0.005, 0.05, n)
        classes = [
            tuple(
                int(c)
                for c in r.choice(10, size=int(r.integers(1, 5)), replace=False)
            )
            for _ in range(n)
        ]
        total = int(r.integers(5, 40))
        sched = fed_minavg(
            linear_curves(slopes),
            classes,
            total,
            100,
            10,
            alpha=alpha,
            beta=beta,
        )
        assert sched.sum() == total
        assert (sched >= 0).all()


class TestAlphaBetaDynamics:
    def setup_scenario(self):
        """S(I)-like: fast 2-class outlier with a unique class, slow
        many-class users."""
        curves = linear_curves([0.013, 0.016, 0.009])  # pixel2 fastest
        classes = [
            (0, 1, 2, 3, 4, 5, 6, 9),
            (2, 3, 4, 5, 6, 8),
            (7, 8),  # class 7 unique to this user
        ]
        return curves, classes

    def test_alpha_zero_is_time_only(self):
        curves, classes = self.setup_scenario()
        sched = fed_minavg(curves, classes, 100, 100, 10, alpha=0.0)
        # fastest user dominates when accuracy cost is off
        assert sched[2] == sched.max()

    def test_large_alpha_starves_few_class_users(self):
        curves, classes = self.setup_scenario()
        sched = fed_minavg(curves, classes, 100, 100, 10, alpha=5000.0)
        assert sched[2] == 0

    def test_beta_recovers_unique_class_outlier(self):
        curves, classes = self.setup_scenario()
        without = fed_minavg(
            curves, classes, 200, 100, 10, alpha=100.0, beta=0.0
        )
        with_beta = fed_minavg(
            curves, classes, 200, 100, 10, alpha=100.0, beta=2.0
        )
        assert with_beta[2] > without[2]
        assert class_coverage(with_beta, classes, 10) == 1.0

    def test_beta_coverage_dominates_at_moderate_alpha(self):
        curves, classes = self.setup_scenario()
        sched = fed_minavg(
            curves, classes, 200, 100, 10, alpha=100.0, beta=2.0
        )
        assert class_coverage(sched, classes, 10) == 1.0

    def test_semantics_strict_excludes_shared_class_outlier(self):
        """Under the printed Eq. (6), the outlier sharing class 8 with a
        scheduled user never earns the discount."""
        curves, classes = self.setup_scenario()
        strict = fed_minavg(
            curves,
            classes,
            200,
            100,
            10,
            alpha=100.0,
            beta=2.0,
            semantics="strict",
        )
        default = fed_minavg(
            curves, classes, 200, 100, 10, alpha=100.0, beta=2.0
        )
        assert strict[2] <= default[2]

    def test_unknown_semantics_rejected(self):
        curves, classes = self.setup_scenario()
        with pytest.raises(ValueError):
            fed_minavg(
                curves, classes, 10, 100, 10, 1.0, semantics="magic"
            )

    def test_comm_cost_penalises_opening(self):
        curves = linear_curves([0.01, 0.01])
        classes = [(0, 1), (0, 1)]
        # huge comm cost on user 1: everything lands on user 0
        sched = fed_minavg(
            curves,
            classes,
            20,
            100,
            10,
            alpha=0.0,
            comm_costs=[0.0, 1e6],
        )
        assert sched[1] == 0
