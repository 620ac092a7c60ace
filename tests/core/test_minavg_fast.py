"""Vectorised Fed-MinAvg: equivalence with the reference and the P2
objective evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import p2_objective
from repro.sched.minavg import fed_minavg, fed_minavg_affine


def random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = rng.uniform(0.0, 5.0, n)
    b = rng.uniform(0.001, 0.05, n)
    classes = [
        tuple(
            int(c)
            for c in rng.choice(10, size=int(rng.integers(1, 5)), replace=False)
        )
        for _ in range(n)
    ]
    total = int(rng.integers(5, 40))
    alpha = float(rng.uniform(0, 200))
    beta = float(rng.choice([0.0, 1.0, 2.0]))
    return a, b, classes, total, alpha, beta


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_reference_implementation(self, seed):
        a, b, classes, total, alpha, beta = random_instance(seed)
        curves = [
            lambda x, ai=ai, bi=bi: ai + bi * x for ai, bi in zip(a, b)
        ]
        ref = fed_minavg(
            curves, classes, total, 100, 10, alpha=alpha, beta=beta
        )
        fast = fed_minavg_affine(
            a, b, classes, total, 100, 10, alpha=alpha, beta=beta
        )
        np.testing.assert_array_equal(ref, fast)

    def test_matches_with_capacities_and_comm(self):
        a = [1.0, 2.0, 0.5]
        b = [0.01, 0.02, 0.005]
        classes = [(0, 1), (2, 3, 4), (5,)]
        caps = [10, 10, 5]
        comm = [0.5, 3.0, 0.1]
        ref = fed_minavg(
            [lambda x, ai=ai, bi=bi: ai + bi * x for ai, bi in zip(a, b)],
            classes,
            20,
            100,
            10,
            alpha=50.0,
            beta=2.0,
            capacities=caps,
            comm_costs=comm,
        )
        fast = fed_minavg_affine(
            a, b, classes, 20, 100, 10,
            alpha=50.0, beta=2.0, capacities=caps, comm_costs=comm,
        )
        np.testing.assert_array_equal(ref, fast)

    def test_validation(self):
        with pytest.raises(ValueError):
            fed_minavg_affine([], [], [], 10, 100, 10, 1.0)
        with pytest.raises(ValueError):
            fed_minavg_affine([1.0], [0.1, 0.2], [(0,)], 10, 100, 10, 1.0)
        with pytest.raises(ValueError):
            fed_minavg_affine(
                [1.0], [0.1], [(0,)], 10, 100, 10, 1.0, capacities=[5]
            )

    def test_faster_than_reference(self):
        """The vector path wins by a wide margin at production scale."""
        import time

        rng = np.random.default_rng(0)
        n, total = 50, 600
        a = rng.uniform(0, 5, n)
        b = rng.uniform(0.001, 0.05, n)
        classes = [
            tuple(int(c) for c in rng.choice(10, size=4, replace=False))
            for _ in range(n)
        ]
        curves = [
            lambda x, ai=ai, bi=bi: ai + bi * x for ai, bi in zip(a, b)
        ]
        t0 = time.perf_counter()
        fed_minavg(curves, classes, total, 100, 10, alpha=100.0, beta=2.0)
        t_ref = time.perf_counter() - t0
        t0 = time.perf_counter()
        fed_minavg_affine(
            a, b, classes, total, 100, 10, alpha=100.0, beta=2.0
        )
        t_fast = time.perf_counter() - t0
        assert t_fast < t_ref  # typically 20-50x; assert direction only


class TestP2Objective:
    def curves(self):
        return [lambda x: 0.01 * x, lambda x: 0.02 * x]

    def test_counts_only_participants(self):
        val = p2_objective(
            [5, 0], 100, self.curves(), [(0,), (1,)], 10, alpha=1.0
        )
        # user 0: T(500)=5 + alpha*K/1 = 10 -> 15
        assert val == pytest.approx(15.0)

    def test_comm_added(self):
        val = p2_objective(
            [5, 0],
            100,
            self.curves(),
            [(0,), (1,)],
            10,
            alpha=0.0,
            comm_costs=[2.0, 2.0],
        )
        assert val == pytest.approx(7.0)

    def test_greedy_minavg_not_worse_than_equal(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 2, 4)
        b = rng.uniform(0.005, 0.05, 4)
        classes = [(0, 1, 2), (3, 4), (5,), (6, 7, 8, 9)]
        curves = [
            lambda x, ai=ai, bi=bi: ai + bi * x for ai, bi in zip(a, b)
        ]
        greedy = fed_minavg(
            curves, classes, 20, 100, 10, alpha=30.0
        )
        equal = np.full(4, 5)
        g = p2_objective(greedy, 100, curves, classes, 10, alpha=30.0)
        e = p2_objective(equal, 100, curves, classes, 10, alpha=30.0)
        assert g <= e + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            p2_objective([1], 100, [], [(0,)], 10, 1.0)
        with pytest.raises(ValueError):
            p2_objective(
                [1], 100, self.curves()[:1], [(0,)], 10, 1.0,
                comm_costs=[1.0, 2.0],
            )


class TestEquivalenceWithConstraints:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_reference_with_caps_and_comm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.0, 3.0, n)
        b = rng.uniform(0.001, 0.05, n)
        classes = [
            tuple(
                int(c)
                for c in rng.choice(
                    10, size=int(rng.integers(1, 5)), replace=False
                )
            )
            for _ in range(n)
        ]
        total = int(rng.integers(5, 30))
        caps = rng.integers(
            max(1, total // n), total + 1, size=n
        )
        while caps.sum() < total:
            caps[int(rng.integers(n))] += 1
        comm = rng.uniform(0.0, 5.0, n)
        alpha = float(rng.uniform(0, 150))
        beta = float(rng.choice([0.0, 2.0]))
        curves = [
            lambda x, ai=ai, bi=bi: ai + bi * x for ai, bi in zip(a, b)
        ]
        ref = fed_minavg(
            curves, classes, total, 100, 10,
            alpha=alpha, beta=beta,
            capacities=caps.tolist(), comm_costs=comm.tolist(),
        )
        fast = fed_minavg_affine(
            a, b, classes, total, 100, 10,
            alpha=alpha, beta=beta,
            capacities=caps.tolist(), comm_costs=comm.tolist(),
        )
        np.testing.assert_array_equal(ref, fast)
