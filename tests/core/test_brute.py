"""Brute-force oracle tests (the oracles themselves must be right)."""

import math

import numpy as np
import pytest

from tests.oracles import brute_force_makespan, brute_force_p2, compositions


class TestCompositions:
    def test_count(self):
        # C(total + parts - 1, parts - 1)
        assert len(list(compositions(4, 2))) == 5
        assert len(list(compositions(3, 3))) == math.comb(5, 2)

    def test_all_sum_to_total(self):
        for comp in compositions(5, 3):
            assert sum(comp) == 5
            assert all(k >= 0 for k in comp)

    def test_single_part(self):
        assert list(compositions(7, 1)) == [(7,)]

    def test_validation(self):
        with pytest.raises(ValueError):
            list(compositions(3, 0))
        with pytest.raises(ValueError):
            list(compositions(-1, 2))


class TestBruteForceMakespan:
    def test_known_optimum(self):
        # user 0 cheap, user 1 expensive: all shards to user 0
        cost = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
        comp, val = brute_force_makespan(cost, 3)
        assert comp == (3, 0)
        assert val == 3.0

    def test_balanced_optimum(self):
        cost = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        comp, val = brute_force_makespan(cost, 4)
        assert val == 2.0
        assert comp == (2, 2)

    def test_infeasible_raises(self):
        cost = np.ones((1, 2))
        with pytest.raises(ValueError):
            brute_force_makespan(cost, 3)


class TestBruteForceP2:
    def test_prefers_cheap_user_when_alpha_zero(self):
        curves = [lambda x: 0.001 * x, lambda x: 1.0 * x]
        comp, val = brute_force_p2(
            curves, [(0,), (1,)], total_shards=4, shard_size=10,
            num_classes=10, alpha=0.0,
        )
        assert comp == (4, 0)

    def test_alpha_penalises_one_class_user(self):
        curves = [lambda x: 0.1 * x, lambda x: 0.1 * x]
        # user 0 has 1 class (F=10), user 1 has all (F=1)
        comp, _ = brute_force_p2(
            curves,
            [(0,), tuple(range(10))],
            total_shards=4,
            shard_size=10,
            num_classes=10,
            alpha=100.0,
        )
        assert comp == (0, 4)

    def test_capacity_respected(self):
        curves = [lambda x: 0.001 * x, lambda x: 1.0 * x]
        comp, _ = brute_force_p2(
            curves, [(0,), (1,)], 4, 10, 10, alpha=0.0, capacities=[2, 4]
        )
        assert comp[0] <= 2
