"""Baseline scheduler tests."""

import numpy as np
import pytest

from repro.device.registry import build_spec
from repro.sched import SchedulingProblem, get_scheduler
from repro.sched.baselines import (
    equal_schedule,
    mean_cpu_freq_per_core,
    proportional_schedule,
    random_schedule,
)


class TestEqual:
    def test_even_split(self):
        s = equal_schedule(4, 20)
        np.testing.assert_array_equal(s, [5, 5, 5, 5])

    def test_remainder(self):
        s = equal_schedule(3, 10)
        assert s.sum() == 10
        assert s.max() - s.min() <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            equal_schedule(0, 10)


class TestRandom:
    def test_total_preserved(self, rng):
        s = random_schedule(5, 33, rng)
        assert s.sum() == 33

    def test_deterministic_per_seed(self):
        a = random_schedule(5, 50, np.random.default_rng(3))
        b = random_schedule(5, 50, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_spreads_on_average(self):
        totals = np.zeros(4)
        for seed in range(50):
            totals += random_schedule(4, 40, np.random.default_rng(seed))
        np.testing.assert_allclose(totals / 50, 10.0, atol=1.5)


class TestProportional:
    def test_mean_cpu_freq(self):
        n6 = build_spec("nexus6")
        assert mean_cpu_freq_per_core(n6) == pytest.approx(2.7)
        n6p = build_spec("nexus6p")
        assert mean_cpu_freq_per_core(n6p) == pytest.approx(
            (4 * 1.55 + 4 * 2.0) / 8
        )

    def test_proportional_to_frequency(self):
        specs = [build_spec("nexus6"), build_spec("nexus6p")]
        s = proportional_schedule(specs, 100)
        assert s.sum() == 100
        # 2.7 GHz/core vs 1.775 GHz/core -> nexus6 gets more
        assert s[0] > s[1]

    def test_explicit_weights(self):
        s = proportional_schedule([], 10, weights=[1.0, 3.0])
        assert s.sum() == 10
        assert s[1] >= 3 * s[0] - 1

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            proportional_schedule([], 10, weights=[1.0, -1.0])
        with pytest.raises(ValueError):
            proportional_schedule([], 10, weights=[])

    def test_algorithm_labels(self):
        p = SchedulingProblem(time_cost=np.ones((2, 4)), total_shards=4)
        for name in ("equal", "random", "proportional"):
            assert get_scheduler(name).schedule(p).scheduler == name
