"""Privacy-preserving Fed-MinAvg tests."""

import numpy as np
import pytest

from repro.sched.minavg import fed_minavg, fed_minavg_private


def curves(slopes):
    return [lambda x, s=s: s * x for s in slopes]


def reported(classes, alpha, k=10):
    """What each user would report: alpha * K / |U_j|."""
    return [alpha * k / len(cs) for cs in classes]


class TestPrivateMode:
    def test_beta_zero_equals_full_algorithm(self):
        """Without the discount, scalar reports carry all the
        information Algorithm 2 uses — the schedules must coincide."""
        slopes = (0.013, 0.016, 0.009)
        classes = [(0, 1, 2, 3, 4, 5, 6, 9), (2, 3, 4, 5, 6, 8), (7, 8)]
        alpha = 150.0
        full = fed_minavg(
            curves(slopes), classes, 100, 100, 10, alpha=alpha, beta=0.0
        )
        private = fed_minavg_private(
            curves(slopes),
            reported(classes, alpha),
            total_shards=100,
            shard_size=100,
        )
        np.testing.assert_array_equal(full, private)

    def test_private_mode_never_sees_classes(self):
        """The API accepts no class information — construction alone
        demonstrates the privacy property."""
        sched = fed_minavg_private(
            curves((0.01, 0.02)),
            [100.0, 50.0],
            total_shards=10,
            shard_size=100,
        )
        assert sched.sum() == 10

    def test_discount_flags_recover_beta_behaviour(self):
        """With a truthful one-bit flag channel, the unique-class
        outlier gets subsidised just as in the full algorithm."""
        slopes = (0.013, 0.016, 0.009)
        classes = [(0, 1, 2, 3, 4, 5, 6, 9), (2, 3, 4, 5, 6, 8), (7, 8)]
        alpha, beta = 100.0, 2.0

        # User 2's truthful flag: "class 7 is still uncovered" — which
        # stays true as long as nobody else holds it (always, here).
        def flags(j, d_u):
            return j == 2

        without = fed_minavg_private(
            curves(slopes), reported(classes, alpha), 200, 100
        )
        with_flags = fed_minavg_private(
            curves(slopes),
            reported(classes, alpha),
            200,
            100,
            beta=beta,
            discount_flags=flags,
        )
        assert with_flags[2] > without[2]

    def test_capacities_and_comm(self):
        sched = fed_minavg_private(
            curves((0.01, 0.5)),
            [10.0, 10.0],
            total_shards=10,
            shard_size=100,
            capacities=[6, 10],
            comm_costs=[0.0, 100.0],
        )
        assert sched[0] == 6  # capped, rest spills over
        assert sched.sum() == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            fed_minavg_private([], [], 10, 100)
        with pytest.raises(ValueError):
            fed_minavg_private(curves((0.01,)), [1.0, 2.0], 10, 100)
        with pytest.raises(ValueError):
            fed_minavg_private(
                curves((0.01,)), [1.0], 10, 100, capacities=[5]
            )
