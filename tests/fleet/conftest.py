"""Shared fixtures for the columnar-fleet tests.

Hand-built device classes (no profiler probing) keep the unit tests
fast and the arithmetic easy to check by hand; the builder tests cover
the calibrated-path (`device_class_from_name`) separately.

The object views at the bottom present one store row as the
``MobileDevice``/``Link`` surface the engine's ``DeviceBackend`` calls,
so ``test_equivalence.py`` can drive a fleet through the per-object
backend and compare it with the store's native vector path.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.fleet import DeviceClass, synthetic_fleet


def toy_classes():
    """Two classes with round-number affine coefficients."""
    return (
        DeviceClass(
            name="fast",
            time_base_s=1.0,
            time_per_sample_s=0.001,
            energy_base_j=2.0,
            energy_per_sample_j=0.004,
            capacity_j=10_000.0,
            idle_power_w=0.5,
            uplink_mbps=10.0,
            downlink_mbps=40.0,
            rtt_s=0.05,
            link="wifi",
        ),
        DeviceClass(
            name="slow",
            time_base_s=2.0,
            time_per_sample_s=0.004,
            energy_base_j=3.0,
            energy_per_sample_j=0.010,
            capacity_j=8_000.0,
            idle_power_w=0.8,
            uplink_mbps=2.0,
            downlink_mbps=8.0,
            rtt_s=0.1,
            link="lte",
        ),
    )


def toy_fleet(n=16, seed=0, **kwargs):
    return synthetic_fleet(n, seed=seed, classes=toy_classes(), **kwargs)


@pytest.fixture
def classes():
    return toy_classes()


@pytest.fixture
def fleet():
    return toy_fleet()


# -- object views over store rows ----------------------------------------


@dataclass(frozen=True)
class FleetTrace:
    """The ``TrainingTrace`` fields the device backend reads."""

    total_time_s: float
    energy_j: float


class FleetBattery:
    """``device.battery``-shaped view over one store row."""

    def __init__(self, store, index):
        self._store = store
        self._index = np.array([index])

    @property
    def soc(self):
        return float(self._store.soc(self._index)[0])


class FleetDevice:
    """One store row viewed as a ``MobileDevice``: every call is the
    store's vector op on a one-element index array, so the views share
    (and mutate) the store's state."""

    def __init__(self, store, index):
        self._store = store
        self._index = np.array([index])
        self.battery = FleetBattery(store, index)

    def run_workload(self, workload, record=False):
        t, e = self._store.run_compute(
            self._index, np.array([workload.n_samples]), workload.epochs
        )
        return FleetTrace(total_time_s=float(t[0]), energy_j=float(e[0]))

    def idle(self, seconds):
        self._store.idle(self._index, np.array([seconds]))


class FleetLink:
    """One store row viewed as a jitter-free ``Link``."""

    def __init__(self, store, index):
        self._store = store
        self._index = np.array([index])

    def round_trip_time_s(self, size_mb):
        return float(self._store.comm_time_s(self._index, size_mb)[0])


def fleet_devices(store):
    return [FleetDevice(store, j) for j in range(store.n)]


def fleet_links(store):
    return [FleetLink(store, j) for j in range(store.n)]
