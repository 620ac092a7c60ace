"""repro — reproduction of *Optimize Scheduling of Federated Learning on
Battery-powered Mobile Devices* (Wang, Wei, Zhou; IEEE IPDPS 2020).

Public API highlights:

* :mod:`repro.core` — the paper's cost model (cost matrices, Eq.-(6)
  accuracy cost, P2 objective).
* :mod:`repro.sched` — the scheduling layer: Fed-LBAP / Fed-MinAvg,
  the baselines, OLAR / MinEnergy from related work, registry, cost
  models, bench harness.
* :mod:`repro.device` — calibrated mobile-SoC simulator (Table I phones).
* :mod:`repro.profiling` — the two-step training-time profiler.
* :mod:`repro.engine` — the unified event-driven FL execution core
  (round engine, aggregation strategies, topologies, telemetry).
* :mod:`repro.federated` — FedAvg simulation with a device-driven clock.
* :mod:`repro.data` / :mod:`repro.models` — datasets, partitioners and
  the NumPy training stack (LeNet / VGG6).
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from . import (
    core,
    data,
    device,
    engine,
    federated,
    models,
    network,
    profiling,
    sched,
)

__version__ = "1.0.0"

__all__ = [
    "core",
    "data",
    "device",
    "engine",
    "federated",
    "models",
    "network",
    "profiling",
    "sched",
    "__version__",
]
