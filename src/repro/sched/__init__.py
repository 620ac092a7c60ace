"""``repro.sched`` — the pluggable scheduler subsystem.

The paper's contribution *is* scheduling, so schedulers are first-class
here the way aggregation strategies and topologies are in
:mod:`repro.engine`:

* :class:`Scheduler` ABC + :class:`SchedulingProblem` /
  :class:`Assignment` (``base``) — one interface for "how many shards
  does each user train";
* a decorator registry (``registry``) — ``@register("olar")``,
  ``get_scheduler``, ``available_schedulers``;
* the paper's algorithms — Fed-LBAP (``lbap``, Alg. 1) and Fed-MinAvg
  (``minavg``, Alg. 2, with its affine fast path and private mode) —
  and the Equal / Random / Proportional baselines (``baselines``);
  each module holds a plain solver returning int64 shard counts and
  the registered class that wraps it;
* two algorithms from related work: :class:`OLARScheduler`
  (Pilla 2020, provably min-makespan for monotone costs) and
  :class:`MinEnergyScheduler` (Pilla 2022, exact (MC)²MKP
  minimal-energy DP with an optional makespan cap);
* :class:`AdaptiveScheduler` (``adaptive``) — closed-loop Fed-LBAP
  over online-updated profiles; stateful, so not registered;
* cost-model builders (``costs``) — time *and* energy matrices from
  the calibrated device simulator;
* the comparison harness (``bench``) and the engine glue
  (``binding`` + the ``schedule_computed`` event).

Registered names: ``equal``, ``fed_lbap``, ``fed_minavg``,
``fed_minavg_fast``, ``min_energy``, ``olar``, ``proportional``,
``random``.
"""

from . import baselines, lbap, minavg, minenergy, olar  # register built-ins
from .adaptive import AdaptiveScheduler
from .base import (
    Assignment,
    RoundCost,
    Scheduler,
    SchedulingProblem,
    check_counts,
    evaluate_makespan,
)
from .baselines import (
    EqualScheduler,
    ProportionalScheduler,
    RandomScheduler,
    equal_schedule,
    proportional_schedule,
    random_schedule,
)
from .bench import CompareRow, compare, format_table, sweep
from .binding import EngineSchedulerBinding, problem_from_engine
from .costs import (
    DATASET_TOTALS,
    build_energy_matrix,
    cached_energy_curves,
    cached_time_curves,
    testbed_problem,
)
from .lbap import FedLBAPScheduler, fed_lbap
from .minavg import (
    FedMinAvgFastScheduler,
    FedMinAvgScheduler,
    fed_minavg,
    fed_minavg_affine,
    fed_minavg_private,
)
from .minenergy import MinEnergyScheduler, min_energy_assign
from .olar import OLARScheduler, olar_assign
from .registry import (
    available_schedulers,
    get_scheduler,
    is_registered,
    register,
    scheduler_class,
)

__all__ = [
    "Assignment",
    "Scheduler",
    "SchedulingProblem",
    "check_counts",
    "RoundCost",
    "evaluate_makespan",
    "register",
    "get_scheduler",
    "scheduler_class",
    "available_schedulers",
    "is_registered",
    "EqualScheduler",
    "RandomScheduler",
    "ProportionalScheduler",
    "FedLBAPScheduler",
    "FedMinAvgScheduler",
    "FedMinAvgFastScheduler",
    "OLARScheduler",
    "MinEnergyScheduler",
    "AdaptiveScheduler",
    "fed_lbap",
    "fed_minavg",
    "fed_minavg_affine",
    "fed_minavg_private",
    "equal_schedule",
    "random_schedule",
    "proportional_schedule",
    "olar_assign",
    "min_energy_assign",
    "testbed_problem",
    "cached_time_curves",
    "cached_energy_curves",
    "build_energy_matrix",
    "DATASET_TOTALS",
    "compare",
    "sweep",
    "format_table",
    "CompareRow",
    "EngineSchedulerBinding",
    "problem_from_engine",
]
