"""The paper's cost model.

* Cost-matrix and time-curve builders (``cost``) — the ``C[j, k]``
  matrix Fed-LBAP consumes and the per-user curves Fed-MinAvg consumes.
* The Eq.-(6) accuracy cost and class coverage (``accuracy_cost``).
* The Eq.-(7) P2 objective of an allocation (``objective``).

The solvers that turn this model into shard counts live in
:mod:`repro.sched`.
"""

from .accuracy_cost import AccuracyCostTracker, accuracy_cost, class_coverage
from .cost import (
    build_cost_matrix,
    comm_costs_for,
    curves_from_profiles,
    enforce_property1,
    oracle_curves,
)
from .objective import p2_objective

__all__ = [
    "AccuracyCostTracker",
    "accuracy_cost",
    "class_coverage",
    "build_cost_matrix",
    "comm_costs_for",
    "curves_from_profiles",
    "enforce_property1",
    "oracle_curves",
    "p2_objective",
]
