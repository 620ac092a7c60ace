"""P2 objective evaluation.

Eq. (7)'s objective for a *given* allocation: the sum of each selected
user's compute time at its allocation plus its alpha-scaled accuracy
cost (communication optional). Used to compare scheduler outputs on the
quantity Fed-MinAvg actually optimises, independently of makespan.

The accuracy costs are evaluated with the same incremental tracker the
scheduler uses, accounting users in a deterministic order (ascending
index); for order-free semantics ("strict" with full coverage, or
beta = 0) the result is order-independent.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .accuracy_cost import AccuracyCostTracker

__all__ = ["p2_objective"]


def p2_objective(
    shard_counts: Sequence[int],
    shard_size: int,
    time_curves: Sequence[Callable[[float], float]],
    user_classes: Sequence[Tuple[int, ...]],
    num_classes: int,
    alpha: float,
    beta: float = 0.0,
    comm_costs: Optional[Sequence[float]] = None,
    semantics: str = "disjoint",
) -> float:
    """Evaluate Eq. (7) for an allocation of ``shard_counts[j]``
    shards of ``shard_size`` samples to each user ``j``.

    Returns ``sum_j [T_j(l_j d) + comm_j + alpha F_j]`` over users with
    ``l_j > 0``, with ``F_j`` evaluated at the moment user ``j`` is
    accounted (tracker state grows as users are added).
    """
    counts = np.asarray(shard_counts, dtype=np.int64)
    n = len(counts)
    if len(time_curves) != n or len(user_classes) != n:
        raise ValueError("curves/classes length must match the schedule")
    comm = (
        np.zeros(n) if comm_costs is None else np.asarray(comm_costs, float)
    )
    if comm.shape != (n,):
        raise ValueError("comm_costs length must match the schedule")
    tracker = AccuracyCostTracker(
        user_classes, num_classes, alpha, beta, semantics=semantics
    )
    total = 0.0
    for j in range(n):
        if counts[j] <= 0:
            continue
        total += float(time_curves[j](float(counts[j] * shard_size)))
        total += float(comm[j])
        total += tracker.scaled_cost(j)
        tracker.record_assignment(j, int(counts[j]))
    return total
