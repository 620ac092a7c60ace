"""Brute-force oracles for small scheduling instances.

Test oracles, not library code: exhaustively enumerate every composition of
D shards over n users and return the true optimum, validating that
Fed-LBAP's threshold search is exact and quantifying Fed-MinAvg's
greedy gap on P2.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.accuracy_cost import accuracy_cost

__all__ = ["compositions", "brute_force_makespan", "brute_force_p2"]


def compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All non-negative integer compositions of ``total`` into ``parts``.

    There are C(total + parts - 1, parts - 1) of them; keep instances
    tiny (the tests use total <= 12, parts <= 4).
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_makespan(
    cost: np.ndarray, total_shards: int
) -> Tuple[Tuple[int, ...], float]:
    """Exhaustive P1 optimum: best composition and its makespan.

    ``cost[j, k]`` is user ``j``'s cost at ``k+1`` shards; a user with 0
    shards contributes no cost.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, s = cost.shape
    best: Optional[Tuple[int, ...]] = None
    best_val = math.inf
    for comp in compositions(total_shards, n):
        if any(k > s for k in comp):
            continue
        val = max(
            (cost[j, k - 1] for j, k in enumerate(comp) if k > 0),
            default=0.0,
        )
        if val < best_val:
            best_val = val
            best = comp
    if best is None:
        raise ValueError("instance infeasible: a user would exceed s shards")
    return best, float(best_val)


def brute_force_p2(
    time_curves: Sequence[Callable[[float], float]],
    user_classes: Sequence[Tuple[int, ...]],
    total_shards: int,
    shard_size: int,
    num_classes: int,
    alpha: float,
    beta: float = 0.0,
    capacities: Optional[Sequence[int]] = None,
) -> Tuple[Tuple[int, ...], float]:
    """Exhaustive P2 objective over compositions.

    Objective per Eq. (7) with the *final* Eq.-(6) accuracy cost of each
    selected user (coverage evaluated on the full selection, D_u = D):
    sum_j T_j(l_j d) + alpha F_j over selected users. This is the
    natural static reading of P2; Fed-MinAvg optimises it greedily with
    costs evolving during construction, so the oracle bounds rather than
    exactly matches the greedy objective.
    """
    n = len(time_curves)
    caps = (
        [total_shards] * n if capacities is None else list(capacities)
    )
    best: Optional[Tuple[int, ...]] = None
    best_val = math.inf
    for comp in compositions(total_shards, n):
        if any(k > c for k, c in zip(comp, caps)):
            continue
        covered: set = set()
        for j, k in enumerate(comp):
            if k > 0:
                covered |= set(user_classes[j])
        val = 0.0
        seen: set = set()
        for j, k in enumerate(comp):
            if k == 0:
                continue
            val += time_curves[j](float(k * shard_size))
            # F_j with U = classes of previously counted users
            val += accuracy_cost(
                user_classes[j],
                seen,
                num_classes,
                alpha,
                beta,
                total_shards,
            )
            seen |= set(user_classes[j])
        if val < best_val:
            best_val = val
            best = comp
    if best is None:
        raise ValueError("instance infeasible under the given capacities")
    return best, float(best_val)
