"""Brute-force oracles for small scheduling instances.

Test oracles, not library code: exhaustively enumerate every composition of
D shards over n users and return the true optimum, validating that
Fed-LBAP's threshold search is exact and quantifying Fed-MinAvg's
greedy gap on P2. ``fed_lbap_greedy`` keeps the per-user Fed-LBAP
kernel that ``repro.sched.lbap`` replaced (a Python pass per
feasibility step and per surplus shard) as the reference the
class-row solver must match exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.accuracy_cost import accuracy_cost

__all__ = [
    "compositions",
    "brute_force_makespan",
    "brute_force_p2",
    "fed_lbap_greedy",
]


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


def _feasible_counts(
    cost: np.ndarray, threshold: float, capacities: Optional[np.ndarray]
) -> np.ndarray:
    counts = np.array(
        [int(np.searchsorted(row, threshold, side="right")) for row in cost],
        dtype=np.int64,
    )
    if capacities is not None:
        counts = np.minimum(counts, capacities)
    return counts


def _trim_to_total(
    cost: np.ndarray, counts: np.ndarray, total_shards: int
) -> np.ndarray:
    """Reduce an over-allocation to exactly ``total_shards`` shards.

    Greedily removes one shard from the user whose current allocation
    has the highest cost (``argmax``: the lowest index on ties).
    """
    counts = counts.copy()
    surplus = int(counts.sum()) - total_shards
    if surplus < 0:
        raise ValueError("cannot trim: allocation already below total")
    # current cost of each user's last shard (-inf when idle so idle
    # users are never "trimmed")
    while surplus > 0:
        current = np.array(
            [
                cost[j, counts[j] - 1] if counts[j] > 0 else -np.inf
                for j in range(len(counts))
            ]
        )
        j = int(np.argmax(current))
        if counts[j] == 0:
            raise RuntimeError("trim ran out of shards to remove")
        counts[j] -= 1
        surplus -= 1
    return counts


def fed_lbap_greedy(
    cost: np.ndarray,
    total_shards: int,
    capacities: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Per-user Fed-LBAP: binary search over ``np.unique(cost)`` with a
    row-by-row feasibility count, then a one-shard-at-a-time trim.

    ``cost`` is ``(n_users, s)`` with non-decreasing rows; returns
    ``(counts, c*)`` like :func:`repro.sched.lbap.fed_lbap`.
    """
    cost = np.asarray(cost, dtype=np.float64)
    s = cost.shape[1]
    caps = None
    if capacities is not None:
        caps = np.minimum(np.asarray(capacities, dtype=np.int64), s)
    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible_counts(cost, values[mid], caps).sum() >= total_shards:
            hi = mid
        else:
            lo = mid + 1
    c_star = float(values[lo])
    counts = _feasible_counts(cost, c_star, caps)
    return _trim_to_total(cost, counts, total_shards), c_star
