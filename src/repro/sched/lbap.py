"""Fed-LBAP (Algorithm 1): joint partitioning and assignment for IID data.

Problem **P1** asks for a data partition ``sum_j D_j = D`` minimising the
synchronous-round makespan ``max_j C[j, D_j]``. Because each user's cost
is non-decreasing in its own shard count (Property 1) and independent of
the others, a threshold ``c*`` is feasible exactly when

    sum_j  max{ k : C[j, k] <= c* }  >=  D,

so the optimal makespan is found by binary search over the sorted cost
values — the paper's O(ns log ns) procedure (O(n^2 log n) when s = n).

Users of one device class share a cost row, so ``fed_lbap`` takes the
matrix of distinct rows plus a ``rows`` map from user to row. The
threshold values come from the C rows some user references, and each
feasibility step runs one ``searchsorted`` per referenced row, gathered
to the n users: O(Cs log Cs + n log Cs) in all. With one row per user
(C = n) this is the paper's bound; a fleet cohort of thousands of
devices over a handful of classes solves in milliseconds.

``fed_lbap`` returns both a concrete allocation and the optimal
threshold: each user is given its maximal within-threshold shard count,
then the surplus over ``D`` is trimmed in closed form. Every surplus
shard sits in a cell costing exactly ``c*``, so the trim takes those
cells from the lowest-indexed users first — the allocation of removing
one shard at a time from the user whose *current* cost is highest
(this never raises the bottleneck and tends to lower the realised
makespan below ``c*``), without a pass per shard.

``solve_lbap_threshold_exact`` is a reference implementation of the
classic LBAP thresholding algorithm (perfect matching via
Hopcroft-Karp, as in Burkard et al.) used by the test-suite to validate
the Fed-LBAP extension on square instances.

:class:`FedLBAPScheduler` registers the solver as ``fed_lbap``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import Assignment, Scheduler, SchedulingProblem, check_counts
from .registry import register

__all__ = [
    "FedLBAPScheduler",
    "fed_lbap",
    "feasible_at_threshold",
    "solve_lbap_threshold_exact",
]


def feasible_at_threshold(
    cost: np.ndarray,
    threshold: float,
    total_shards: int,
    capacities: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
) -> Tuple[bool, np.ndarray]:
    """Check Property-2 feasibility of a threshold.

    Returns ``(feasible, per-user maximal shard counts)``. Rows must be
    non-decreasing; each row's count is found with one
    ``searchsorted``, gathered by ``rows`` (user ``j`` reads row
    ``rows[j]``; ``None`` means one row per user) and optionally
    clipped to per-user capacities.
    """
    # For a non-decreasing row, the count of entries <= threshold is the
    # insertion point of threshold on the right.
    counts = np.array(
        [int(np.searchsorted(row, threshold, side="right")) for row in cost],
        dtype=np.int64,
    )
    if rows is not None:
        counts = counts[rows]
    if capacities is not None:
        counts = np.minimum(counts, capacities)
    return int(counts.sum()) >= total_shards, counts


def fed_lbap(
    cost: np.ndarray,
    total_shards: int,
    capacities: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Run Fed-LBAP on a cost matrix.

    Parameters
    ----------
    cost:
        ``(n_rows, s)`` matrix, rows non-decreasing (Property 1);
        ``cost[r, k]`` is the cost of a row-``r`` user to take ``k+1``
        shards.
    total_shards:
        The D of Eq. (3), in shards.
    capacities:
        Optional per-user maximum shard counts (storage/battery limits,
        the P2-style C_j carried over to P1). The threshold search
        remains exact: feasibility clips each user at its capacity.
    rows:
        Optional ``(n_users,)`` map from user to cost row: user ``j``'s
        costs are ``cost[rows[j]]``. ``None`` means one row per user.
        Users sharing a device class share a row, so the solve works
        on the rows some user references and never builds a per-user
        matrix.

    Returns
    -------
    counts, bottleneck:
        Per-user shard counts and the optimal threshold ``c*`` (the minimal
        feasible bottleneck cost).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if rows is None:
        rows = np.arange(cost.shape[0])
    else:
        rows = np.asarray(rows)
        if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError("rows must be a 1-D integer array")
        if rows.size and (rows.min() < 0 or rows.max() >= cost.shape[0]):
            raise ValueError(
                f"rows entries must index the {cost.shape[0]} cost rows"
            )
    n, s = rows.shape[0], cost.shape[1]
    if n == 0:
        raise ValueError(
            "need at least one user (the cost matrix has no rows)"
        )
    if s == 0:
        raise ValueError("cost matrix has no shard columns")
    if total_shards <= 0:
        raise ValueError("total_shards must be positive")
    caps = None
    if capacities is not None:
        caps = np.minimum(np.asarray(capacities, dtype=np.int64), s)
        if caps.shape != (n,):
            raise ValueError("capacities length must match users")
        if (caps < 0).any():
            raise ValueError("capacities must be non-negative")
        if int(caps.sum()) < total_shards:
            raise ValueError(
                "infeasible: total capacity below the requested shards"
            )
    if total_shards > n * s:
        raise ValueError(
            f"infeasible: {total_shards} shards exceed capacity {n * s}"
        )
    # Only referenced rows are checked and searched: they are exactly
    # the rows of the per-user matrix, so every check and the threshold
    # value set match those of the expansion.
    referenced, user_row = np.unique(rows, return_inverse=True)
    used = cost if referenced.size == cost.shape[0] else cost[referenced]
    if not np.isfinite(used).all():
        raise ValueError("cost matrix contains NaN/inf entries")
    if (used < 0).any():
        raise ValueError(
            "cost matrix contains negative entries (times are seconds)"
        )
    if (np.diff(used, axis=1) < -1e-9).any():
        raise ValueError(
            "cost rows must be non-decreasing (Property 1); "
            "use cost.enforce_property1 first"
        )
    # Rows may dent by up to the tolerance above; searchsorted needs
    # them sorted, so solve on their running maximum.
    used = np.maximum.accumulate(used, axis=1)

    def counts_at(threshold: float) -> Tuple[bool, np.ndarray]:
        return feasible_at_threshold(
            used, threshold, total_shards, caps, rows=user_row
        )

    values = np.unique(used)
    lo, hi = 0, len(values) - 1
    # Invariant: values[hi] is always feasible (the max cost admits every
    # cell, and total_shards <= n*s was checked above).
    while lo < hi:
        mid = (lo + hi) // 2
        if counts_at(values[mid])[0]:
            hi = mid
        else:
            lo = mid + 1
    c_star = float(values[lo])
    counts = counts_at(c_star)[1]
    # Trim the surplus. values[lo - 1] is infeasible, so every surplus
    # shard sits in a cell costing exactly c*. They are removed from
    # the lowest-indexed users first, each drained of its c* cells
    # before the next: the result of removing one shard at a time from
    # the user whose current cost is highest (lowest index on ties).
    below = counts_at(values[lo - 1])[1] if lo > 0 else 0
    excess = counts - below
    surplus = int(counts.sum()) - total_shards
    before = np.cumsum(excess) - excess
    counts = counts - np.clip(surplus - before, 0, excess)
    return check_counts(counts, total_shards), c_star


def solve_lbap_threshold_exact(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """Classic square LBAP: assign n tasks to n users minimising the
    maximum cost, via threshold + Hopcroft-Karp perfect matching.

    Returns ``(assignment, bottleneck)`` where ``assignment[j]`` is the
    task index of user ``j``. Reference oracle for tests; O(n^2.5 log n).
    """
    import networkx as nx

    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("exact LBAP needs a square cost matrix")
    n = cost.shape[0]
    values = np.unique(cost)

    def matching_at(threshold: float) -> Optional[dict]:
        g = nx.Graph()
        users = [("u", j) for j in range(n)]
        tasks = [("t", i) for i in range(n)]
        g.add_nodes_from(users, bipartite=0)
        g.add_nodes_from(tasks, bipartite=1)
        js, is_ = np.nonzero(cost <= threshold)
        g.add_edges_from(
            (("u", int(j)), ("t", int(i))) for j, i in zip(js, is_)
        )
        match: dict = nx.bipartite.maximum_matching(g, top_nodes=users)
        if sum(1 for k in match if k[0] == "u") == n:
            return match
        return None

    lo, hi = 0, len(values) - 1
    best = None
    while lo < hi:
        mid = (lo + hi) // 2
        m = matching_at(values[mid])
        if m is not None:
            best = m
            hi = mid
        else:
            lo = mid + 1
    if best is None or not matching_at(values[lo]):
        best = matching_at(values[lo])
    assert best is not None, "full-threshold matching must exist"
    assignment = np.empty(n, dtype=np.int64)
    for key, val in best.items():
        if key[0] == "u":
            assignment[key[1]] = val[1]
    return assignment, float(values[lo])


@register("fed_lbap")
class FedLBAPScheduler(Scheduler):
    """Algorithm 1 (P1): threshold-optimal min-makespan partitioning."""

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        counts, bottleneck = fed_lbap(
            problem.time_cost,
            problem.total_shards,
            capacities=problem.capacities,
            rows=problem.user_rows(),
        )
        return self._finish(problem, counts, bottleneck=bottleneck)
