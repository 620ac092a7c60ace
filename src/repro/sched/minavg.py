"""Fed-MinAvg (Algorithm 2): greedy min-average-cost assignment for
non-IID data.

Problem **P2** minimises the sum of compute/communication time and the
alpha-scaled accuracy cost of the selected users, subject to capacities
C_j and full allocation of D shards — a bin-packing-with-item-
fragmentation analogue where opening a "bin" (user) incurs the Eq.-(6)
accuracy cost.

The algorithm assigns one shard at a time to the candidate with the
minimum (time + alpha*F) value:

* while unopened users remain, an open user ``j`` competes with its
  *total* time at ``l_j + 1`` shards while an unopened user ``k``
  competes with its first-shard time plus its opening accuracy cost
  (Eq. 12);
* once everyone is open, all users compete at ``l + 1`` shards;
* after each assignment the winner's ``alpha * F_j`` is refreshed per
  Eq. (6) (line 10-13), and users at capacity are closed with
  ``F_j = inf`` (line 14-15).

Runs in O(D * n); D is the shard count ("m" in the paper's notation).
Three solvers share that loop and one input check, each returning
per-user shard counts:

* :func:`fed_minavg` — the reference, over arbitrary time-curve
  callables and any Eq.-(6) discount semantics;
* :func:`fed_minavg_affine` — vectorised for affine curves
  ``T_j(x) = a_j + b_j x`` under the default ``"disjoint"`` semantics.
  The time term is maintained incrementally (``+= slope * d`` for the
  winner) and the accuracy term by one masked vector add per
  assignment (the winner's column of the class-disjointness matrix).
  It produces identical allocations to the reference (both break exact
  cost ties at the lowest user index; costs within the reference's
  1e-12 tolerance of each other could in principle resolve
  differently, which random-instance equivalence testing has never
  observed) at ~20-50x the speed; see
  ``benchmarks/test_ablations.py::TestMinavgScaling``;
* :func:`fed_minavg_private` — the Sec. VI-A deployment mode, where
  the server receives only each user's scalar base accuracy cost
  ``alpha * K/|U_j|`` and never the class sets. Without class sets the
  beta discount degrades to a user-reported one-bit flag stream ("my
  classes are still underrepresented", computed locally against the
  public class histogram the server broadcasts). With ``beta = 0`` it
  is exactly the full algorithm.

:class:`FedMinAvgScheduler` and :class:`FedMinAvgFastScheduler`
register the first two as ``fed_minavg`` and ``fed_minavg_fast``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from ..core.accuracy_cost import AccuracyCostTracker
from .base import Assignment, Scheduler, SchedulingProblem, check_counts
from .registry import register

__all__ = [
    "FedMinAvgScheduler",
    "FedMinAvgFastScheduler",
    "fed_minavg",
    "fed_minavg_affine",
    "fed_minavg_private",
]


def _check_inputs(
    n: int,
    total_shards: int,
    shard_size: int,
    capacities: Optional[ArrayLike],
    comm_costs: Optional[ArrayLike],
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate the inputs every Fed-MinAvg solver takes.

    Returns the per-user capacity vector (unbounded when omitted) and
    communication seconds (zero when omitted).
    """
    if n == 0:
        raise ValueError("need at least one user (empty user list)")
    if total_shards <= 0 or shard_size <= 0:
        raise ValueError("total_shards and shard_size must be positive")
    caps = (
        np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        if capacities is None
        else np.asarray(capacities, dtype=np.int64)
    )
    if caps.shape != (n,):
        raise ValueError("capacities length must match users")
    if int(np.minimum(caps, total_shards).sum()) < total_shards:
        raise ValueError(
            "infeasible: total capacity below the requested shards"
        )
    comm = (
        np.zeros(n) if comm_costs is None else np.asarray(comm_costs, float)
    )
    if comm.shape != (n,):
        raise ValueError("comm_costs length must match users")
    return caps, comm


def fed_minavg(
    time_curves: Sequence[Callable[[float], float]],
    user_classes: Sequence[Tuple[int, ...]],
    total_shards: int,
    shard_size: int,
    num_classes: int,
    alpha: float,
    beta: float = 0.0,
    capacities: Optional[ArrayLike] = None,
    comm_costs: Optional[ArrayLike] = None,
    semantics: str = "disjoint",
) -> np.ndarray:
    """Run Fed-MinAvg and return the per-user shard counts.

    Parameters
    ----------
    time_curves:
        Per-user ``T_j(n_samples)`` callables (profiled curves).
    user_classes:
        Per-user class sets ``U_j`` (the users' meta-data report).
    total_shards:
        D, the number of shards to allocate.
    shard_size:
        Samples per shard (d in Algorithm 2).
    num_classes:
        K, classes in the test set.
    alpha, beta:
        The time/accuracy trade-off weights of Eq. (6).
    capacities:
        Optional per-user shard capacities C_j (default: unbounded).
    comm_costs:
        Optional per-user communication seconds, added to the opening
        cost of a user (a user only pays push/pull once per round).
    semantics:
        Eq.-(6) discount semantics: ``"disjoint"`` (default, matches the
        paper's Table IV behaviour), ``"coverage"``, ``"unique"``, or
        ``"strict"`` (the printed condition); see
        :mod:`repro.core.accuracy_cost`.
    """
    n = len(time_curves)
    caps, comm = _check_inputs(
        n, total_shards, shard_size, capacities, comm_costs
    )
    if len(user_classes) != n:
        raise ValueError("one class set per user required")

    tracker = AccuracyCostTracker(
        user_classes, num_classes, alpha, beta, semantics=semantics
    )
    shards = np.zeros(n, dtype=np.int64)
    opened = np.zeros(n, dtype=bool)
    closed = caps <= 0  # at capacity (zero-cap users start closed)
    # Eq. (6) values change for *every* user when coverage or D_u
    # changes, so the candidates' costs are recomputed each step
    # (still O(n) per shard).

    for _ in range(total_shards):
        best_j = -1
        best_cost = math.inf
        for j in range(n):
            if closed[j]:
                continue
            f_j = tracker.scaled_cost(j)
            if opened[j]:
                t = time_curves[j](float((shards[j] + 1) * shard_size))
            else:
                t = time_curves[j](float(shard_size)) + comm[j]
            total = t + f_j
            if total < best_cost - 1e-12:
                best_cost = total
                best_j = j
        if best_j < 0:
            raise RuntimeError(
                "no assignable user left (all closed) before D exhausted"
            )
        shards[best_j] += 1
        opened[best_j] = True
        tracker.record_assignment(best_j, 1)
        if shards[best_j] >= caps[best_j]:
            closed[best_j] = True
    return check_counts(shards, total_shards, caps)


def fed_minavg_affine(
    intercepts: ArrayLike,
    slopes: ArrayLike,
    user_classes: Sequence[Tuple[int, ...]],
    total_shards: int,
    shard_size: int,
    num_classes: int,
    alpha: float,
    beta: float = 0.0,
    capacities: Optional[ArrayLike] = None,
    comm_costs: Optional[ArrayLike] = None,
) -> np.ndarray:
    """Fed-MinAvg for curves ``T_j(x) = intercepts[j] + slopes[j] * x``.

    Semantics are fixed to the default ``"disjoint"`` reading of
    Eq. (6); arguments otherwise mirror :func:`fed_minavg`.
    """
    a = np.asarray(intercepts, dtype=np.float64)
    b = np.asarray(slopes, dtype=np.float64)
    n = a.shape[0]
    caps, comm = _check_inputs(
        n, total_shards, shard_size, capacities, comm_costs
    )
    if b.shape != (n,) or len(user_classes) != n:
        raise ValueError("intercepts/slopes/classes lengths differ")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("intercepts/slopes contain NaN/inf entries")
    if (a < 0).any() or (b < 0).any():
        raise ValueError(
            "intercepts/slopes must be non-negative (times are seconds)"
        )

    class_sets = [frozenset(int(c) for c in cs) for cs in user_classes]
    for j, cs in enumerate(class_sets):
        if not cs:
            raise ValueError(f"user {j} holds no classes")
        if any(not 0 <= c < num_classes for c in cs):
            raise ValueError(f"user {j} holds out-of-range classes")
    base = alpha * num_classes / np.array(
        [len(cs) for cs in class_sets], dtype=np.float64
    )
    # disjoint[j, k] = users j and k share no class
    disjoint = np.array(
        [
            [float(not (class_sets[j] & class_sets[k])) for k in range(n)]
            for j in range(n)
        ]
    )
    np.fill_diagonal(disjoint, 0.0)

    d = float(shard_size)
    shards = np.zeros(n, dtype=np.int64)
    opened = np.zeros(n, dtype=bool)
    closed = caps <= 0  # zero-cap users start closed
    # time term at the *next* shard for each user: opened users are
    # evaluated at (l_j + 1) shards, unopened at 1 shard + comm.
    time_term = a + b * d + comm
    discount = np.zeros(n)  # beta * disjoint_shards[j]

    for _ in range(total_shards):
        total_cost = np.where(
            closed, np.inf, time_term + base - discount
        )
        j = int(np.argmin(total_cost))
        if not np.isfinite(total_cost[j]):
            raise RuntimeError(
                "no assignable user left (all closed) before D exhausted"
            )
        shards[j] += 1
        if not opened[j]:
            opened[j] = True
            # drop the opening comm cost; future evaluations are pure
            # compute at (l_j + 1) shards
            time_term[j] -= comm[j]
        time_term[j] += b[j] * d
        discount += beta * disjoint[:, j]
        if shards[j] >= caps[j]:
            closed[j] = True
    return check_counts(shards, total_shards, caps)


def fed_minavg_private(
    time_curves: Sequence[Callable[[float], float]],
    reported_costs: ArrayLike,
    total_shards: int,
    shard_size: int,
    beta: float = 0.0,
    discount_flags: Optional[Callable[[int, int], bool]] = None,
    capacities: Optional[ArrayLike] = None,
    comm_costs: Optional[ArrayLike] = None,
) -> np.ndarray:
    """Fed-MinAvg from scalar cost reports only.

    Parameters
    ----------
    time_curves:
        Per-user ``T_j(n_samples)`` (from profiles — no class info).
    reported_costs:
        Per-user ``alpha * F_j`` base values, computed *locally* by each
        user from its own class count (the server never sees ``U_j``).
    beta, discount_flags:
        Optional one-bit feedback channel: ``discount_flags(j, D_u)``
        returns True when user ``j`` (locally) determines its classes
        are still missing from the public coverage summary; the server
        then applies the ``beta * D_u`` deduction. ``None`` disables the
        discount (pure-scalar mode).
    """
    n = len(time_curves)
    caps, comm = _check_inputs(
        n, total_shards, shard_size, capacities, comm_costs
    )
    reported = np.asarray(reported_costs, dtype=np.float64)
    if reported.shape != (n,):
        raise ValueError("one reported cost per user required")

    shards = np.zeros(n, dtype=np.int64)
    opened = np.zeros(n, dtype=bool)
    closed = np.zeros(n, dtype=bool)
    d_u = 0
    for _ in range(total_shards):
        best_j, best_cost = -1, math.inf
        for j in range(n):
            if closed[j]:
                continue
            f_j = reported[j]
            if (
                beta > 0
                and discount_flags is not None
                and discount_flags(j, d_u)
            ):
                f_j -= beta * d_u
            if opened[j]:
                t = time_curves[j](float((shards[j] + 1) * shard_size))
            else:
                t = time_curves[j](float(shard_size)) + comm[j]
            total = t + f_j
            if total < best_cost - 1e-12:
                best_cost = total
                best_j = j
        if best_j < 0:
            raise RuntimeError(
                "no assignable user left (all closed) before D exhausted"
            )
        shards[best_j] += 1
        opened[best_j] = True
        d_u += 1
        if shards[best_j] >= caps[best_j]:
            closed[best_j] = True
    return check_counts(shards, total_shards, caps)


def _curves_from_matrix(
    problem: SchedulingProblem,
) -> List[Callable[[float], float]]:
    """Shard-granular time curves read off the cost matrix.

    ``T_j(k * shard_size) = time_cost[j, k-1]``; used when a problem
    carries only the matrix form. Comm costs are already folded into
    the matrix on this path, so callers must not add them again.
    """
    cost = problem.time_cost
    rows = problem.user_rows()
    d = problem.shard_size
    s = problem.n_slots

    def make(j: int) -> Callable[[float], float]:
        row = cost[rows[j]]

        def curve(n_samples: float) -> float:
            k = int(round(n_samples / d))
            if k <= 0:
                return 0.0
            return float(row[min(k, s) - 1])

        return curve

    return [make(j) for j in range(problem.n_users)]


@register("fed_minavg")
class FedMinAvgScheduler(Scheduler):
    """Algorithm 2 (P2): greedy min-average-cost shard assignment.

    Uses the problem's raw time curves and comm costs when present
    (exactly what a direct :func:`fed_minavg` call sees); otherwise
    falls back to shard-granular curves read off the matrix.
    """

    def __init__(self, semantics: str = "disjoint") -> None:
        self.semantics = semantics

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        if problem.time_curves is not None:
            curves = problem.time_curves
            comm = problem.comm_costs
        else:
            curves = _curves_from_matrix(problem)
            comm = None  # already folded into the matrix
        counts = fed_minavg(
            curves,
            problem.classes_or_default(),
            problem.total_shards,
            problem.shard_size,
            problem.num_classes,
            problem.alpha,
            beta=problem.beta,
            capacities=problem.effective_capacities(),
            comm_costs=comm,
            semantics=self.semantics,
        )
        return self._finish(
            problem,
            counts,
            alpha=problem.alpha,
            beta=problem.beta,
            semantics=self.semantics,
        )


@register("fed_minavg_fast")
class FedMinAvgFastScheduler(Scheduler):
    """Vectorised Fed-MinAvg on affine time curves.

    Affine coefficients come from a secant spanning the whole
    allocation range — one shard to ``n_slots`` shards — on the
    problem's curves (or the first/last matrix columns). This is exact
    whenever the underlying profile is affine (the paper's step-2
    regression is); for clamped/non-affine profiles the full-range
    secant captures the average growth rate, where a narrow two-shard
    secant can sit entirely inside a flat clamped region and
    mis-declare a slow device free.
    """

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        d = float(problem.shard_size)
        span = max(problem.n_slots, 2)
        if problem.time_curves is not None:
            t1 = np.array(
                [c(d) for c in problem.time_curves], dtype=np.float64
            )
            t2 = np.array(
                [c(span * d) for c in problem.time_curves],
                dtype=np.float64,
            )
            comm = problem.comm_costs
        else:
            rows = problem.user_rows()
            t1 = problem.time_cost[rows, 0]
            t2 = (
                problem.time_cost[rows, -1]
                if problem.n_slots > 1
                else 2.0 * t1
            )
            comm = None  # folded into the matrix
        slopes = np.maximum((t2 - t1) / ((span - 1) * d), 0.0)
        intercepts = np.maximum(t1 - slopes * d, 0.0)
        counts = fed_minavg_affine(
            intercepts,
            slopes,
            problem.classes_or_default(),
            problem.total_shards,
            problem.shard_size,
            problem.num_classes,
            problem.alpha,
            beta=problem.beta,
            capacities=problem.effective_capacities(),
            comm_costs=comm,
        )
        return self._finish(
            problem, counts, alpha=problem.alpha, beta=problem.beta
        )
