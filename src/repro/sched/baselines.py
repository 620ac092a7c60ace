"""Baseline schedulers from the paper's evaluation (Sec. VII).

* **Equal** — every user gets the same share, the FedAvg layout.
* **Random** — a uniformly random composition of the shards.
* **Proportional** — shares proportional to "the processing power
  measured by the mean CPU frequencies per core".

Each solver returns per-user shard counts and is capacity-oblivious,
but every registered scheduler must respect ``problem.capacities``.
The registered classes therefore pass the allocation through
:func:`repair_to_capacities`: when (and only when) it violates a cap,
the overflow moves to the slack user with the cheapest marginal time
cost — a deterministic repair that leaves capacity-feasible
allocations untouched.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
from numpy.typing import ArrayLike

from ..device.specs import DeviceSpec
from .base import Assignment, Scheduler, SchedulingProblem
from .registry import register

__all__ = [
    "EqualScheduler",
    "RandomScheduler",
    "ProportionalScheduler",
    "equal_schedule",
    "random_schedule",
    "proportional_schedule",
    "mean_cpu_freq_per_core",
    "repair_to_capacities",
]


def _spread_remainder(base: np.ndarray, total: int) -> np.ndarray:
    """Adjust an integer allocation to sum exactly to ``total`` by
    adding/removing single shards, largest users first."""
    base = base.astype(np.int64)
    drift = total - int(base.sum())
    order = np.argsort(-base)
    i = 0
    n = len(base)
    while drift != 0:
        j = order[i % n]
        if drift > 0:
            base[j] += 1
            drift -= 1
        elif base[j] > 0:
            base[j] -= 1
            drift += 1
        i += 1
    return base


def equal_schedule(n_users: int, total_shards: int) -> np.ndarray:
    """FedAvg-style equal split (remainder on the first users)."""
    if n_users <= 0 or total_shards <= 0:
        raise ValueError("n_users and total_shards must be positive")
    base = total_shards // n_users
    counts = np.full(n_users, base, dtype=np.int64)
    counts[: total_shards - base * n_users] += 1
    return counts


def random_schedule(
    n_users: int,
    total_shards: int,
    rng: Union[np.random.Generator, int],
) -> np.ndarray:
    """Uniformly random partition: each shard lands on a random user.

    ``rng`` is an explicit Generator or an integer seed — never the
    global numpy state, so identically-seeded runs are reproducible
    regardless of what else has drawn random numbers in the process.
    """
    if n_users <= 0 or total_shards <= 0:
        raise ValueError("n_users and total_shards must be positive")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    counts = rng.multinomial(total_shards, np.full(n_users, 1.0 / n_users))
    return counts.astype(np.int64)


def mean_cpu_freq_per_core(spec: DeviceSpec) -> float:
    """Mean max frequency per core across a device's clusters — the
    paper's Proportional heuristic's notion of processing power."""
    total_cores = sum(c.n_cores for c in spec.clusters)
    weighted = sum(c.n_cores * c.freq_max_ghz for c in spec.clusters)
    return weighted / total_cores


def proportional_schedule(
    specs: Sequence[DeviceSpec],
    total_shards: int,
    weights: Optional[ArrayLike] = None,
) -> np.ndarray:
    """Shares proportional to mean CPU frequency per core.

    ``weights`` overrides the frequency heuristic with arbitrary
    processing-power estimates (used by ablations).
    """
    if total_shards <= 0:
        raise ValueError("total_shards must be positive")
    if weights is None:
        weights = [mean_cpu_freq_per_core(s) for s in specs]
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("need at least one weight")
    if (w <= 0).any():
        raise ValueError("weights must be positive")
    raw = w / w.sum() * total_shards
    return _spread_remainder(np.floor(raw), total_shards)


def repair_to_capacities(
    counts: np.ndarray,
    capacities: np.ndarray,
    time_cost: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Move shards off over-cap users onto the cheapest slack users.

    No-op when the allocation already fits. Receivers are chosen by the
    smallest time cost of their *next* shard (lowest index on ties), so
    the repair is deterministic and biased toward fast devices.
    ``rows`` maps users to ``time_cost`` rows (one row per user when
    omitted; see :meth:`SchedulingProblem.user_rows`).
    """
    counts = np.asarray(counts, dtype=np.int64).copy()
    caps = np.asarray(capacities, dtype=np.int64)
    overflow = int(np.maximum(counts - caps, 0).sum())
    if overflow == 0:
        return counts
    counts = np.minimum(counts, caps)
    if rows is None:
        rows = np.arange(counts.size)
    while overflow > 0:
        slack = np.flatnonzero(counts < caps)
        if slack.size == 0:
            raise ValueError(
                "infeasible: total capacity below the allocation"
            )
        marginal = np.array(
            [float(time_cost[rows[j], counts[j]]) for j in slack]
        )
        j = int(slack[int(np.argmin(marginal))])
        counts[j] += 1
        overflow -= 1
    return counts


def _fit_caps(problem: SchedulingProblem, counts: np.ndarray) -> np.ndarray:
    """Repair a baseline allocation to the problem's capacities."""
    return repair_to_capacities(
        counts,
        problem.effective_capacities(),
        problem.time_cost,
        problem.user_rows(),
    )


@register("equal")
class EqualScheduler(Scheduler):
    """FedAvg-style equal split (remainder on the first users)."""

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        counts = equal_schedule(problem.n_users, problem.total_shards)
        return self._finish(problem, _fit_caps(problem, counts))


@register("random")
class RandomScheduler(Scheduler):
    """Uniformly random composition, reproducible from an explicit seed.

    The RNG is resolved as: problem's ``rng`` field (Generator or seed)
    first, then this scheduler's ``seed`` — never global numpy state.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        rng = problem.generator(fallback_seed=self.seed)
        counts = random_schedule(problem.n_users, problem.total_shards, rng)
        return self._finish(problem, _fit_caps(problem, counts))


@register("proportional")
class ProportionalScheduler(Scheduler):
    """Shares proportional to processing power.

    Uses ``problem.weights`` (the paper's mean-CPU-frequency-per-core
    heuristic, filled in by the testbed builders); without weights the
    first-shard *speed* ``1 / C[j, 0]`` stands in as the power estimate.
    """

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        if problem.weights is not None:
            weights = np.asarray(problem.weights, dtype=np.float64)
        else:
            first = np.maximum(
                problem.time_cost[problem.user_rows(), 0], 1e-12
            )
            weights = 1.0 / first
        counts = proportional_schedule(
            (), problem.total_shards, weights=weights
        )
        return self._finish(problem, _fit_caps(problem, counts))
