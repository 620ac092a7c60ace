"""Core abstractions of the ``repro.sched`` scheduler subsystem.

The paper's algorithms (Fed-LBAP, Fed-MinAvg), the Sec.-VII baselines
and the related-work additions (OLAR, MinEnergy) all answer the same
question — *how many data shards does each user train this round?*
Each module holds a plain solver returning an int64 count array and
the registered class that wraps it. This module gives them one shape:

* :class:`SchedulingProblem` — the full instance a scheduler may
  consult: time/energy cost matrices (``C[j, k]`` = cost of ``k+1``
  shards; one row per user, or per device class with ``class_id``
  mapping users to rows), the shard budget, capacities, non-IID class sets,
  P2 weights and an RNG. Every field a given algorithm does not use is
  simply ignored by it.
* :class:`Assignment` — the shard counts plus the *predicted* round
  makespan and energy under the problem's cost model, so schedulers are
  comparable on a common yardstick before any simulation runs.
* :class:`Scheduler` — the ABC every algorithm implements
  (``schedule(problem) -> Assignment``); concrete classes self-register
  via :func:`repro.sched.registry.register`.
* :func:`check_counts` — the one allocation check every solver and
  :meth:`Scheduler._finish` run; :func:`evaluate_makespan` scores an
  allocation against per-user time curves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "SchedulingProblem",
    "Assignment",
    "Scheduler",
    "check_counts",
    "RoundCost",
    "evaluate_makespan",
]


def check_counts(
    counts: ArrayLike,
    total_shards: int,
    capacities: Optional[ArrayLike] = None,
) -> np.ndarray:
    """Validate a shard allocation and return it as an int64 array.

    Rejects anything but a 1-D, non-negative allocation of exactly
    ``total_shards`` shards that keeps every user within its capacity.
    """
    out = np.asarray(counts, dtype=np.int64)
    if out.ndim != 1:
        raise ValueError("shard_counts must be 1-D")
    if (out < 0).any():
        raise ValueError("shard counts must be non-negative")
    allocated = int(out.sum())
    if allocated != total_shards:
        raise ValueError(
            f"schedule allocates {allocated} shards, "
            f"expected {total_shards}"
        )
    if capacities is not None:
        caps = np.asarray(capacities, dtype=np.int64)
        if caps.shape != out.shape:
            raise ValueError("capacities length must match users")
        over = np.flatnonzero(out > caps)
        if over.size:
            raise ValueError(
                f"users {over.tolist()} exceed their shard capacity"
            )
    return out


@dataclass
class SchedulingProblem:
    """One scheduling instance: cost model + budget + constraints.

    Attributes
    ----------
    time_cost:
        ``(n_rows, s)`` matrix; ``time_cost[r, k]`` is the seconds a
        user of row ``r`` needs for ``k+1`` shards this round (compute
        plus one model push/pull). Rows non-decreasing (Property 1).
        Without ``class_id`` there is one row per user.
    energy_cost:
        Optional ``(n_rows, s)`` matrix of Joules, same convention.
        Required by energy-aware schedulers (MinEnergy).
    total_shards:
        The D of Eq. (3): shards to allocate in full.
    shard_size:
        Samples per shard.
    capacities:
        Optional per-user shard caps ``C_j`` (storage/battery limits).
    user_classes:
        Optional per-user class sets ``U_j`` for non-IID instances;
        defaults to "every user holds every class" (IID reading).
    num_classes:
        K, classes in the test set.
    alpha, beta:
        Eq.-(6) time/accuracy trade-off weights (P2 schedulers only).
    time_curves, comm_costs:
        Optional raw per-user ``T_j(n_samples)`` callables and one-off
        communication seconds. Curve-based schedulers (Fed-MinAvg) use
        these verbatim so their output is bit-identical to a direct
        solver call; matrix-based schedulers ignore them.
    weights:
        Optional per-user processing-power estimates for the
        Proportional baseline (e.g. mean CPU frequency per core).
    makespan_cap_s:
        Optional deadline for energy-minimising schedulers: cells whose
        time exceeds the cap are infeasible.
    rng:
        Generator or integer seed consumed by randomised schedulers;
        an explicit value makes runs reproducible end to end.
    class_id:
        Optional ``(n_users,)`` row index into the cost matrices: user
        ``j``'s costs are row ``class_id[j]``. Fleet cohorts share a
        handful of device classes, so their matrices hold one row per
        class and stay ``n_classes x s`` however large the cohort is.
        Read per-user values through :meth:`user_rows` or the
        ``dense_*`` accessors, never by indexing rows with ``j``.
    """

    time_cost: np.ndarray
    total_shards: int
    shard_size: int = 1
    energy_cost: Optional[np.ndarray] = None
    capacities: Optional[np.ndarray] = None
    user_classes: Optional[Sequence[Tuple[int, ...]]] = None
    num_classes: int = 10
    alpha: float = 0.0
    beta: float = 0.0
    time_curves: Optional[Sequence[Callable[[float], float]]] = None
    comm_costs: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    makespan_cap_s: Optional[float] = None
    rng: Union[np.random.Generator, int, None] = None
    meta: Dict[str, object] = field(default_factory=dict)
    class_id: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # private copy: schedulers share one problem instance, so the
        # matrices are frozen after validation — an adapter mutating
        # its input would silently skew every scheduler run after it
        self.time_cost = np.array(self.time_cost, dtype=np.float64)
        if self.class_id is not None:
            self.class_id = np.array(self.class_id, dtype=np.int64)
        self.validate()
        self.time_cost.flags.writeable = False
        if self.energy_cost is not None:
            self.energy_cost.flags.writeable = False
        if self.class_id is not None:
            self.class_id.flags.writeable = False
        # per-user expansions of class rows, built on first request
        self._dense: Dict[str, np.ndarray] = {}

    # -- shape helpers ----------------------------------------------------
    @property
    def n_users(self) -> int:
        if self.class_id is not None:
            return int(self.class_id.shape[0])
        return int(self.time_cost.shape[0])

    @property
    def n_slots(self) -> int:
        """Columns of the cost matrices (max shards any user could take)."""
        return int(self.time_cost.shape[1])

    def effective_capacities(self) -> np.ndarray:
        """Per-user caps clipped to the matrix width (``n_slots``)."""
        caps = np.full(self.n_users, self.n_slots, dtype=np.int64)
        if self.capacities is not None:
            caps = np.minimum(
                caps, np.asarray(self.capacities, dtype=np.int64)
            )
        return caps

    @property
    def nbytes(self) -> int:
        """Bytes held by the instance's arrays, including any per-user
        expansion a ``dense_*`` accessor has cached."""
        arrays = (
            self.time_cost,
            self.energy_cost,
            self.class_id,
            self.capacities,
            self.comm_costs,
            self.weights,
            *self._dense.values(),
        )
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

    def user_rows(self) -> np.ndarray:
        """Cost-matrix row of every user (``arange`` without classes)."""
        if self.class_id is None:
            return np.arange(self.n_users)
        return self.class_id

    def dense_time_cost(self) -> np.ndarray:
        """The ``(n_users, s)`` time matrix, one row per user.

        With ``class_id`` the expansion is built on first request and
        kept, so only schedulers that need it pay its memory.
        """
        return self._per_user("time", self.time_cost)

    def dense_energy_cost(self) -> Optional[np.ndarray]:
        """The ``(n_users, s)`` energy matrix (None if absent)."""
        if self.energy_cost is None:
            return None
        return self._per_user("energy", self.energy_cost)

    def _per_user(self, key: str, matrix: np.ndarray) -> np.ndarray:
        if self.class_id is None:
            return matrix
        dense = self._dense.get(key)
        if dense is None:
            dense = matrix[self.class_id]
            dense.flags.writeable = False
            self._dense[key] = dense
        return dense

    def classes_or_default(self) -> Sequence[Tuple[int, ...]]:
        """Class sets, defaulting to full coverage for every user."""
        if self.user_classes is not None:
            return self.user_classes
        full = tuple(range(self.num_classes))
        return [full] * self.n_users

    def generator(self, fallback_seed: int = 0) -> np.random.Generator:
        """Materialise the problem's RNG (seed, Generator, or default)."""
        if isinstance(self.rng, np.random.Generator):
            return self.rng
        if self.rng is not None:
            return np.random.default_rng(int(self.rng))
        return np.random.default_rng(fallback_seed)

    # -- validation -------------------------------------------------------
    def validate(self) -> None:
        """Reject malformed instances with actionable messages."""
        if self.time_cost.ndim != 2:
            raise ValueError("time_cost must be a 2-D (users x shards) matrix")
        if self.class_id is not None and self.class_id.ndim != 1:
            raise ValueError("class_id must be a 1-D array")
        if self.n_users == 0:
            raise ValueError("need at least one user (empty user list)")
        if self.n_slots == 0:
            raise ValueError("cost matrix has zero shard columns")
        if self.total_shards <= 0:
            raise ValueError("total_shards must be positive")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.class_id is not None:
            rows = self.time_cost.shape[0]
            if self.class_id.min() < 0 or self.class_id.max() >= rows:
                raise ValueError(
                    f"class_id entries must index the {rows} cost rows"
                )
        if not np.isfinite(self.time_cost).all():
            raise ValueError("time_cost contains NaN/inf entries")
        if (self.time_cost < 0).any():
            raise ValueError("time_cost contains negative entries")
        for name in ("energy_cost",):
            m = getattr(self, name)
            if m is None:
                continue
            m = np.array(m, dtype=np.float64)
            if m.shape != self.time_cost.shape:
                raise ValueError(f"{name} shape must match time_cost")
            if not np.isfinite(m).all():
                raise ValueError(f"{name} contains NaN/inf entries")
            if (m < 0).any():
                raise ValueError(f"{name} contains negative entries")
            setattr(self, name, m)
        for name in ("capacities", "comm_costs", "weights", "time_curves"):
            v = getattr(self, name)
            if v is not None and (np.ndim(v) != 1 or len(v) != self.n_users):
                raise ValueError(
                    f"{name} must hold one entry per user ({self.n_users})"
                )
        caps = self.effective_capacities()
        if (caps < 0).any():
            raise ValueError("capacities must be non-negative")
        if int(caps.sum()) < self.total_shards:
            raise ValueError(
                "infeasible: total capacity "
                f"{int(caps.sum())} below the requested "
                f"{self.total_shards} shards"
            )
        if self.user_classes is not None and len(self.user_classes) != self.n_users:
            raise ValueError("one class set per user required")

    # -- evaluation -------------------------------------------------------
    def predicted_makespan(self, shard_counts: np.ndarray) -> float:
        """Round makespan implied by the time matrix for an allocation."""
        counts = np.asarray(shard_counts, dtype=np.int64)
        active = np.flatnonzero(counts > 0)
        if active.size == 0:
            return 0.0
        rows = self.user_rows()[active]
        return float(self.time_cost[rows, counts[active] - 1].max())

    def predicted_energy(
        self, shard_counts: np.ndarray
    ) -> Optional[float]:
        """Total Joules implied by the energy matrix (None if absent)."""
        if self.energy_cost is None:
            return None
        counts = np.asarray(shard_counts, dtype=np.int64)
        active = np.flatnonzero(counts > 0)
        rows = self.user_rows()[active]
        # builtin sum: left-to-right in user order, not numpy's
        # pairwise reduction, so totals match per-user accumulation
        return float(sum(self.energy_cost[rows, counts[active] - 1]))


@dataclass
class Assignment:
    """A scheduler's answer, annotated with its predicted cost.

    ``shard_counts[j]`` shards of ``shard_size`` samples go to user
    ``j``; ``predicted_makespan_s`` and ``predicted_energy_j`` are
    evaluated against the *problem's* cost matrices so every scheduler
    is scored on the same model.
    """

    shard_counts: np.ndarray
    shard_size: int
    scheduler: str
    predicted_makespan_s: float
    predicted_energy_j: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def samples_per_user(self) -> np.ndarray:
        return self.shard_counts * self.shard_size


class Scheduler(ABC):
    """A shard-allocation algorithm.

    Subclasses set ``name`` (the registry key fills it in when the
    class is registered) and implement :meth:`schedule`. A scheduler
    must allocate *exactly* ``problem.total_shards`` shards and respect
    ``problem.effective_capacities()``; the shared property tests
    enforce both for every registered implementation.
    """

    #: registry key; assigned by @register
    name: str = "unnamed"

    @abstractmethod
    def schedule(self, problem: SchedulingProblem) -> Assignment:
        """Solve one instance."""

    def _finish(
        self,
        problem: SchedulingProblem,
        counts: np.ndarray,
        **meta: object,
    ) -> Assignment:
        """Validate totals/capacities and score the allocation."""
        counts = check_counts(
            counts, problem.total_shards, problem.effective_capacities()
        )
        return Assignment(
            shard_counts=counts,
            shard_size=problem.shard_size,
            scheduler=self.name,
            predicted_makespan_s=problem.predicted_makespan(counts),
            predicted_energy_j=problem.predicted_energy(counts),
            meta=dict(meta),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


@dataclass(frozen=True)
class RoundCost:
    """Evaluated cost of one synchronous round under an allocation."""

    per_user_s: np.ndarray
    makespan_s: float
    mean_s: float
    total_device_seconds: float

    @property
    def straggler_gap(self) -> float:
        """Extra time the slowest participant needs over the mean —
        the paper's straggler metric (Observation 4)."""
        return self.makespan_s - self.mean_s

    @property
    def parallel_efficiency(self) -> float:
        """mean/makespan in (0, 1]: 1.0 means perfectly balanced."""
        if self.makespan_s == 0:
            return 1.0
        return self.mean_s / self.makespan_s


def evaluate_makespan(
    samples_per_user: ArrayLike,
    time_curves: Sequence[Callable[[float], float]],
    comm_costs: Optional[ArrayLike] = None,
) -> RoundCost:
    """Evaluate an allocation against per-user time curves.

    Parameters
    ----------
    samples_per_user:
        Samples per user this round (0 = the user sits the round out).
    time_curves:
        One callable per user mapping sample count -> seconds (profiled
        curves or simulator oracles).
    comm_costs:
        Optional per-user communication seconds added for participants
        (users with zero samples neither compute nor communicate).
    """
    samples = np.asarray(samples_per_user)
    n = int(samples.shape[0])
    if len(time_curves) != n:
        raise ValueError("one time curve per user required")
    comm = None if comm_costs is None else np.asarray(comm_costs, float)
    if comm is not None and comm.shape != (n,):
        raise ValueError("one comm cost per user required")
    per_user = np.zeros(n)
    for j in range(n):
        if samples[j] > 0:
            t = float(time_curves[j](float(samples[j])))
            if comm is not None:
                t += float(comm[j])
            per_user[j] = t
    participants = np.flatnonzero(samples > 0)
    if participants.size == 0:
        return RoundCost(per_user, 0.0, 0.0, 0.0)
    active = per_user[participants]
    return RoundCost(
        per_user_s=per_user,
        makespan_s=float(active.max()),
        mean_s=float(active.mean()),
        total_device_seconds=float(active.sum()),
    )
