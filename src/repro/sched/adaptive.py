"""Closed-loop adaptive scheduling.

The paper computes one schedule from offline profiles. In deployment,
profiles drift — a device that starts throttling after sustained rounds
gets slower, a cooled device gets faster — and offline profiles can
simply be wrong. :class:`AdaptiveScheduler` closes the loop:

1. schedule the next round with Fed-LBAP over the *current* per-user
   time curves;
2. observe each participant's realized round time;
3. fold the observation into that user's online RLS profile
   (:class:`repro.profiling.online.OnlineTimeProfile`) and go to 1.

Users that received no data this round produce no observation — their
profile keeps its prior, and because Fed-LBAP only starves users whose
predicted cost is high, a mistakenly-written-off device can be given a
probe allocation every ``probe_every`` rounds so the loop cannot lock
itself out of a recovered device.

The scheduler is stateful (each round changes its profiles), so it is
deliberately not a registered :class:`~repro.sched.base.Scheduler`,
whose ``schedule()`` must be a pure function of the problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.cost import build_cost_matrix
from ..profiling.online import OnlineTimeProfile
from .lbap import fed_lbap

__all__ = ["AdaptiveScheduler"]


@dataclass
class AdaptiveScheduler:
    """Fed-LBAP re-run every round over online-updated profiles.

    Parameters
    ----------
    initial_curves:
        Per-user starting time curves (offline profiles; may be wrong).
    total_shards, shard_size:
        The per-round workload (P1's D).
    forgetting:
        RLS forgetting factor for the online profiles.
    probe_every:
        Give every zero-allocation user one probe shard each
        ``probe_every`` rounds (0 disables probing).
    comm_costs:
        Optional per-user communication seconds (constant per round).
    """

    initial_curves: Sequence[Callable[[float], float]]
    total_shards: int
    shard_size: int
    forgetting: float = 0.9
    probe_every: int = 3
    comm_costs: Optional[Sequence[float]] = None
    profiles: List[OnlineTimeProfile] = field(init=False)
    round_idx: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.total_shards <= 0 or self.shard_size <= 0:
            raise ValueError("total_shards and shard_size must be positive")
        if self.probe_every < 0:
            raise ValueError("probe_every must be non-negative")
        if not self.initial_curves:
            raise ValueError("need at least one user curve")
        self.profiles = [
            OnlineTimeProfile(
                forgetting=self.forgetting, initial_curve=curve
            )
            for curve in self.initial_curves
        ]

    @property
    def n_users(self) -> int:
        return len(self.profiles)

    def next_schedule(self) -> np.ndarray:
        """Shard counts for the upcoming round from the current
        profiles."""
        curves = [p.curve() for p in self.profiles]
        cost = build_cost_matrix(
            curves,
            self.total_shards,
            self.shard_size,
            comm_costs=self.comm_costs,
        )
        counts, _ = fed_lbap(cost, self.total_shards)
        if self.probe_every and self.round_idx % self.probe_every == (
            self.probe_every - 1
        ):
            counts = self._with_probes(counts)
        return counts

    def _with_probes(self, counts: np.ndarray) -> np.ndarray:
        """Divert a few shards to each starved user so its profile gets
        fresh observations.

        The probe size cycles (1, 2, 3 shards) across probe rounds:
        observations at a single size can only identify the profile's
        intercept, so varying the size is what lets RLS re-learn the
        slope of a device written off by a bad prior.
        """
        counts = counts.copy()
        probe = 1 + (self.round_idx // max(self.probe_every, 1)) % 3
        for j in range(self.n_users):
            # Top up any starved-or-stuck allocation to the probe size;
            # a user pinned at one tiny size yields observations at a
            # single x, which cannot identify its curve's slope.
            while counts[j] < probe:
                donor = int(np.argmax(counts))
                if donor == j or counts[donor] <= 1:
                    break
                counts[donor] -= 1
                counts[j] += 1
        return counts

    def observe_round(
        self,
        counts: np.ndarray,
        times_s: Sequence[float],
    ) -> None:
        """Fold the realized per-user round times into the profiles.

        ``times_s[j]`` is ignored for users with zero allocation (no
        signal). Communication costs, if configured, are subtracted so
        the profile models compute time only.
        """
        if len(counts) != self.n_users:
            raise ValueError("schedule user count mismatch")
        if len(times_s) != self.n_users:
            raise ValueError("one time per user required")
        samples = np.asarray(counts) * self.shard_size
        for j in range(self.n_users):
            if samples[j] <= 0:
                continue
            t = float(times_s[j])
            if self.comm_costs is not None:
                t = max(t - float(self.comm_costs[j]), 0.0)
            self.profiles[j].observe(float(samples[j]), t)
        self.round_idx += 1

    def predicted_makespan(self, counts: np.ndarray) -> float:
        """What the current profiles expect the allocation to cost."""
        samples = np.asarray(counts) * self.shard_size
        return max(
            self.profiles[j].predict(float(s))
            + (self.comm_costs[j] if self.comm_costs is not None else 0.0)
            for j, s in enumerate(samples)
            if s > 0
        )
