"""Fleet-scale round runner over the columnar store.

:class:`FleetRunner` drives scheduler-planned FedAvg-style rounds over
a :class:`~repro.fleet.store.FleetStore` population — eligibility,
cohort sampling, cost-matrix generation, solving, battery drain and
idle accounting are all vectorized array operations, so a full round
over 10⁶ simulated devices costs milliseconds of host time.

It narrates on the same :class:`~repro.engine.events.EventBus` the
:class:`~repro.engine.engine.RoundEngine` uses, with one scale
concession: once the active cohort outgrows ``detail_threshold`` the
per-client ``ClientDispatched``/``ClientFinished`` narration (and the
cohort-sized ``ScheduleComputed`` payload) is replaced by a single
:class:`~repro.engine.events.CohortAccounted` aggregate per round —
``repro.obs`` folds either shape into the same ledgers.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..engine.events import (
    CohortAccounted,
    EventBus,
    RoundCompleted,
    ScheduleComputed,
)
from ..obs.prof import PROFILER
from ..sched.base import Scheduler
from ..sched.costs import fleet_problem
from ..sched.registry import get_scheduler
from .sampling import CohortSampler
from .store import FleetStore

__all__ = ["FleetRoundRecord", "FleetRunner"]


@dataclass(frozen=True)
class FleetRoundRecord:
    """Bookkeeping for one fleet round.

    ``build_ms``/``solve_ms``/``round_ms`` are host milliseconds
    (``perf_counter``); everything else is virtual simulation state.
    """

    round_idx: int
    scheduler: str
    eligible_count: int
    cohort_size: int
    #: cohort members actually assigned shards (participants)
    active_count: int
    makespan_s: float
    energy_j: float
    mean_battery_soc: float
    build_ms: float
    solve_ms: float
    round_ms: float


class FleetRunner:
    """Scheduler-in-the-loop round driver for a columnar fleet.

    Parameters
    ----------
    fleet:
        The population (mutated in place: batteries drain).
    scheduler:
        Registry name or :class:`~repro.sched.base.Scheduler` planning
        each round's shard allocation over the cohort.
    sampler, cohort_size:
        Optional per-round cohort sampling (both or neither). Without
        them every eligible device joins the instance — fine up to
        ~10³, but solvers are O(cohort²) or worse, so at fleet scale a
        cohort is how rounds stay sub-second.
    shard_size, total_shards:
        Scheduling granularity; the shard budget defaults to the data
        the cohort holds (capped so the instance stays well-posed).
    min_soc:
        Battery floor for eligibility (0 disables the gate).
    wire_mb:
        Model wire size per direction for comm-time accounting.
    detail_threshold:
        Largest active cohort still narrated per client; beyond it one
        :class:`~repro.engine.events.CohortAccounted` event per round.
    """

    def __init__(
        self,
        fleet: FleetStore,
        scheduler: Union[str, Scheduler] = "proportional",
        sampler: Optional[CohortSampler] = None,
        cohort_size: Optional[int] = None,
        shard_size: int = 500,
        total_shards: Optional[int] = None,
        min_soc: float = 0.0,
        local_epochs: int = 1,
        aggregation_s: float = 0.0,
        wire_mb: float = 1.0,
        detail_threshold: int = 256,
        with_energy: bool = True,
        bus: Optional[EventBus] = None,
    ) -> None:
        if (sampler is None) != (cohort_size is None):
            raise ValueError(
                "sampler and cohort_size must be given together"
            )
        if cohort_size is not None and cohort_size <= 0:
            raise ValueError("cohort_size must be positive")
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        if detail_threshold < 0:
            raise ValueError("detail_threshold must be non-negative")
        self.fleet = fleet
        self.scheduler: Scheduler = (
            get_scheduler(scheduler)
            if isinstance(scheduler, str)
            else scheduler
        )
        self.sampler = sampler
        self.cohort_size = cohort_size
        self.shard_size = shard_size
        self.total_shards = total_shards
        self.min_soc = min_soc
        self.local_epochs = local_epochs
        self.aggregation_s = aggregation_s
        self.wire_mb = wire_mb
        self.detail_threshold = detail_threshold
        self.with_energy = with_energy
        self.bus = bus or EventBus()
        #: virtual clock (seconds), advanced by each round's barrier
        self.clock_s = 0.0
        self.round_idx = 0
        self.records: List[FleetRoundRecord] = []

    # -- round phases -----------------------------------------------------
    def eligible_indices(self) -> np.ndarray:
        """Alive devices with data whose charge clears ``min_soc``."""
        mask = self.fleet.eligible_mask(self.min_soc)
        mask &= self.fleet.data_size > 0
        return np.flatnonzero(mask)

    def _draw_cohort(self, eligible: np.ndarray) -> np.ndarray:
        if self.sampler is None or self.cohort_size is None:
            return eligible
        return self.sampler.sample(
            eligible,
            self.cohort_size,
            data_size=self.fleet.data_size[eligible],
        )

    def run_round(self) -> FleetRoundRecord:
        """Run one barrier round; returns its record (also appended to
        :attr:`records`)."""
        t_round = _time.perf_counter()
        with PROFILER.phase("cohort"):
            eligible = self.eligible_indices()
            if eligible.size == 0:
                raise RuntimeError(
                    "no eligible devices (all dead, drained, or data-less)"
                )
            cohort = self._draw_cohort(eligible)
        round_idx = self.round_idx + 1

        problem = fleet_problem(
            self.fleet,
            cohort=cohort,
            shard_size=self.shard_size,
            total_shards=self.total_shards,
            with_energy=self.with_energy,
        )
        build_ms = float(problem.meta["build_ms"])  # type: ignore[arg-type]
        # perf_counter (monotonic): solver runtime is host cost, not
        # virtual time — same discipline as EngineSchedulerBinding
        t_solve = _time.perf_counter()
        with PROFILER.phase("solve"):
            assignment = self.scheduler.schedule(problem)
        solve_ms = (_time.perf_counter() - t_solve) * 1e3

        with PROFILER.phase("dispatch"):
            counts = np.asarray(assignment.shard_counts, dtype=np.int64)
            samples = counts * np.int64(self.shard_size)
            active = np.flatnonzero(samples > 0)
            idx = cohort[active]
            compute_s, energy_j = self.fleet.run_compute(
                idx, samples[active], epochs=self.local_epochs
            )
            comm_s = self.fleet.comm_time_s(idx, self.wire_mb)
            total_s = compute_s + comm_s
            makespan_s = float(total_s.max()) if total_s.size else 0.0
            mean_s = float(total_s.mean()) if total_s.size else 0.0
            round_energy = float(energy_j.sum())
            soc = self.fleet.soc(idx)
            mean_soc = float(soc.mean()) if soc.size else 0.0

        with PROFILER.phase("narrate"):
            self._narrate(
                round_idx,
                eligible_count=int(eligible.size),
                idx=idx,
                samples=samples[active],
                compute_s=compute_s,
                comm_s=comm_s,
                energy_j=energy_j,
                soc=soc,
                assignment_counts=counts,
                predicted_makespan_s=assignment.predicted_makespan_s,
                predicted_energy_j=assignment.predicted_energy_j,
                makespan_s=makespan_s,
                solve_ms=solve_ms,
            )

        self._idle_to_barrier(idx, total_s, makespan_s)
        self.clock_s += makespan_s + self.aggregation_s
        self.round_idx = round_idx
        self.bus.emit(
            RoundCompleted(
                round_idx=round_idx,
                makespan_s=makespan_s,
                mean_time_s=mean_s,
                participant_count=int(idx.size),
                accuracy=None,
                time_s=self.clock_s,
            )
        )
        record = FleetRoundRecord(
            round_idx=round_idx,
            scheduler=self.scheduler.name,
            eligible_count=int(eligible.size),
            cohort_size=int(cohort.size),
            active_count=int(idx.size),
            makespan_s=makespan_s,
            energy_j=round_energy,
            mean_battery_soc=mean_soc,
            build_ms=build_ms,
            solve_ms=solve_ms,
            round_ms=(_time.perf_counter() - t_round) * 1e3,
        )
        self.records.append(record)
        return record

    def run(self, rounds: int) -> List[FleetRoundRecord]:
        """Run ``rounds`` consecutive rounds; returns their records."""
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        return [self.run_round() for _ in range(rounds)]

    # -- internals --------------------------------------------------------
    def _narrate(
        self,
        round_idx: int,
        eligible_count: int,
        idx: np.ndarray,
        samples: np.ndarray,
        compute_s: np.ndarray,
        comm_s: np.ndarray,
        energy_j: np.ndarray,
        soc: np.ndarray,
        assignment_counts: np.ndarray,
        predicted_makespan_s: float,
        predicted_energy_j: Optional[float],
        makespan_s: float,
        solve_ms: float,
    ) -> None:
        """Per-client events below the detail threshold, one aggregate
        above it — never both (the energy ledger would double-count)."""
        if int(idx.size) <= self.detail_threshold:
            self.bus.emit(
                ScheduleComputed(
                    round_idx=round_idx,
                    scheduler=self.scheduler.name,
                    shard_counts=tuple(
                        int(k) for k in assignment_counts
                    ),
                    shard_size=self.shard_size,
                    predicted_makespan_s=predicted_makespan_s,
                    predicted_energy_j=predicted_energy_j,
                    time_s=self.clock_s,
                    solve_ms=solve_ms,
                )
            )
            self.bus.emit_clients(
                round_idx,
                idx,
                samples,
                self.clock_s,
                compute_s,
                comm_s,
                energy_j=energy_j,
                battery_soc=soc,
            )
        else:
            self.bus.emit(
                CohortAccounted(
                    round_idx=round_idx,
                    cohort_size=int(idx.size),
                    eligible_count=eligible_count,
                    energy_j=float(energy_j.sum()),
                    mean_battery_soc=(
                        float(soc.mean()) if soc.size else None
                    ),
                    time_s=self.clock_s + makespan_s,
                )
            )

    def _idle_to_barrier(
        self, idx: np.ndarray, total_s: np.ndarray, makespan_s: float
    ) -> None:
        """Everyone alive drains idle power to the aggregation barrier:
        participants for the slack after their own work, bystanders for
        the whole round — one vectorized pass each."""
        wait_s = makespan_s - total_s + self.aggregation_s
        waiting = np.flatnonzero(wait_s > 0)
        if waiting.size:
            self.fleet.idle(idx[waiting], wait_s[waiting])
        bystander = self.fleet.alive.copy()
        bystander[idx] = False
        others = np.flatnonzero(bystander)
        if others.size:
            self.fleet.idle(
                others,
                np.full(
                    others.shape,
                    makespan_s + self.aggregation_s,
                    dtype=np.float64,
                ),
            )
