"""The unified round engine behind every FL simulation mode.

One :class:`RoundEngine` owns the simulation substrates — per-user
data, the device/thermal/battery simulators, the network links, the
scratch model and the shared RNG — and exposes three drivers over them:

* :meth:`RoundEngine.run_sync_round` — synchronous FedAvg with an
  optional straggler-dropout deadline (the paper's Sec. VII loop);
* :meth:`RoundEngine.run_async` — FedAsync-style event loop with
  staleness-weighted mixing (no round barrier);
* :meth:`RoundEngine.run_gossip_round` — one D-PSGD round of local
  SGD plus doubly-stochastic neighbour averaging.

``FederatedSimulation``, ``AsyncFederatedSimulation`` and
``DecentralizedSimulation`` are thin façades over these drivers; the
per-client dispatch and aggregation loops live only here. Every driver
narrates its work on the engine's :class:`~repro.engine.events.EventBus`
(see :mod:`repro.engine.events` for the taxonomy), which the telemetry
layer folds into structured records.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from ..data.partition import UserData
from ..data.synthetic import Dataset
from ..device.device import MobileDevice
from ..models.network import Sequential
from ..models.zoo import model_wire_mb
from ..network.link import Link
from ..obs.prof import PROFILER
from .aggregation import AggregationStrategy, StalenessWeighted, SyncFedAvg
from .backend import ComputeBackend, DeviceBackend
from .events import (
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    EventBus,
    ModelAggregated,
    RoundCompleted,
    ScheduleComputed,
)
from .execution import LocalTrainingResult, evaluate_accuracy, train_local
from .telemetry import ConvergenceHistory, RoundRecord
from .topology import StarTopology, Topology

if TYPE_CHECKING:
    from ..federated.dropout import DropoutPolicy
    from ..fleet.store import FleetStore
    from ..sched.base import Assignment

__all__ = [
    "AsyncUpdate",
    "CohortSamplerLike",
    "RoundEngine",
    "ParameterServerLike",
    "SchedulerBindingLike",
    "SupportsMix",
]


class ParameterServerLike(Protocol):
    """What the sync driver needs from a parameter server.

    Structural so :mod:`repro.federated.server` can depend on the
    engine rather than the other way around.
    """

    model: Sequential
    round_idx: int

    def global_weights(self) -> np.ndarray: ...


class SchedulerBindingLike(Protocol):
    """What the sync driver needs from a bound round planner (see
    :class:`repro.sched.binding.EngineSchedulerBinding`)."""

    def plan_round(
        self,
        engine: "RoundEngine",
        round_idx: int,
        eligible: Sequence[int],
    ) -> "Assignment": ...


class CohortSamplerLike(Protocol):
    """What the sync driver needs from a cohort sampler (see
    :class:`repro.fleet.sampling.CohortSampler`): a seeded draw of
    ``k`` distinct indices from the eligible set."""

    def sample(
        self,
        eligible: np.ndarray,
        k: int,
        data_size: Optional[np.ndarray] = None,
    ) -> np.ndarray: ...


@runtime_checkable
class SupportsMix(Protocol):
    """An aggregation strategy with a gossip mixing step."""

    name: str

    def mix(self, replicas: np.ndarray) -> np.ndarray: ...


def _solve_ms_of(assignment: "Assignment") -> Optional[float]:
    """Solver runtime a planner recorded on the assignment, if any."""
    value = assignment.meta.get("solve_ms")
    if isinstance(value, (int, float)):
        return float(value)
    return None


@dataclass
class AsyncUpdate:
    """One applied asynchronous update."""

    time_s: float
    user_id: int
    staleness: int
    mix: float
    accuracy: Optional[float]


class RoundEngine:
    """Shared execution core: substrates + event stream + drivers.

    Parameters
    ----------
    dataset, model, users:
        Global dataset, the global model (mutated in place by the sync
        and async drivers; seeds the replicas of the gossip driver) and
        per-user local data.
    strategy:
        The pluggable :class:`AggregationStrategy` the drivers consult.
    topology:
        Communication shape; defaults to a star (parameter server).
    devices, links:
        Optional per-user device simulators and network links for the
        virtual clock (driven through a
        :class:`~repro.engine.backend.DeviceBackend`). Without devices
        or a fleet rounds report zero time.
    dropout:
        Optional deadline-based straggler-dropout policy (sync driver
        only); requires ``devices`` or ``fleet``.
    fleet:
        Optional :class:`~repro.fleet.store.FleetStore` replacing
        ``devices``/``links`` with a columnar population that is its
        own :class:`~repro.engine.backend.ComputeBackend`. Mutually
        exclusive with ``devices``/``links``; must cover exactly one
        device per user.
    cohort_sampler, cohort_size:
        Optional per-round cohort sampling (see
        :mod:`repro.fleet.sampling`): when the eligible set exceeds
        ``cohort_size``, the sync driver schedules only a sampled
        cohort. Either both or neither must be given.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: Sequential,
        users: Sequence[UserData],
        strategy: Optional[AggregationStrategy] = None,
        topology: Optional[Topology] = None,
        devices: Optional[Sequence[MobileDevice]] = None,
        links: Optional[Sequence[Link]] = None,
        dropout: Optional["DropoutPolicy"] = None,
        *,
        batch_size: int = 20,
        local_epochs: int = 1,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        eval_every: int = 1,
        eval_every_updates: int = 5,
        aggregation_s: float = 1.0,
        min_soc: float = 0.0,
        seed: int = 0,
        bus: Optional[EventBus] = None,
        fleet: Optional["FleetStore"] = None,
        cohort_sampler: Optional[CohortSamplerLike] = None,
        cohort_size: Optional[int] = None,
    ) -> None:
        if devices is not None and len(devices) != len(users):
            raise ValueError("one device per user required")
        if links is not None and len(links) != len(users):
            raise ValueError("one link per user required")
        if fleet is not None:
            if devices is not None or links is not None:
                raise ValueError(
                    "fleet and devices/links are mutually exclusive "
                    "(the fleet store is the population)"
                )
            if fleet.n != len(users):
                raise ValueError("one fleet device per user required")
        self.dataset = dataset
        self.model = model
        self.users = list(users)
        if not self.users:
            raise ValueError("need at least one user")
        self.devices = list(devices) if devices is not None else None
        self.links = list(links) if links is not None else None
        self.fleet = fleet
        #: the one device seam every driver goes through; ``None`` when
        #: the engine simulates no hardware (rounds take zero time)
        self.backend: Optional[ComputeBackend] = fleet
        if self.devices is not None:
            self.backend = DeviceBackend(
                self.devices, self.links, model, batch_size
            )
        if dropout is not None and self.backend is None:
            raise ValueError(
                "straggler dropout needs devices (deadlines are defined "
                "over simulated round times)"
            )
        self.dropout = dropout
        if (cohort_sampler is None) != (cohort_size is None):
            raise ValueError(
                "cohort_sampler and cohort_size go together"
            )
        if cohort_size is not None and cohort_size <= 0:
            raise ValueError("cohort_size must be positive")
        self.cohort_sampler = cohort_sampler
        self.cohort_size = cohort_size
        self.strategy = strategy or SyncFedAvg()
        self.topology = topology or StarTopology(len(self.users))
        self.batch_size = batch_size
        self.local_epochs = local_epochs
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.eval_every = eval_every
        self.eval_every_updates = eval_every_updates
        self.aggregation_s = aggregation_s
        self.min_soc = min_soc
        self.bus = bus or EventBus()

        self._scratch = model.clone()
        #: per-user data sizes as one column — the hot paths (battery
        #: gating, dispatch) index this instead of walking UserData
        #: objects
        self._user_sizes = np.array(
            [u.size for u in self.users], dtype=np.int64
        )
        self._rng = np.random.default_rng(seed)
        self.history = ConvergenceHistory()
        self.clock_s = 0.0

        #: bound by the sync façade (structurally typed via
        #: :class:`ParameterServerLike`); the engine never constructs
        #: one so the server module can depend on the engine, not vice
        #: versa.
        self.server: Optional[ParameterServerLike] = None

        #: optional repro.sched planner (structurally typed via
        #: :class:`SchedulerBindingLike`); bound via bind_scheduler so
        #: repro.sched depends on the engine, not vice versa. When set,
        #: each sync round's per-user sample counts come from the
        #: planned assignment.
        self.scheduler_binding: Optional[SchedulerBindingLike] = None
        self._round_samples: Optional[np.ndarray] = None

        # -- async driver state ------------------------------------------
        n = len(self.users)
        self.version = 0
        self.updates: List[AsyncUpdate] = []
        self._pulled_version = [0] * n
        self._start_weights: List[Optional[np.ndarray]] = [None] * n
        self._epoch_start = [0.0] * n
        self._epoch_energy: List[Optional[float]] = [None] * n

        # -- gossip driver state -----------------------------------------
        self.replicas: Optional[np.ndarray] = None
        self.round_idx = 0

    # -- shared substrate helpers ----------------------------------------
    def bind_server(self, server: ParameterServerLike) -> None:
        """Attach the parameter server the sync driver aggregates into."""
        self.server = server

    def bind_scheduler(
        self, binding: Optional[SchedulerBindingLike]
    ) -> None:
        """Attach a per-round shard planner (see
        :class:`repro.sched.binding.EngineSchedulerBinding`); pass
        ``None`` to detach and return to the users' native data sizes."""
        self.scheduler_binding = binding
        self._round_samples = None

    def _client_samples(self, j: int) -> int:
        """Samples user j trains this round: the planned allocation if a
        scheduler is bound, its full local data otherwise."""
        if self._round_samples is not None:
            return int(self._round_samples[j])
        return self.users[j].size

    def battery_soc(self, j: int) -> Optional[float]:
        """User j's current state of charge, or ``None`` without
        devices."""
        if self.backend is None:
            return None
        return float(self.backend.soc(np.array([j]))[0])

    def eligible_clients(self) -> List[int]:
        """Users holding data whose battery clears the participation
        floor, in dispatch order (one vectorized mask per round)."""
        mask = self._user_sizes > 0
        if self.backend is not None:
            mask &= self.backend.eligible_mask(self.min_soc)
        out: List[int] = np.flatnonzero(mask).tolist()
        return out

    def client_compute(
        self, j: int, epochs: int = 1
    ) -> Tuple[float, float]:
        """Advance user j's device through its local workload and return
        ``(compute_seconds, energy_joules)`` — the simulated compute
        time and the battery energy drained (thermal/battery state
        persists). Without devices both are 0.0."""
        if self.backend is None:
            return 0.0, 0.0
        seconds, joules = self.backend.run_compute(
            np.array([j]), np.array([self._client_samples(j)]), epochs
        )
        return float(seconds[0]), float(joules[0])

    def _train_client(
        self, j: int, start_weights: np.ndarray, epochs: int
    ) -> LocalTrainingResult:
        """Local SGD for user j from the given starting weights."""
        indices = self.users[j].indices
        if self._round_samples is not None:
            # a bound scheduler caps this round's training data; the
            # allocation is clamped to the data the user actually holds
            indices = indices[: min(len(indices), self._client_samples(j))]
        x, y = self.dataset.subset(indices)
        self._scratch.set_weights(start_weights)
        return train_local(
            self._scratch,
            x,
            y,
            epochs=epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            rng=self._rng,
        )

    def final_accuracy(self) -> float:
        """Accuracy of the current global model on the test split."""
        return evaluate_accuracy(
            self.model, self.dataset.x_test, self.dataset.y_test
        )

    # -- synchronous driver ----------------------------------------------
    def _sample_cohort(self, eligible: List[int]) -> List[int]:
        """Draw the round's cohort when a sampler is configured and the
        eligible set exceeds the cohort size (identity otherwise)."""
        if (
            self.cohort_sampler is None
            or self.cohort_size is None
            or len(eligible) <= self.cohort_size
        ):
            return eligible
        idx = np.asarray(eligible, dtype=np.int64)
        chosen = self.cohort_sampler.sample(
            idx, self.cohort_size, data_size=self._user_sizes[idx]
        )
        out: List[int] = np.asarray(chosen, dtype=np.int64).tolist()
        return out

    def _dispatch(
        self, round_idx: int, idx: np.ndarray, comm: bool
    ) -> np.ndarray:
        """Run the workloads of the clients in ``idx`` on the backend,
        narrate them in client order and return per-user round seconds:
        compute, plus the model round trip when ``comm``; zero for users
        outside ``idx``."""
        if self._round_samples is not None:
            samples = self._round_samples[idx]
        else:
            samples = self._user_sizes[idx]
        compute_s = comm_s = np.zeros(len(idx))
        energy_j: Optional[np.ndarray] = None
        soc: Optional[np.ndarray] = None
        if self.backend is not None:
            compute_s, energy_j = self.backend.run_compute(
                idx, samples, self.local_epochs
            )
            if comm:
                comm_s = self.backend.comm_time_s(
                    idx, model_wire_mb(self.model)
                )
            soc = self.backend.soc(idx)
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
        times = np.zeros(len(self.users))
        times[idx] = compute_s + comm_s
        return times

    def _idle_to_barrier(self, times: np.ndarray, makespan: float) -> None:
        """Let fast devices cool down while waiting for the straggler."""
        if self.backend is None:
            return
        wait = makespan - times + self.aggregation_s
        waiting = np.flatnonzero((self._user_sizes > 0) & (wait > 0))
        if waiting.size:
            self.backend.idle(waiting, wait[waiting])

    def run_sync_round(self, train: bool = True) -> RoundRecord:
        """One synchronous round: dispatch, barrier, aggregate, record.

        ``train=False`` skips the actual SGD and aggregation (used by
        timing-only experiments, e.g. Fig. 5/7 makespan grids).
        """
        server = self.server
        if server is None:
            raise RuntimeError(
                "no parameter server bound (call bind_server first)"
            )
        # Battery opt-out must be decided before the round runs (the
        # device would not even start training).
        self._round_samples = None
        with PROFILER.phase("cohort"):
            eligible = self.eligible_clients()
            if not eligible:
                if any(u.size > 0 for u in self.users):
                    raise RuntimeError(
                        "every data-holding device is below min_soc"
                    )
                raise RuntimeError("no user holds any data")
            eligible = self._sample_cohort(eligible)
        round_idx = server.round_idx + 1
        if self.scheduler_binding is not None:
            with PROFILER.phase("plan"):
                assignment = self.scheduler_binding.plan_round(
                    self, round_idx, eligible
                )
            samples = np.asarray(
                assignment.samples_per_user(), dtype=np.int64
            )
            if samples.shape != (len(self.users),):
                raise ValueError(
                    "scheduler assignment must cover every user"
                )
            self._round_samples = samples
            self.bus.emit(
                ScheduleComputed(
                    round_idx=round_idx,
                    scheduler=assignment.scheduler,
                    shard_counts=tuple(
                        int(k) for k in assignment.shard_counts
                    ),
                    shard_size=assignment.shard_size,
                    predicted_makespan_s=assignment.predicted_makespan_s,
                    predicted_energy_j=assignment.predicted_energy_j,
                    time_s=self.clock_s,
                    solve_ms=_solve_ms_of(assignment),
                )
            )
            # users planned out of the round neither compute nor train
            eligible = [j for j in eligible if samples[j] > 0]
            if not eligible:
                self._round_samples = None
                raise RuntimeError(
                    "the scheduler assigned no data to any eligible user"
                )
        with PROFILER.phase("dispatch"):
            times = self._dispatch(
                round_idx, np.asarray(eligible, dtype=np.int64), comm=True
            )
        active = eligible
        aggregators = active
        if self.dropout is not None:
            from ..federated.dropout import apply_deadline

            aggregators, dropped, makespan = apply_deadline(
                times, active, self.dropout
            )
            for j in dropped:
                self.bus.emit(
                    ClientDropped(
                        round_idx=round_idx,
                        client_id=j,
                        total_s=float(times[j]),
                        time_s=self.clock_s + makespan,
                    )
                )
        else:
            makespan = float(times[active].max())
        mean_t = float(times[active].mean())
        self._idle_to_barrier(times, makespan)

        if train:
            global_w = server.global_weights()
            weight_vectors: List[np.ndarray] = []
            counts: List[int] = []
            with PROFILER.phase("train"):
                for j in aggregators:
                    result = self._train_client(
                        j, global_w, epochs=self.local_epochs
                    )
                    weight_vectors.append(result.weights)
                    counts.append(result.n_samples)
            with PROFILER.phase("aggregate"):
                new_weights = self.strategy.aggregate(
                    weight_vectors, counts, global_weights=global_w
                )
            server.model.set_weights(new_weights)
            server.round_idx += 1
            self.bus.emit(
                ModelAggregated(
                    round_idx=round_idx,
                    participants=tuple(aggregators),
                    strategy=self.strategy.name,
                    version=server.round_idx,
                    time_s=self.clock_s + makespan,
                )
            )
        else:
            server.round_idx += 1

        accuracy: Optional[float] = None
        if train and (server.round_idx % self.eval_every == 0):
            with PROFILER.phase("eval"):
                accuracy = evaluate_accuracy(
                    server.model, self.dataset.x_test, self.dataset.y_test
                )
        self.clock_s += makespan
        record = RoundRecord(
            round_idx=server.round_idx,
            makespan_s=makespan,
            mean_time_s=mean_t,
            accuracy=accuracy,
            participant_count=len(aggregators),
            per_user_time_s=times,
        )
        self.history.append(record)
        self.bus.emit(
            RoundCompleted(
                round_idx=server.round_idx,
                makespan_s=makespan,
                mean_time_s=mean_t,
                participant_count=len(aggregators),
                accuracy=accuracy,
                time_s=self.clock_s,
            )
        )
        self._round_samples = None
        return record

    # -- asynchronous driver ---------------------------------------------
    def _staleness_strategy(self) -> StalenessWeighted:
        if not isinstance(self.strategy, StalenessWeighted):
            raise TypeError(
                "the async driver needs a StalenessWeighted strategy"
            )
        return self.strategy

    def epoch_time(self, j: int) -> float:
        """Virtual seconds for user j's next local epoch (device state
        persists: continuous training heats the device)."""
        return self.client_compute(j)[0]

    def _start_epoch(self, j: int) -> float:
        self._pulled_version[j] = self.version
        self._start_weights[j] = self.model.get_weights()
        self._epoch_start[j] = self.clock_s
        self.bus.emit(
            ClientDispatched(
                round_idx=self.version,
                client_id=j,
                n_samples=self.users[j].size,
                time_s=self.clock_s,
            )
        )
        epoch_s, energy_j = self.client_compute(j, epochs=1)
        self._epoch_energy[j] = (
            energy_j if self.backend is not None else None
        )
        return epoch_s

    def _apply_async_update(self, j: int, time_s: float) -> AsyncUpdate:
        strategy = self._staleness_strategy()
        start_weights = self._start_weights[j]
        if start_weights is None:
            raise RuntimeError(
                f"user {j} has no in-flight epoch to apply"
            )
        result = self._train_client(j, start_weights, epochs=1)
        staleness = self.version - self._pulled_version[j]
        new, mix = strategy.merge(
            self.model.get_weights(), result.weights, staleness
        )
        self.model.set_weights(new)
        self.version += 1
        accuracy = None
        if self.version % self.eval_every_updates == 0:
            accuracy = evaluate_accuracy(
                self.model, self.dataset.x_test, self.dataset.y_test
            )
        update = AsyncUpdate(
            time_s=time_s,
            user_id=j,
            staleness=staleness,
            mix=mix,
            accuracy=accuracy,
        )
        self.updates.append(update)
        epoch_s = time_s - self._epoch_start[j]
        self.bus.emit(
            ClientFinished(
                round_idx=self.version,
                client_id=j,
                compute_s=epoch_s,
                comm_s=0.0,
                total_s=epoch_s,
                time_s=time_s,
                energy_j=self._epoch_energy[j],
                battery_soc=self.battery_soc(j),
            )
        )
        self.bus.emit(
            ModelAggregated(
                round_idx=self.version,
                participants=(j,),
                strategy=strategy.name,
                version=self.version,
                time_s=time_s,
            )
        )
        return update

    def run_async(self, horizon_s: float) -> List[AsyncUpdate]:
        """Run the async event loop until the clock passes the horizon.

        Returns the updates applied during this call. Calling again
        resumes from the current clock, but in-flight epochs that had
        not completed by the previous horizon are *restarted* (the
        scheduler re-pulls the current global model), not continued.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        self._staleness_strategy()
        start_count = len(self.updates)
        heap: List[Tuple[float, int]] = []
        for j, user in enumerate(self.users):
            if user.size == 0:
                continue
            finish = self.clock_s + self._start_epoch(j)
            heapq.heappush(heap, (finish, j))
        end = self.clock_s + horizon_s
        while heap:
            finish, j = heapq.heappop(heap)
            if finish > end:
                # Client finishes beyond the horizon; stop here.
                self.clock_s = end
                break
            self.clock_s = finish
            self._apply_async_update(j, finish)
            next_finish = finish + self._start_epoch(j)
            heapq.heappush(heap, (next_finish, j))
        return self.updates[start_count:]

    def update_counts(self) -> np.ndarray:
        """Applied async updates per user — fast devices dominate, the
        imbalance behind async's bias/divergence risk."""
        counts = np.zeros(len(self.users), dtype=np.int64)
        for u in self.updates:
            counts[u.user_id] += 1
        return counts

    # -- gossip driver ---------------------------------------------------
    def init_replicas(self) -> np.ndarray:
        """One model replica per user, all cloned from the seed model."""
        self.replicas = np.tile(
            self.model.get_weights(), (len(self.users), 1)
        )
        return self.replicas

    def run_gossip_round(self) -> None:
        """One decentralized round: local SGD then one gossip step."""
        replicas = (
            self.replicas
            if self.replicas is not None
            else self.init_replicas()
        )
        mixer = self.strategy
        if not isinstance(mixer, SupportsMix):
            raise TypeError(
                "the gossip driver needs a strategy with a mix() step"
            )
        round_idx = self.round_idx + 1
        idx = np.flatnonzero(self._user_sizes > 0)
        times = self._dispatch(round_idx, idx, comm=False)
        for j in idx.tolist():
            result = self._train_client(
                j, replicas[j], epochs=self.local_epochs
            )
            replicas[j] = result.weights
        # Gossip: every replica mixes with its neighbours.
        self.replicas = mixer.mix(replicas)
        self.round_idx += 1
        trained: List[int] = idx.tolist()
        makespan = float(times.max())
        self.clock_s += makespan
        self.bus.emit(
            ModelAggregated(
                round_idx=self.round_idx,
                participants=tuple(trained),
                strategy=mixer.name,
                version=self.round_idx,
                time_s=self.clock_s,
            )
        )
        self.bus.emit(
            RoundCompleted(
                round_idx=self.round_idx,
                makespan_s=makespan,
                mean_time_s=(
                    float(times[trained].mean()) if trained else 0.0
                ),
                participant_count=len(trained),
                accuracy=None,
                time_s=self.clock_s,
            )
        )

    def replica_accuracy(self, j: int) -> float:
        """Test accuracy of one node's replica."""
        if self.replicas is None:
            raise RuntimeError("no replicas initialised")
        self._scratch.set_weights(self.replicas[j])
        return evaluate_accuracy(
            self._scratch, self.dataset.x_test, self.dataset.y_test
        )

    def consensus_distance(self) -> float:
        """Mean L2 distance of replicas from their average — 0 at full
        consensus."""
        if self.replicas is None:
            raise RuntimeError("no replicas initialised")
        mean = self.replicas.mean(axis=0)
        return float(
            np.linalg.norm(self.replicas - mean, axis=1).mean()
        )
