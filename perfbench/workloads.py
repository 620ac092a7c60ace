"""The benchmark's three workloads, each a closed loop driven by one caller.

* ``fl_train`` — trained synchronous FedAvg (the paper's Table III
  loop): ``mnist_mini`` at 12,000 training samples, IID over testbed 3
  (10 phones), ``lenet_mini``, Fed-LBAP planning every round through
  ``EngineSchedulerBinding``. The learning path (``repro.models`` under
  ``engine.train_local``) does most of the work.
* ``fleet_sched`` — timing-only ``FleetRunner`` rounds over a 10**6
  device ``synthetic_fleet``: uniform cohorts of 2048, Fed-LBAP, an
  ``ObsRecorder`` attached. ``repro.sched`` and ``repro.fleet`` do most
  of the work; the cohort is above the detail threshold, so each round
  narrates a single ``CohortAccounted`` event.
* ``serve_churn`` — an in-process ``ServeApp`` on a ``ManualClock``
  replaying a seeded churn trace (1,500 devices over 600 simulated
  seconds, heartbeats every 5 s): a round with cohort 256 every 10
  simulated seconds, narrated client by client, and a ``GET /metrics``
  after each. The control plane and the per-client event fold do most
  of the work.

Each workload sets itself up ``setups`` times from scratch (cost-curve
caches cleared, as in a fresh process) and reports the median set-up
time, then runs its timed phase until at least ``seconds`` have passed
and its fixed episode is complete. Simulated outputs are taken over
that fixed episode only, so they repeat exactly for a seed however
fast the host is.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import statistics
from array import array
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "END_TO_END",
    "SETUPS",
    "WORKLOADS",
    "Result",
    "fl_train",
    "fleet_sched",
    "serve_churn",
]

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5

#: reference-kernel runs on each side of one set-up
_SETUP_PROBES = 3

#: the reference kernel's typical time on the machine the baseline was
#: measured on (2-vCPU x86-64 VM at 2.1 GHz); ``setup_s`` is set-up time
#: in ref scaled by it, i.e. seconds at that machine's nominal speed
REF_NOMINAL_S = 2.5e-3

#: end-to-end metrics every workload reports, as (name, unit)
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_ref", "1/ref"),
    ("round_p50_ref", "ref"),
    ("sim_makespan_s", "s"),
    ("sim_energy_j", "J"),
]

#: most failure messages one run prints
_MAX_PROBLEMS = 20


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: the END_TO_END metrics (peak RSS is added by the caller)
    e2e: Dict[str, float] = field(default_factory=dict)
    #: workload-specific metrics under their own names, for the report
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: simulated outputs that must repeat exactly for a seed
    sim: Dict[str, float] = field(default_factory=dict)
    #: per-layer counts only the workload observes
    layer: Dict[str, float] = field(default_factory=dict)
    #: host seconds of the timed phase, and the same in ref
    timed_s: float = 0.0
    timed_ref: float = 0.0

    def check(self, ok: bool, message: str) -> bool:
        """Count one failed operation when ``ok`` is false."""
        if not ok:
            self.failed += 1
            if len(self.problems) < _MAX_PROBLEMS:
                self.problems.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _fresh_setup(speed: "HostSpeed", build: Callable[[], Any]) -> Tuple[Any, float]:
    """One set-up from scratch: earlier state collected, cost-curve
    caches cleared as in a fresh process. Returns the built state and
    its time in ref."""
    from repro.sched.costs import clear_cost_cache

    gc.collect()  # earlier set-ups hold reference cycles
    clear_cost_cache()
    before = [speed.kernel() for _ in range(_SETUP_PROBES)]
    t0 = perf_counter()
    state = build()
    elapsed = perf_counter() - t0
    after = [speed.kernel() for _ in range(_SETUP_PROBES)]
    # a set-up lasts up to seconds: the kernel's speed on both sides of
    # it, rather than one time before, follows drift during the set-up
    return state, elapsed / statistics.median(before + after)


def _set_up(build: Callable[[], Any], setups: int) -> Tuple[Any, float]:
    """Build the workload state ``setups`` times, each from scratch;
    keep the last and return the median set-up time in nominal
    seconds."""
    speed = HostSpeed()
    costs: List[float] = []
    state = None
    for _ in range(setups):
        state = None  # free the previous state before building anew
        state, cost = _fresh_setup(speed, build)
        costs.append(cost)
    return state, statistics.median(costs) * REF_NOMINAL_S


class _EventLog:
    """Bus subscriber keeping what the checks compare against."""

    def __init__(self) -> None:
        self.makespans: List[float] = []
        self.round_energy = 0.0
        self.accounted: List[int] = []

    def __call__(self, event: Any) -> None:
        kind = type(event).__name__
        if kind == "RoundCompleted":
            self.makespans.append(event.makespan_s)
        elif kind == "ClientFinished" and event.energy_j is not None:
            self.round_energy += event.energy_j
        elif kind == "CohortAccounted":
            self.accounted.append(event.cohort_size)
            self.round_energy += event.energy_j

    def take_energy(self) -> float:
        energy, self.round_energy = self.round_energy, 0.0
        return energy


class HostSpeed:
    """A fixed reference kernel, timed just before each measured
    operation.

    The shared host this benchmark runs on drifts in speed by up to a
    quarter over tens of seconds, for interpreted Python and BLAS code
    alike. An operation's wall time divided by the kernel's recent time
    is its cost in kernel units (``ref``), from which that drift
    cancels; raw wall times are reported alongside.
    """

    def __init__(self) -> None:
        self._m = np.random.default_rng(0).random((96, 96))
        self._recent: Deque[float] = deque(maxlen=5)

    def kernel(self) -> float:
        """Run the kernel once; its time in seconds."""
        t0 = perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(10):
            self._m @ self._m
        return perf_counter() - t0

    def probe(self) -> float:
        """Run the kernel once; the median of its last five times."""
        self._recent.append(self.kernel())
        return statistics.median(self._recent)


def _mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _round_metrics(
    setup_s: float,
    works: List[float],
    costs: List[float],
    sim: Dict[str, float],
) -> Dict[str, float]:
    """END_TO_END values (bar peak RSS) of a loop of timed rounds doing
    ``works[i]`` units of work at ``costs[i]`` ref each: throughput over
    the whole timed phase, and the median round."""
    return {
        "setup_s": setup_s,
        "throughput_per_ref": sum(works) / sum(costs),
        "round_p50_ref": statistics.median(costs),
        "sim_makespan_s": sim["sim_makespan_s"],
        "sim_energy_j": sim["sim_energy_j"],
    }


# -- fl_train ---------------------------------------------------------------


def fl_train(
    seed: int,
    seconds: float,
    setups: int = SETUPS,
    rounds: int = 12,
    train_size: int = 12_000,
    min_accuracy: float = 0.5,
) -> Result:
    """Trained FedAvg rounds; simulated outputs cover ``rounds`` rounds."""
    from repro.data.partition import iid_partition
    from repro.data.synthetic import load_preset
    from repro.device.registry import TESTBEDS, make_testbed
    from repro.federated.simulation import (
        FederatedSimulation,
        SimulationConfig,
    )
    from repro.models.zoo import build_model
    from repro.sched.binding import EngineSchedulerBinding

    n_phones = len(TESTBEDS[3])

    def build() -> Tuple[Any, Any, _EventLog]:
        dataset = load_preset("mnist_mini", train_size=train_size, seed=seed)
        users = iid_partition(
            dataset, n_phones, np.random.default_rng(seed)
        )
        model = build_model(
            "lenet_mini",
            input_shape=dataset.input_shape,
            num_classes=dataset.num_classes,
            seed=seed,
        )
        # disjoint jitter streams per seed (make_testbed seeds phone i
        # with seed + i)
        devices = make_testbed(3, seed=seed * n_phones)
        sim = FederatedSimulation(
            dataset,
            model,
            users,
            devices=devices,
            # lr 0.02: at the default 0.05 (with momentum 0.9) lenet_mini
            # stays at chance accuracy on some seeds
            config=SimulationConfig(seed=seed, lr=0.02),
        )
        binding = EngineSchedulerBinding("fed_lbap", shard_size=100)
        sim.engine.bind_scheduler(binding)
        log = _EventLog()
        sim.events.subscribe(log)
        # warm-up round: bootstraps the cost curves and the Fed-LBAP
        # instance, which users pay on every run
        sim.run_round()
        return sim, binding, log

    (sim, binding, log), setup_s = _set_up(build, setups)
    res = Result()
    held = np.array([u.size for u in sim.users], dtype=np.int64)
    makespans: List[float] = []
    energies: List[float] = []
    walls: List[float] = []
    accuracy: Optional[float] = None
    trained: List[float] = []
    speed = HostSpeed()
    costs: List[float] = []
    log.makespans.clear()
    log.take_energy()
    t_start = perf_counter()
    while len(walls) < rounds or perf_counter() - t_start < seconds:
        ref = speed.probe()
        t0 = perf_counter()
        record = sim.run_round()
        walls.append(perf_counter() - t0)
        costs.append(walls[-1] / ref)
        res.attempted += 1
        planned = binding.assignments[-1].samples_per_user()
        trained.append(float(np.minimum(planned, held).sum()))
        n = len(walls)
        res.check(
            len(log.makespans) == n
            and log.makespans[-1] == record.makespan_s,
            f"round {n}: makespan {record.makespan_s} differs from the "
            "RoundCompleted event",
        )
        if n <= rounds:
            makespans.append(record.makespan_s)
            energies.append(log.take_energy())
            if n == rounds:
                accuracy = record.accuracy
    res.timed_s = sum(walls)
    res.timed_ref = sum(costs)
    res.check(
        accuracy is not None and accuracy >= min_accuracy,
        f"accuracy after {rounds} rounds is {accuracy}, "
        f"expected >= {min_accuracy} (chance is 0.1)",
    )
    res.sim = {
        "sim_makespan_s": _mean(makespans),
        "sim_energy_j": _mean(energies),
        "final_accuracy": float(accuracy or 0.0),
    }
    res.e2e = _round_metrics(setup_s, trained, costs, res.sim)
    res.named = {
        "train_samples_per_s": (sum(trained) / sum(walls), "samples/s"),
        "round_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "final_accuracy": (res.sim["final_accuracy"], "fraction"),
    }
    return res


# -- fleet_sched ------------------------------------------------------------

#: cohort of the set-up's warm-up round
_WARMUP_COHORT = 64

#: set-ups per run: one takes about 0.2 s and swings by a fifth with
#: the cost of allocating 10**6 fresh rows, so more are taken
FLEET_SETUPS = 11


def fleet_sched(
    seed: int,
    seconds: float,
    setups: int = FLEET_SETUPS,
    rounds: int = 20,
    fleet_size: int = 10**6,
    cohort_size: int = 2048,
) -> Result:
    """Timing-only fleet rounds; simulated outputs cover ``rounds``."""
    from repro.fleet import FleetRunner, UniformSampler, synthetic_fleet
    from repro.obs import ObsRecorder
    from repro.sched.registry import scheduler_class

    class Sampler(UniformSampler):
        """Uniform cohorts, remembering the last draw for the checks."""

        def sample(self, eligible, k, data_size=None):  # type: ignore[no-untyped-def]
            self.eligible = np.asarray(eligible)
            self.cohort = super().sample(eligible, k, data_size=data_size)
            return self.cohort

    class Solver(scheduler_class("fed_lbap")):  # type: ignore[misc]
        """Fed-LBAP, remembering the last budget and allocation."""

        def schedule(self, problem):  # type: ignore[no-untyped-def]
            assignment = super().schedule(problem)
            self.budget = problem.total_shards
            self.counts = np.array(assignment.shard_counts)
            return assignment

    def build() -> Tuple[Any, Sampler, Solver, _EventLog]:
        fleet = synthetic_fleet(fleet_size, seed=seed)
        sampler = Sampler(seed)
        solver = Solver()
        runner = FleetRunner(
            fleet,
            scheduler=solver,
            sampler=sampler,
            cohort_size=cohort_size,
        )
        runner.bus.subscribe(ObsRecorder(run_name="fleet_sched"))
        log = _EventLog()
        runner.bus.subscribe(log)
        # warm-up round on a small cohort: it bootstraps the class cost
        # curves and the solver's code paths, which users pay on every
        # run; a full-size solve is a round's cost, which the timed
        # rounds measure, and its time swings with the instance
        runner.cohort_size = _WARMUP_COHORT
        runner.run_round()
        runner.cohort_size = cohort_size
        return runner, sampler, solver, log

    (runner, sampler, solver, log), setup_s = _set_up(build, setups)
    res = Result()
    makespans: List[float] = []
    energies: List[float] = []
    walls: List[float] = []
    log.makespans.clear()
    log.accounted.clear()
    log.take_energy()
    speed = HostSpeed()
    costs: List[float] = []
    t_start = perf_counter()
    while len(walls) < rounds or perf_counter() - t_start < seconds:
        ref = speed.probe()
        t0 = perf_counter()
        record = runner.run_round()
        walls.append(perf_counter() - t0)
        costs.append(walls[-1] / ref)
        res.attempted += 1
        n = len(walls)
        res.check(
            _fleet_round_ok(record, sampler, solver, log, runner),
            f"round {n}: allocation breaks the shard budget or leaves "
            "the cohort",
        )
        if n <= rounds:
            makespans.append(record.makespan_s)
            energies.append(log.take_energy())
    res.timed_s = sum(walls)
    res.timed_ref = sum(costs)
    res.sim = {
        "sim_makespan_s": _mean(makespans),
        "sim_energy_j": _mean(energies),
    }
    res.e2e = _round_metrics(setup_s, [1.0] * len(walls), costs, res.sim)
    res.named = {
        "fleet_rounds_per_s": (len(walls) / sum(walls), "rounds/s"),
        "round_p50_ms": (statistics.median(walls) * 1e3, "ms"),
    }
    return res


def _fleet_round_ok(
    record: Any, sampler: Any, solver: Any, log: _EventLog, runner: Any
) -> bool:
    """One fleet round spent exactly its shard budget, only on distinct
    eligible cohort members, and narrated what it ran."""
    cohort, counts = sampler.cohort, solver.counts
    eligible = sampler.eligible
    pos = np.searchsorted(eligible, cohort)
    active = int((counts > 0).sum())
    detail = active <= runner.detail_threshold
    return (
        counts.size == cohort.size == record.cohort_size
        and int(counts.sum()) == solver.budget
        and bool((counts >= 0).all())
        and np.unique(cohort).size == cohort.size
        and bool((pos < eligible.size).all())
        and bool((eligible[np.minimum(pos, eligible.size - 1)] == cohort).all())
        and active == record.active_count
        and bool(runner.fleet.alive[cohort[counts > 0]].all())
        and log.makespans[-1] == record.makespan_s
        and (detail or log.accounted[-1] == active)
    )


# -- serve_churn ------------------------------------------------------------

#: simulated seconds between two round submissions
ROUND_EVERY_S = 10.0


@dataclass
class _Replay:
    """One replay's host timings and simulated outputs."""

    #: per round interval: its requests, and the host time of its
    #: traffic, round and scrape
    interval_requests: List[float] = field(default_factory=list)
    interval_s: List[float] = field(default_factory=list)
    interval_costs: List[float] = field(default_factory=list)
    round_s: List[float] = field(default_factory=list)
    round_costs: List[float] = field(default_factory=list)
    scrape_s: List[float] = field(default_factory=list)
    #: float32 keeps the samples small: peak RSS must not grow with the
    #: number of replays a fast host fits into a run
    heartbeat_s: "array[float]" = field(default_factory=lambda: array("f"))
    makespans: List[float] = field(default_factory=list)
    energies: List[float] = field(default_factory=list)
    replans: int = 0
    gone: int = 0


async def _replay(
    app: Any,
    clock: Any,
    trace: Any,
    res: Result,
    horizon_s: float,
    cohort_size: int,
    dead_after_s: float,
) -> _Replay:
    """Drive one churn trace through ``app.handle_request`` and submit
    a round (then scrape ``/metrics``) every ``ROUND_EVERY_S``."""
    from repro.serve.simclients import SimClientDriver

    out = _Replay()

    async def transport(
        method: str, path: str, body: Optional[Dict[str, object]]
    ) -> Any:
        t0 = perf_counter()
        response = app.handle_request(method, path, body)
        if path.endswith("/heartbeat"):
            out.heartbeat_s.append(perf_counter() - t0)
        return response

    driver = SimClientDriver(app, clock, trace, transport=transport)
    n_rounds = int(round(horizon_s / ROUND_EVERY_S))
    speed = HostSpeed()
    for k in range(1, n_rounds + 1):
        ref = speed.probe()
        delivered = len(driver.log)
        ti = perf_counter()
        await driver.run_until(k * ROUND_EVERY_S)
        t0 = perf_counter()
        status, _ = app.handle_request(
            "POST", "/v1/rounds", {"cohort_size": cohort_size}
        )
        jobs = await app.run_pending()
        t1 = perf_counter()
        scrape_status, text = app.handle_request("GET", "/metrics")
        t2 = perf_counter()
        out.interval_requests.append(len(driver.log) - delivered + 2.0)
        out.interval_s.append(t2 - ti)
        out.interval_costs.append((t2 - ti) / ref)
        out.round_s.append(t1 - t0)
        out.round_costs.append((t1 - t0) / ref)
        out.scrape_s.append(t2 - t1)
        res.attempted += 3  # submit, round job, scrape
        res.check(status == 202, f"round {k}: submit returned {status}")
        res.check(
            scrape_status == 200
            and "repro_serve_requests_total" in str(text),
            f"round {k}: /metrics returned {scrape_status}",
        )
        job_ok = len(jobs) == 1 and jobs[0].status == "completed"
        if job_ok:
            latest = app.models.latest().metadata
            participants = np.asarray(latest["participants"], dtype=np.int64)
            job_ok = bool(app.fleet.alive[participants].all())
            out.makespans.append(float(latest["makespan_s"]))
            out.energies.append(float(latest["energy_j"]))
            out.replans += jobs[0].replans
        res.check(job_ok, f"round {k}: failed or gave shards to a dead device")
    res.check(
        all(p.dead_scheduled == 0 for p in app.coordinator.plan_log),
        "a plan scheduled a dead device",
    )
    expected = {"join": 201, "heartbeat": 200, "leave": 200}
    # liveness as the trace alone implies it, not as the program saw it
    last_seen: Dict[str, float] = {}
    left = set()
    for event, status in driver.log:
        res.attempted += 1
        device = event.device_id
        silent = event.at_s - last_seen.get(device, event.at_s)
        if event.action == "leave":
            left.add(device)
        elif event.action == "heartbeat" and (
            device in left or silent >= dead_after_s
        ):
            # the monitor may already have killed it: 410 is
            # protocol-correct (a sweep may also not have run yet)
            if status == 410:
                out.gone += 1
                continue
        if event.action != "leave":
            last_seen[device] = event.at_s
        res.check(
            status == expected[event.action],
            f"{event.action} from {event.device_id} at "
            f"{event.at_s:.1f}s returned {status}",
        )
    return out


def serve_churn(
    seed: int,
    seconds: float,
    setups: int = SETUPS,
    devices: int = 1500,
    horizon_s: float = 600.0,
    fleet_size: int = 2048,
    cohort_size: int = 256,
) -> Result:
    """Whole-trace replays, each on a freshly set-up app, until
    ``seconds`` have passed and at least ``setups`` replays ran."""
    from repro.serve.app import ServeApp, ServeConfig
    from repro.serve.clock import ManualClock
    from repro.serve.simclients import churn_trace

    trace = churn_trace(
        devices, horizon_s=horizon_s, seed=seed, heartbeat_every_s=5.0
    )
    config = ServeConfig(fleet_size=fleet_size, seed=seed)
    res = Result()
    speed = HostSpeed()
    setup_costs: List[float] = []
    replays: List[_Replay] = []
    while len(replays) < setups or res.timed_s < seconds:
        app = None  # free the previous app before building anew
        clock = ManualClock()
        app, cost = _fresh_setup(
            speed,
            functools.partial(ServeApp, config, now_fn=clock),
        )
        setup_costs.append(cost)
        replays.append(
            asyncio.run(
                _replay(
                    app,
                    clock,
                    trace,
                    res,
                    horizon_s,
                    cohort_size,
                    config.dead_after_s,
                )
            )
        )
        res.timed_s += sum(replays[-1].interval_s)
        res.timed_ref += sum(replays[-1].interval_costs)
    first = replays[0]
    res.sim = {
        "sim_makespan_s": _mean(first.makespans),
        "sim_energy_j": _mean(first.energies),
    }
    for i, r in enumerate(replays[1:], start=2):
        res.check(
            r.makespans == first.makespans and r.energies == first.energies,
            f"replay {i} simulated different rounds than replay 1",
        )

    def pooled(attr: str) -> List[float]:
        return [t for r in replays for t in getattr(r, attr)]

    requests = sum(pooled("interval_requests"))
    heartbeat_s = np.concatenate(
        [np.frombuffer(r.heartbeat_s, dtype=np.float32) for r in replays]
    ).astype(np.float64)
    res.e2e = {
        "setup_s": statistics.median(setup_costs) * REF_NOMINAL_S,
        "throughput_per_ref": requests / res.timed_ref,
        "round_p50_ref": statistics.median(pooled("round_costs")),
        "sim_makespan_s": res.sim["sim_makespan_s"],
        "sim_energy_j": res.sim["sim_energy_j"],
    }
    res.named = {
        "serve_requests_per_s": (requests / res.timed_s, "requests/s"),
        "serve_heartbeat_p50_us": (
            float(np.percentile(heartbeat_s, 50)) * 1e6,
            "us",
        ),
        "serve_heartbeat_p99_us": (
            float(np.percentile(heartbeat_s, 99)) * 1e6,
            "us",
        ),
        "serve_heartbeat_samples": (float(heartbeat_s.size), "count"),
        "serve_round_p50_ms": (
            statistics.median(pooled("round_s")) * 1e3,
            "ms",
        ),
        "serve_scrape_p50_ms": (
            statistics.median(pooled("scrape_s")) * 1e3,
            "ms",
        ),
    }
    res.layer = {
        "serve.replans": float(first.replans),
        "serve.heartbeats_gone": float(first.gone),
    }
    return res


#: workload name -> runner(seed, seconds, setups)
WORKLOADS: Dict[str, Callable[..., Result]] = {
    "fl_train": fl_train,
    "fleet_sched": fleet_sched,
    "serve_churn": serve_churn,
}
