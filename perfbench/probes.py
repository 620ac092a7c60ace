"""Where the traced run wraps the program, and what it reports.

:func:`install` wraps the public functions at each layer boundary of
``repro`` (class methods, or module attributes at the site the caller
looks them up) with :class:`~tracing.Tracer` spans. Span names start
with the layer — the repo module the function belongs to — so
per-layer busy and self time fall out of the names.
:func:`per_layer_metrics` folds a finished trace into the benchmark's
``per_layer`` metrics; every workload reports every metric, and a
layer the workload does not touch reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracing import Tracer

__all__ = ["LAYERS", "PER_LAYER", "install", "per_layer_metrics"]

#: the repo modules the benchmark attributes time to
LAYERS = (
    "models",
    "engine",
    "data",
    "device",
    "sched",
    "fleet",
    "obs",
    "serve",
)

#: (metric, unit, source, key): ``busy``/``self``/``calls`` read span
#: ``key``; ``count``/``value`` read the tracer's counters and exact
#: values; ``workload`` is filled in by the workload itself. Times are
#: in ref, the unit of the end-to-end host metrics
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("models.conv2d.fwd_ref", "ref", "busy", "models.conv2d.fwd"),
    ("models.conv2d.bwd_ref", "ref", "busy", "models.conv2d.bwd"),
    ("models.conv2d.bwd_calls", "count", "calls", "models.conv2d.bwd"),
    ("models.maxpool2d.fwd_ref", "ref", "busy", "models.maxpool2d.fwd"),
    ("models.maxpool2d.bwd_ref", "ref", "busy", "models.maxpool2d.bwd"),
    ("models.relu.fwd_ref", "ref", "busy", "models.relu.fwd"),
    ("models.relu.bwd_ref", "ref", "busy", "models.relu.bwd"),
    ("models.dense.fwd_ref", "ref", "busy", "models.dense.fwd"),
    ("models.dense.bwd_ref", "ref", "busy", "models.dense.bwd"),
    ("models.sgd.step_ref", "ref", "busy", "models.sgd.step"),
    ("engine.train_local_ref", "ref", "busy", "engine.train_local"),
    ("engine.evaluate_ref", "ref", "busy", "engine.evaluate"),
    ("engine.aggregate_ref", "ref", "busy", "engine.aggregate"),
    ("engine.round_self_ref", "ref", "self", "engine.round"),
    ("engine.events_emitted", "count", "count", "engine.events_emitted"),
    ("data.subset_ref", "ref", "busy", "data.subset"),
    ("data.make_dataset_ref", "ref", "busy", "data.make_dataset"),
    ("device.run_workload_ref", "ref", "busy", "device.run_workload"),
    ("device.idle_ref", "ref", "busy", "device.idle"),
    ("sched.build_ref", "ref", "busy", "sched.build"),
    ("sched.solve_ref", "ref", "busy", "sched.solve"),
    ("sched.plan_ref", "ref", "busy", "sched.plan"),
    ("sched.problem_mb", "MB", "value", "sched.problem_mb"),
    ("sched.active_ratio", "fraction", "value", "sched.active_ratio"),
    ("fleet.sample_ref", "ref", "busy", "fleet.sample"),
    ("fleet.eligible_ref", "ref", "busy", "fleet.eligible"),
    ("fleet.run_compute_ref", "ref", "busy", "fleet.run_compute"),
    ("fleet.idle_ref", "ref", "busy", "fleet.idle"),
    ("obs.fold_ref", "ref", "busy", "obs.fold"),
    ("obs.events_folded", "count", "calls", "obs.fold"),
    ("obs.render_prom_ref", "ref", "busy", "obs.render_prom"),
    ("obs.prom_bytes", "bytes", "value", "obs.prom_bytes"),
    ("serve.request.heartbeat_ref", "ref", "busy", "serve.request.heartbeat"),
    ("serve.request.register_ref", "ref", "busy", "serve.request.register"),
    ("serve.request.leave_ref", "ref", "busy", "serve.request.leave"),
    ("serve.request.rounds_ref", "ref", "busy", "serve.request.rounds"),
    ("serve.request.metrics_ref", "ref", "busy", "serve.request.metrics"),
    ("serve.sweep_ref", "ref", "busy", "serve.sweep"),
    ("serve.round_job_ref", "ref", "busy", "serve.round_job"),
    ("serve.replans", "count", "workload", "serve.replans"),
    ("serve.heartbeats_gone", "count", "workload", "serve.heartbeats_gone"),
]
PER_LAYER += [
    (f"{layer}.{kind}_ref", "ref", f"layer_{kind}", layer)
    for layer in LAYERS
    for kind in ("busy", "self")
]
PER_LAYER.append(
    ("bench.trace_overhead_pct", "%", "workload", "bench.trace_overhead_pct")
)


def _route(args: Tuple[Any, ...]) -> str:
    """Span name of one ``ServeApp.handle_request(method, path)``."""
    method, path = args[1], args[2]
    if path == "/v1/devices/register":
        kind = "register"
    elif path.endswith("/heartbeat"):
        kind = "heartbeat"
    elif method == "DELETE" and path.startswith("/v1/devices/"):
        kind = "leave"
    elif path == "/v1/rounds":
        kind = "rounds"
    elif path == "/metrics":
        kind = "metrics"
    else:
        kind = "other"
    return f"serve.request.{kind}"


def _problem_built(tracer: Tracer, _args: Tuple[Any, ...], problem: Any) -> None:
    nbytes = problem.time_cost.nbytes
    if problem.energy_cost is not None:
        nbytes += problem.energy_cost.nbytes
    tracer.keep_max("sched.problem_mb", nbytes / 1e6)


def _solved(tracer: Tracer, args: Tuple[Any, ...], assignment: Any) -> None:
    counts = assignment.shard_counts
    tracer.counts["sched.solves"] += 1
    tracer.counts["sched.users"] += int(counts.size)
    tracer.counts["sched.active"] += int((counts > 0).sum())


def _rendered(tracer: Tracer, _args: Tuple[Any, ...], text: str) -> None:
    tracer.keep_max("obs.prom_bytes", float(len(text.encode("utf-8"))))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.data.synthetic as synthetic
    import repro.engine.engine as engine_mod
    import repro.fleet.runner as fleet_runner
    import repro.sched.binding as binding
    import repro.serve.app as serve_app
    import repro.serve.coordinator as coordinator
    from repro.data.synthetic import Dataset
    from repro.device.device import MobileDevice
    from repro.engine.aggregation import SyncFedAvg
    from repro.engine.events import EventBus
    from repro.fleet.runner import FleetRunner
    from repro.fleet.sampling import CohortSampler
    from repro.fleet.store import FleetStore
    from repro.models.layers import Conv2D, Dense, MaxPool2D, ReLU
    from repro.models.network import Sequential
    from repro.models.optim import SGD
    from repro.obs.recorder import ObsRecorder
    from repro.sched.binding import EngineSchedulerBinding
    from repro.sched.registry import available_schedulers, scheduler_class
    from repro.serve.app import ServeApp
    from repro.serve.registry import DeviceRegistry

    w = tracer.wrap
    for cls, short in ((Conv2D, "conv2d"), (MaxPool2D, "maxpool2d"), (Dense, "dense")):
        w(cls, "forward", f"models.{short}.fwd")
        w(cls, "backward", f"models.{short}.bwd")
    w(ReLU, "forward", "models.relu.fwd")
    w(ReLU, "backward", "models.relu.bwd")
    w(Sequential, "train_batch", "models.train_batch")
    w(SGD, "step", "models.sgd.step")

    w(engine_mod, "train_local", "engine.train_local")
    w(engine_mod, "evaluate_accuracy", "engine.evaluate")
    w(SyncFedAvg, "aggregate", "engine.aggregate")
    w(engine_mod.RoundEngine, "run_sync_round", "engine.round")
    tracer.count_calls(EventBus, "emit", "engine.events_emitted")

    w(Dataset, "subset", "data.subset")
    w(synthetic, "make_dataset", "data.make_dataset")

    w(MobileDevice, "run_workload", "device.run_workload")
    w(MobileDevice, "idle", "device.idle")

    w(binding, "problem_from_engine", "sched.build", _problem_built)
    w(fleet_runner, "fleet_problem", "sched.build", _problem_built)
    w(coordinator, "fleet_problem", "sched.build", _problem_built)
    w(EngineSchedulerBinding, "plan_round", "sched.plan")
    solvers = {scheduler_class(n) for n in available_schedulers()}
    for cls in solvers:
        if "schedule" in cls.__dict__:
            w(cls, "schedule", "sched.solve", _solved)

    w(CohortSampler, "sample", "fleet.sample")
    w(FleetStore, "eligible_mask", "fleet.eligible")
    w(FleetStore, "run_compute", "fleet.run_compute")
    w(FleetStore, "idle", "fleet.idle")
    w(FleetRunner, "run_round", "fleet.round")

    w(ObsRecorder, "__call__", "obs.fold")
    w(serve_app, "render_prometheus", "obs.render_prom", _rendered)

    w(ServeApp, "handle_request", _route)
    w(ServeApp, "run_job", "serve.round_job")
    w(DeviceRegistry, "check", "serve.sweep")


def per_layer_metrics(
    tracer: Tracer, from_workload: Dict[str, float], ref_s: float
) -> Dict[str, Tuple[float, str]]:
    """Every ``per_layer`` metric as ``name -> (value, unit)``; span
    times are divided by ``ref_s``, the reference kernel's mean time
    over the traced episode, so host drift cancels as it does from the
    end-to-end metrics."""
    names = tracer.by_name()
    layers = tracer.by_layer()
    solves = tracer.counts["sched.solves"]
    values = dict(tracer.values)
    if solves:
        values["sched.active_ratio"] = (
            tracer.counts["sched.active"] / tracer.counts["sched.users"]
        )
    out: Dict[str, Tuple[float, str]] = {}
    for metric, unit, source, key in PER_LAYER:
        calls, busy_s, self_s = names.get(key, (0, 0.0, 0.0))
        if source == "busy":
            value = busy_s / ref_s
        elif source == "self":
            value = self_s / ref_s
        elif source == "calls":
            value = float(calls)
        elif source == "count":
            value = float(tracer.counts[key])
        elif source == "value":
            value = values.get(key, 0.0)
        elif source == "workload":
            value = from_workload.get(key, 0.0)
        else:
            layer_busy, layer_self = layers.get(key, (0.0, 0.0))
            value = (layer_busy if source == "layer_busy" else layer_self) / ref_s
        out[metric] = (value, unit)
    return out
