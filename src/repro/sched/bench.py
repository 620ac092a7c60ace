"""Scheduler comparison harness.

Runs every requested registered scheduler on one
:class:`~repro.sched.base.SchedulingProblem` and reports a common
yardstick per scheduler — predicted makespan (s), predicted total
energy (J), the Eq.-(6) accuracy cost of the selected cohort, number
of participants, and solver runtime — plus a sweep helper over
testbeds × data sizes. ``repro sched compare`` is a thin CLI shell
around :func:`compare`; each solved instance is also announced as a
:class:`~repro.engine.events.ScheduleComputed` event so ``--telemetry``
captures machine-readable rows alongside the printed table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Union

from ..core.accuracy_cost import AccuracyCostTracker
from ..engine.events import EventBus, ScheduleComputed
from .base import Assignment, SchedulingProblem
from .costs import testbed_problem
from .registry import available_schedulers, get_scheduler

__all__ = ["CompareRow", "compare", "sweep", "format_table"]


@dataclass
class CompareRow:
    """One scheduler's result on one instance."""

    scheduler: str
    makespan_s: Optional[float]
    energy_j: Optional[float]
    accuracy_cost: Optional[float]
    participants: Optional[int]
    runtime_ms: float
    error: Optional[str] = None
    #: instance tag for sweeps ("" for single-instance compares)
    instance: str = ""
    assignment: Optional[Assignment] = None
    #: population size of the instance (fleet benchmarking)
    n: Optional[int] = None


def _accuracy_cost_of(
    problem: SchedulingProblem, assignment: Assignment
) -> float:
    """Eq.-(6) accuracy cost of the selected cohort (alpha-scaled),
    accounting users in ascending index like the P2 objective."""
    tracker = AccuracyCostTracker(
        problem.classes_or_default(),
        problem.num_classes,
        problem.alpha,
        problem.beta,
    )
    total = 0.0
    counts = assignment.shard_counts
    for j in range(problem.n_users):
        if counts[j] <= 0:
            continue
        total += tracker.scaled_cost(j)
        tracker.record_assignment(j, int(counts[j]))
    return total


def compare(
    problem: SchedulingProblem,
    schedulers: Optional[Sequence[str]] = None,
    bus: Optional[EventBus] = None,
    instance: str = "",
    strict: bool = False,
) -> List[CompareRow]:
    """Run schedulers on one instance and collect comparable rows.

    A scheduler that cannot handle the instance (e.g. ``min_energy``
    without an energy matrix) contributes an error row instead of
    aborting the whole comparison, unless ``strict`` is set.
    """
    names = list(schedulers) if schedulers else list(available_schedulers())
    bus = bus or EventBus()
    rows: List[CompareRow] = []
    for name in names:
        t0 = time.perf_counter()
        try:
            assignment = get_scheduler(name).schedule(problem)
        except (ValueError, KeyError) as exc:
            if strict:
                raise
            rows.append(
                CompareRow(
                    scheduler=name,
                    makespan_s=None,
                    energy_j=None,
                    accuracy_cost=None,
                    participants=None,
                    runtime_ms=(time.perf_counter() - t0) * 1e3,
                    error=str(exc),
                    instance=instance,
                    n=problem.n_users,
                )
            )
            continue
        runtime_ms = (time.perf_counter() - t0) * 1e3
        bus.emit(
            ScheduleComputed(
                round_idx=0,
                scheduler=name,
                shard_counts=tuple(
                    int(k) for k in assignment.shard_counts
                ),
                shard_size=assignment.shard_size,
                predicted_makespan_s=assignment.predicted_makespan_s,
                predicted_energy_j=assignment.predicted_energy_j,
                time_s=0.0,
                solve_ms=runtime_ms,
            )
        )
        rows.append(
            CompareRow(
                scheduler=name,
                makespan_s=assignment.predicted_makespan_s,
                energy_j=assignment.predicted_energy_j,
                accuracy_cost=_accuracy_cost_of(problem, assignment),
                participants=int(
                    (assignment.shard_counts > 0).sum()
                ),
                runtime_ms=runtime_ms,
                instance=instance,
                n=problem.n_users,
            )
        )
    return rows


def sweep(
    testbeds: Sequence[Union[int, Sequence[str]]],
    data_sizes: Sequence[int],
    schedulers: Optional[Sequence[str]] = None,
    dataset: str = "mnist",
    model: str = "lenet",
    shard_size: int = 500,
    seed: int = 0,
    bus: Optional[EventBus] = None,
    **problem_kwargs: Any,
) -> List[CompareRow]:
    """Testbeds × data sizes grid of :func:`compare` runs.

    Each cell builds its own :func:`~repro.sched.costs.testbed_problem`
    (curves are cached across cells, so the grid cost is dominated by
    the solvers, not profiling) and tags rows ``tb<id>/D=<samples>``.
    """
    rows: List[CompareRow] = []
    for tb in testbeds:
        for total in data_sizes:
            problem = testbed_problem(
                tb,
                dataset=dataset,
                model=model,
                shard_size=shard_size,
                total_samples=int(total),
                seed=seed,
                **problem_kwargs,
            )
            tag = f"tb{tb}/D={int(total)}"
            rows.extend(
                compare(
                    problem, schedulers, bus=bus, instance=tag
                )
            )
    return rows


def format_table(rows: Sequence[CompareRow]) -> str:
    """Render rows as an aligned text table (CLI output)."""
    headers = [
        "instance",
        "scheduler",
        "n",
        "makespan_s",
        "energy_j",
        "acc_cost",
        "users",
        "solve_ms",
    ]
    show_instance = any(r.instance for r in rows)
    if not show_instance:
        headers = headers[1:]

    def fmt(row: CompareRow) -> List[str]:
        n_cell = "-" if row.n is None else str(row.n)
        if row.error is not None:
            cells = [
                row.scheduler,
                n_cell,
                f"error: {row.error}",
                "",
                "",
                "",
                f"{row.runtime_ms:.1f}",
            ]
        else:
            cells = [
                row.scheduler,
                n_cell,
                f"{row.makespan_s:.2f}",
                "-" if row.energy_j is None else f"{row.energy_j:.1f}",
                f"{row.accuracy_cost:.1f}",
                str(row.participants),
                f"{row.runtime_ms:.1f}",
            ]
        if show_instance:
            cells.insert(0, row.instance)
        return cells

    table = [headers] + [fmt(r) for r in rows]
    widths = [
        max(len(line[i]) for line in table)
        for i in range(len(headers))
    ]
    lines: List[str] = []
    for k, line in enumerate(table):
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
        )
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
