"""Fleet-scale benchmark: scheduler wall-time vs population size.

Answers the scaling question the columnar refactor exists for: how do
cost-matrix generation (``build_ms``), solver runtime (``solve_ms``)
and whole-round throughput (``rounds_per_sec``) behave as the simulated
population grows 10² → 10⁶? Results are written to the committed
``BENCH_fleet.json`` (see :func:`write_bench` for the schema) so the
numbers travel with the code that produced them; ``repro bench fleet``
is the CLI shell and CI smokes the 10⁴ point.

All benchmark timings use ``time.perf_counter`` — host cost, the one
place wall-ish time is the measurand, never the simulation's virtual
clock.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..sched.base import Assignment, Scheduler, SchedulingProblem
from ..sched.registry import get_scheduler
from .runner import FleetRunner
from .sampling import make_sampler
from .store import DeviceClass, synthetic_fleet

__all__ = [
    "DEFAULT_NS",
    "DEFAULT_BENCH_SCHEDULERS",
    "FleetBenchRow",
    "git_sha",
    "bench_fleet",
    "write_bench",
    "format_bench",
]

#: the ISSUE's decade sweep, 10² … 10⁶
DEFAULT_NS: Sequence[int] = (100, 1_000, 10_000, 100_000, 1_000_000)

#: schedulers benchmarked by default: the O(cohort·shards) weighted
#: split and the paper's Fed-LBAP bottleneck solver
DEFAULT_BENCH_SCHEDULERS: Sequence[str] = ("proportional", "fed_lbap")


@dataclass(frozen=True)
class FleetBenchRow:
    """One (population size, scheduler) cell of the sweep.

    ``build_ms``/``solve_ms`` are per-round means; ``build_ms`` of the
    first round pays the per-class matrix build, later rounds hit the
    cache, so the mean falls as ``rounds`` grows. ``problem_mb`` is the
    first round's :attr:`SchedulingProblem.nbytes` after its solve, so
    a per-user expansion the scheduler cached counts.
    """

    n: int
    scheduler: str
    cohort: int
    rounds: int
    build_ms: float
    solve_ms: float
    round_ms: float
    rounds_per_sec: float
    makespan_s: float
    energy_j: float
    problem_mb: float


class _FirstProblemSize(Scheduler):
    """Delegates to ``inner`` and keeps the size of the first problem
    it solved, read after the solve."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.name = inner.name
        self.problem_mb: Optional[float] = None

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        assignment = self.inner.schedule(problem)
        if self.problem_mb is None:
            self.problem_mb = problem.nbytes / 1e6
        return assignment


def git_sha(root: Optional[Path] = None) -> str:
    """Current commit of the repo the benchmark ran in (or "unknown")."""
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def bench_fleet(
    ns: Sequence[int] = DEFAULT_NS,
    schedulers: Sequence[str] = DEFAULT_BENCH_SCHEDULERS,
    rounds: int = 3,
    cohort: int = 512,
    shard_size: int = 500,
    seed: int = 0,
    sampler: str = "uniform",
    classes: Optional[Sequence[DeviceClass]] = None,
) -> List[FleetBenchRow]:
    """Run the n-sweep and return one row per (n, scheduler) cell.

    Each cell builds a fresh seeded synthetic fleet of size ``n``,
    samples a ``cohort``-device cohort per round, and runs ``rounds``
    scheduler-planned rounds. The shard budget is fixed across rounds
    (mean cohort data), so the per-class matrix cache is exercised the
    way real multi-round runs exercise it.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    if cohort <= 0:
        raise ValueError("cohort must be positive")
    rows: List[FleetBenchRow] = []
    for n in ns:
        fleet0 = synthetic_fleet(n, seed=seed, classes=classes)
        k = min(cohort, n)
        total_shards = max(
            1, int(fleet0.data_size.mean()) * k // shard_size
        )
        for name in schedulers:
            sized = _FirstProblemSize(get_scheduler(name))
            runner = FleetRunner(
                fleet0.copy(),
                scheduler=sized,
                sampler=make_sampler(sampler, seed=seed),
                cohort_size=k,
                shard_size=shard_size,
                total_shards=total_shards,
            )
            records = runner.run(rounds)
            wall_ms = sum(r.round_ms for r in records)
            rows.append(
                FleetBenchRow(
                    n=n,
                    scheduler=name,
                    cohort=k,
                    rounds=rounds,
                    build_ms=sum(r.build_ms for r in records) / rounds,
                    solve_ms=sum(r.solve_ms for r in records) / rounds,
                    round_ms=wall_ms / rounds,
                    rounds_per_sec=(
                        rounds / (wall_ms / 1e3) if wall_ms > 0 else 0.0
                    ),
                    makespan_s=records[-1].makespan_s,
                    energy_j=sum(r.energy_j for r in records),
                    problem_mb=sized.problem_mb or 0.0,
                )
            )
    return rows


def write_bench(
    rows: Sequence[FleetBenchRow],
    path: Path,
    sha: Optional[str] = None,
) -> Dict[str, object]:
    """Write the sweep as the committed ``BENCH_fleet.json`` document.

    Schema: ``{"schema": 1, "git_sha": ..., "results": [{n, scheduler,
    cohort, rounds, build_ms, solve_ms, round_ms, rounds_per_sec,
    makespan_s, energy_j, problem_mb}, ...]}``.
    """
    doc: Dict[str, object] = {
        "schema": 1,
        "git_sha": sha if sha is not None else git_sha(),
        "results": [asdict(r) for r in rows],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def format_bench(rows: Sequence[FleetBenchRow]) -> str:
    """Aligned text table of the sweep (CLI output)."""
    headers = [
        "n",
        "scheduler",
        "cohort",
        "build_ms",
        "solve_ms",
        "round_ms",
        "rounds/s",
        "problem_mb",
    ]
    table = [headers] + [
        [
            str(r.n),
            r.scheduler,
            str(r.cohort),
            f"{r.build_ms:.2f}",
            f"{r.solve_ms:.2f}",
            f"{r.round_ms:.2f}",
            f"{r.rounds_per_sec:.1f}",
            f"{r.problem_mb:.3f}",
        ]
        for r in rows
    ]
    widths = [
        max(len(line[i]) for line in table) for i in range(len(headers))
    ]
    lines: List[str] = []
    for k, line in enumerate(table):
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
        )
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
