"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fl_train --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the workload's fixed episode once untraced and once
with spans around every layer boundary (see ``probes.py``) and reports
the per-layer metrics, including the tracing overhead. Either way the
workload's outputs are checked; the last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``), and
the exit code is 0 only when every check passed.

The program is imported from this checkout's ``src/``; without it the
run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: one BLAS thread on every host: the models' matrices are small (20-row
#: batches), so threads add contention noise rather than speed
BLAS_THREADS = "1"
_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _peak_rss_mb() -> float:
    import resource

    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_program() -> Optional[str]:
    """Put this checkout's ``src`` first on the path; returns an error
    message when the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return f"no program at {SRC}"
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(where) != SRC:
        return f"repro imported from {where}, not from {SRC}"
    return None


def _table(rows: List[Tuple[str, float, str]]) -> str:
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(
        f"{name:<{width}}  {value:>16.6f} {unit}" for name, value, unit in rows
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("fl_train", "fleet_sched", "serve_churn"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")

    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    error = _import_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import END_TO_END, WORKLOADS

    run = WORKLOADS[args.workload]
    metrics: Dict[str, Tuple[float, str]]
    if args.trace:
        from probes import install, per_layer_metrics
        from tracing import Tracer

        # the fixed episode twice: untraced for the overhead base, then
        # traced (set-up included, so set-up layers show)
        base = run(args.seed, 0.0, setups=1)
        tracer = Tracer()
        install(tracer)
        try:
            result = run(args.seed, 0.0, setups=1)
        finally:
            tracer.uninstall()
        result.layer["bench.trace_overhead_pct"] = (
            result.timed_ref / base.timed_ref - 1.0
        ) * 100.0
        metrics = per_layer_metrics(
            tracer, result.layer, result.timed_s / result.timed_ref
        )
        print(f"== spans: {len(tracer.names)} recorded ==")
        print(f"{'span':<28} {'calls':>9} {'busy ms':>12} {'self ms':>12}")
        for name, (calls, busy_s, self_s) in sorted(tracer.by_name().items()):
            print(f"{name:<28} {calls:>9} {busy_s * 1e3:>12.3f} {self_s * 1e3:>12.3f}")
        result.attempted += base.attempted
        result.failed += base.failed
        result.problems = base.problems + result.problems
    else:
        result = run(args.seed, args.seconds)
        result.e2e["peak_rss_mb"] = _peak_rss_mb()
        metrics = {name: (result.e2e[name], unit) for name, unit in END_TO_END}

    print(f"== {args.workload} seed={args.seed} trace={args.trace} ==")
    rows = [(n, v, u) for n, (v, u) in metrics.items()]
    if not args.trace:
        rows += [(n, v, u) for n, (v, u) in result.named.items()]
    print(_table(rows))
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    n: {"value": v, "unit": u} for n, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
