"""Fig. 5 — computation time per global update with IID data.

For every (testbed, dataset, model) combination, schedule the full
training set with Fed-LBAP and the three baselines, then measure the
realized synchronous-round makespan on the simulated devices. The
paper's headline: Fed-LBAP achieves 5-10x average speedups (up to two
orders of magnitude on Testbed 2, where the Nexus 6P straggles) and is
the only scheme whose time *decreases* as more devices join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.cost import build_cost_matrix, comm_costs_for
from ..device.registry import build_spec
from ..models.zoo import CIFAR_SHAPE, MNIST_SHAPE, build_model
from ..network.link import make_link
from ..sched.baselines import (
    equal_schedule,
    proportional_schedule,
    random_schedule,
)
from ..sched.lbap import fed_lbap
from .realized import realized_makespan
from .runner import ExperimentResult
from .testbeds import cached_time_curves, testbed_names

__all__ = ["Fig5Config", "run", "DATASET_TOTALS", "schedule_iid"]

#: training-set sizes of the paper's datasets
DATASET_TOTALS: Dict[str, int] = {"mnist": 60_000, "cifar10": 50_000}
_DATASET_SHAPES = {"mnist": MNIST_SHAPE, "cifar10": CIFAR_SHAPE}


@dataclass
class Fig5Config:
    testbeds: Tuple[int, ...] = (1, 2, 3)
    datasets: Tuple[str, ...] = ("mnist", "cifar10")
    models: Tuple[str, ...] = ("lenet", "vgg6")
    shard_size: int = 500
    link: str = "wifi"
    #: random-baseline repetitions averaged per cell
    random_repeats: int = 3
    seed: int = 0

    @classmethod
    def paper(cls) -> "Fig5Config":
        """Full protocol: the paper's 100-sample shard granularity and
        10 averaged runs per cell (the default differs only in shard
        size and repeat count)."""
        return cls(shard_size=100, random_repeats=10)


def schedule_iid(
    scheduler: str,
    testbed: int,
    dataset: str,
    model_name: str,
    shard_size: int,
    rng: Optional[np.random.Generator] = None,
    links=None,
):
    """Produce one scheduler's allocation for a Fig. 5 cell.

    ``links`` optionally supplies one Link per user so Fed-LBAP sees
    heterogeneous communication costs (Eq. 2's per-user T_u + T_d); by
    default communication is uniform and treated as a constant, as in
    the paper's main comparison. Returns per-user shard counts.
    """
    names = testbed_names(testbed)
    n = len(names)
    total = DATASET_TOTALS[dataset]
    shards = total // shard_size
    model = build_model(model_name, input_shape=_DATASET_SHAPES[dataset])
    if scheduler == "fed-lbap":
        curves = cached_time_curves(names, model)
        comm = comm_costs_for(model, links) if links is not None else None
        cost = build_cost_matrix(
            curves, shards, shard_size, comm_costs=comm
        )
        counts, _ = fed_lbap(cost, shards)
        return counts
    if scheduler == "equal":
        return equal_schedule(n, shards)
    if scheduler == "random":
        rng = rng or np.random.default_rng(0)
        return random_schedule(n, shards, rng)
    if scheduler == "proportional":
        specs = [build_spec(name) for name in names]
        return proportional_schedule(specs, shards)
    raise KeyError(f"unknown scheduler {scheduler!r}")


def run(config: Optional[Fig5Config] = None) -> ExperimentResult:
    """Reproduce Fig. 5: the full makespan grid plus speedup columns."""
    cfg = config or Fig5Config()
    result = ExperimentResult(
        name="fig5",
        description="computation time per global update, IID data "
        "(realized makespan, seconds)",
        columns=[
            "dataset",
            "model",
            "testbed",
            "proportional",
            "random",
            "equal",
            "fed-lbap",
            "speedup",
        ],
    )
    link = make_link(cfg.link)
    for ds in cfg.datasets:
        shape = _DATASET_SHAPES[ds]
        for model_name in cfg.models:
            model = build_model(model_name, input_shape=shape)
            for tb in cfg.testbeds:
                names = testbed_names(tb)
                cell: Dict[str, float] = {}
                for scheduler in (
                    "proportional",
                    "random",
                    "equal",
                    "fed-lbap",
                ):
                    if scheduler == "random":
                        vals = []
                        for r in range(cfg.random_repeats):
                            rng = np.random.default_rng(
                                cfg.seed + 7919 * r
                            )
                            sched = schedule_iid(
                                scheduler, tb, ds, model_name,
                                cfg.shard_size, rng,
                            )
                            vals.append(
                                realized_makespan(
                                    sched * cfg.shard_size,
                                    names,
                                    model,
                                    link=link,
                                )
                            )
                        cell[scheduler] = float(np.mean(vals))
                    else:
                        sched = schedule_iid(
                            scheduler, tb, ds, model_name, cfg.shard_size
                        )
                        cell[scheduler] = realized_makespan(
                            sched * cfg.shard_size, names, model, link=link
                        )
                best_baseline = min(
                    cell["proportional"], cell["random"], cell["equal"]
                )
                result.add_row(
                    dataset=ds,
                    model=model_name,
                    testbed=tb,
                    speedup=best_baseline / cell["fed-lbap"],
                    **cell,
                )
    result.add_note(
        "paper shape: Fed-LBAP 5-10x faster on average; largest gain on "
        "testbed 2 (Nexus6P stragglers); baselines do not scale with "
        "more users, Fed-LBAP does"
    )
    return result
