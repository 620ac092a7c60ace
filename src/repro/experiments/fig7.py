"""Fig. 7 — computation time per global update with non-IID data.

Random class distributions are drawn per testbed; Fed-MinAvg (best
alpha over [100, 5000], beta = 0, as in the paper) is compared with
Proportional / Random / Equal on realized makespan. Average speedups in
the paper: 1.3x / 8x / 6x (MNIST) and ~1.9x / 2.1x / 1.7x (CIFAR10)
across testbeds 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..data.partition import nclass_noniid_classes
from ..device.registry import build_spec
from ..models.zoo import build_model
from ..sched.baselines import (
    equal_schedule,
    proportional_schedule,
    random_schedule,
)
from .fig5 import DATASET_TOTALS
from .minavg_runs import best_alpha_schedule, dataset_shape
from .realized import realized_makespan
from .runner import ExperimentResult
from .testbeds import testbed_names

__all__ = ["Fig7Config", "run"]


@dataclass
class Fig7Config:
    testbeds: Tuple[int, ...] = (1, 2, 3)
    datasets: Tuple[str, ...] = ("mnist", "cifar10")
    models: Tuple[str, ...] = ("lenet", "vgg6")
    alphas: Tuple[float, ...] = (100.0, 500.0, 1000.0, 2500.0, 5000.0)
    shard_size: int = 250
    #: classes per user in the random non-IID draws
    classes_per_user: int = 4
    #: random class-distribution permutations averaged per cell
    permutations: int = 2
    seed: int = 23

    @classmethod
    def paper(cls) -> "Fig7Config":
        """Full protocol: 100-sample shards, dense alpha grid, 10
        random class-distribution permutations per cell."""
        return cls(
            alphas=(100.0, 250.0, 500.0, 1000.0, 2000.0, 3500.0, 5000.0),
            shard_size=100,
            permutations=10,
        )


def run(config: Optional[Fig7Config] = None) -> ExperimentResult:
    """Reproduce Fig. 7: the non-IID makespan grid."""
    cfg = config or Fig7Config()
    result = ExperimentResult(
        name="fig7",
        description="computation time per global update, non-IID data "
        "(realized makespan, seconds; best alpha, beta=0)",
        columns=[
            "dataset",
            "model",
            "testbed",
            "proportional",
            "random",
            "equal",
            "fed-minavg",
            "speedup",
        ],
    )
    for ds in cfg.datasets:
        shards = DATASET_TOTALS[ds] // cfg.shard_size
        for model_name in cfg.models:
            model = build_model(
                model_name, input_shape=dataset_shape(ds)
            )
            for tb in cfg.testbeds:
                names = testbed_names(tb)
                n = len(names)
                sums: Dict[str, float] = {
                    k: 0.0
                    for k in (
                        "proportional",
                        "random",
                        "equal",
                        "fed-minavg",
                    )
                }
                for perm in range(cfg.permutations):
                    rng = np.random.default_rng(
                        cfg.seed + 1009 * perm + tb
                    )
                    classes = nclass_noniid_classes(
                        n, cfg.classes_per_user, 10, rng
                    )
                    sched, _ = best_alpha_schedule(
                        tb,
                        classes,
                        ds,
                        model_name,
                        alphas=cfg.alphas,
                        beta=0.0,
                        shard_size=cfg.shard_size,
                    )
                    sums["fed-minavg"] += realized_makespan(
                        sched * cfg.shard_size, names, model
                    )
                    base_scheds = {
                        "proportional": proportional_schedule(
                            [build_spec(nm) for nm in names], shards
                        ),
                        "random": random_schedule(n, shards, rng),
                        "equal": equal_schedule(n, shards),
                    }
                    for k, s in base_scheds.items():
                        sums[k] += realized_makespan(
                            s * cfg.shard_size, names, model
                        )
                cell = {
                    k: v / cfg.permutations for k, v in sums.items()
                }
                best_baseline = min(
                    cell["proportional"], cell["random"], cell["equal"]
                )
                result.add_row(
                    dataset=ds,
                    model=model_name,
                    testbed=tb,
                    speedup=best_baseline / cell["fed-minavg"],
                    **cell,
                )
    result.add_note(
        "paper shape: Fed-MinAvg keeps an overall speedup under "
        "non-IID constraints, largest where worst-case stragglers "
        "(Nexus6P, testbed 2) are present"
    )
    return result
