"""Fig. 6 — effectiveness of alpha and beta on time and accuracy.

For each scenario S(I)-S(III), sweep alpha over [100, 5000] with
beta in {0, 2}: the top panels trace the realized training time of the
Fed-MinAvg schedule, the bottom panels its accuracy (FedAvg replay of
the allocation shape on the mini dataset with the scenario's class
sets).

Paper shapes to reproduce:

* beta=0: time trends *up* with alpha (workload concentrates on
  many-class devices, losing parallelism);
* beta=2: outliers get subsidised at small alpha (time above the
  beta=0 curve), re-balancing as alpha grows;
* accuracy vs alpha falls for S(I)/S(II) (unique-class outliers get
  excluded) but rises for S(III) (outlier classes are covered
  elsewhere, exclusion is free or helpful);
* beta=2 lifts accuracy by ~0.02-0.03 where outliers hold unique
  classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.accuracy_cost import class_coverage
from ..models.zoo import build_model
from .flruns import FLRunConfig, accuracy_of_schedule
from .minavg_runs import dataset_shape, schedule_minavg
from .realized import realized_makespan
from .runner import ExperimentResult
from .scenarios import scenario_classes, scenario_testbed
from .testbeds import testbed_names

__all__ = ["Fig6Config", "run"]


@dataclass
class Fig6Config:
    scenarios: Tuple[str, ...] = ("S1", "S2", "S3")
    alphas: Tuple[float, ...] = (100.0, 500.0, 1000.0, 2500.0, 5000.0)
    betas: Tuple[float, ...] = (0.0, 2.0)
    dataset: str = "cifar10"
    model: str = "lenet"
    shard_size: int = 100
    #: train the accuracy replay (set False for time-only sweeps)
    with_accuracy: bool = True
    fl: FLRunConfig = field(default_factory=FLRunConfig)

    @classmethod
    def paper(cls) -> "Fig6Config":
        """Full protocol: a dense alpha grid over [100, 5000] with 50
        CIFAR10 epochs per point."""
        return cls(
            alphas=(100.0, 250.0, 500.0, 1000.0, 2000.0, 3500.0, 5000.0),
            fl=FLRunConfig(model="lenet", rounds=50, lr=0.01),
        )


def run(config: Optional[Fig6Config] = None) -> ExperimentResult:
    """Reproduce Fig. 6: time and accuracy across the (alpha, beta) grid."""
    cfg = config or Fig6Config()
    result = ExperimentResult(
        name="fig6",
        description="effect of alpha/beta on Fed-MinAvg training time "
        "and accuracy",
        columns=[
            "scenario",
            "alpha",
            "beta",
            "makespan_s",
            "coverage",
            "accuracy",
        ],
    )
    model = build_model(cfg.model, input_shape=dataset_shape(cfg.dataset))
    for scen in cfg.scenarios:
        tb = scenario_testbed(scen)
        classes = scenario_classes(scen)
        names = testbed_names(tb)
        for beta in cfg.betas:
            for alpha in cfg.alphas:
                sched = schedule_minavg(
                    tb,
                    classes,
                    cfg.dataset,
                    cfg.model,
                    alpha=alpha,
                    beta=beta,
                    shard_size=cfg.shard_size,
                )
                makespan = realized_makespan(
                    sched * cfg.shard_size, names, model
                )
                acc = None
                if cfg.with_accuracy:
                    acc = accuracy_of_schedule(
                        f"{cfg.dataset}_mini",
                        sched,
                        classes,
                        cfg.fl,
                    )
                result.add_row(
                    scenario=scen,
                    alpha=alpha,
                    beta=beta,
                    makespan_s=makespan,
                    coverage=class_coverage(sched, classes, 10),
                    accuracy=acc if acc is not None else float("nan"),
                )
    result.add_note(
        "paper shape: beta=0 time rises with alpha; beta=2 subsidises "
        "unique-class outliers (higher time at small alpha, +0.02-0.03 "
        "accuracy in S1/S2); S3 accuracy rises with alpha instead"
    )
    return result
