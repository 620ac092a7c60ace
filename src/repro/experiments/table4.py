"""Table IV — Fed-MinAvg schedules for the three scenarios.

For each scenario S(I)-S(III) and each (alpha, beta) in {(100,0),
(5000,0), (100,2), (5000,2)}, report the per-device allocation in
thousands of samples (CIFAR10-LeNet, matching the paper's table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .minavg_runs import schedule_minavg
from .runner import ExperimentResult
from .scenarios import SCENARIOS, scenario_classes, scenario_testbed
from .testbeds import testbed_names

__all__ = ["Table4Config", "run", "PARAM_POINTS"]

#: the paper's four (alpha, beta) columns p1..p4
PARAM_POINTS: Tuple[Tuple[float, float], ...] = (
    (100.0, 0.0),
    (5000.0, 0.0),
    (100.0, 2.0),
    (5000.0, 2.0),
)


@dataclass
class Table4Config:
    scenarios: Tuple[str, ...] = ("S1", "S2", "S3")
    dataset: str = "cifar10"
    model: str = "lenet"
    shard_size: int = 250

    @classmethod
    def paper(cls) -> "Table4Config":
        """Full protocol: the paper's 100-sample shard granularity."""
        return cls(shard_size=100)


def run(config: Optional[Table4Config] = None) -> ExperimentResult:
    """Reproduce Table IV: per-device allocations under p1..p4."""
    cfg = config or Table4Config()
    result = ExperimentResult(
        name="table4",
        description="Fed-MinAvg schedules (10^3 samples per device), "
        f"{cfg.dataset}-{cfg.model}",
        columns=["scenario", "device", "classes", "p1", "p2", "p3", "p4"],
    )
    for scen in cfg.scenarios:
        tb = scenario_testbed(scen)
        classes = scenario_classes(scen)
        names = testbed_names(tb)
        allocations = []
        for alpha, beta in PARAM_POINTS:
            sched = schedule_minavg(
                tb,
                classes,
                cfg.dataset,
                cfg.model,
                alpha=alpha,
                beta=beta,
                shard_size=cfg.shard_size,
            )
            allocations.append(sched * cfg.shard_size / 1e3)
        for j, (name, cls) in enumerate(zip(names, classes)):
            result.add_row(
                scenario=scen,
                device=f"{name}({j})",
                classes=str(cls),
                p1=float(allocations[0][j]),
                p2=float(allocations[1][j]),
                p3=float(allocations[2][j]),
                p4=float(allocations[3][j]),
            )
    result.add_note(
        "paper shape: large alpha starves few-class devices (p2/p4 have "
        "zeros where p1/p3 do not); beta=2 keeps unique-class outliers "
        "in the schedule"
    )
    return result
