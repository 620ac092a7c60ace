"""Shared Fed-MinAvg plumbing for the non-IID experiments (Fig. 6/7,
Tables IV/V)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models.zoo import CIFAR_SHAPE, MNIST_SHAPE, build_model
from ..sched.minavg import fed_minavg
from .fig5 import DATASET_TOTALS
from .testbeds import cached_time_curves, testbed_names

__all__ = [
    "dataset_shape",
    "class_capacities",
    "schedule_minavg",
    "best_alpha_schedule",
]

_DATASET_SHAPES = {"mnist": MNIST_SHAPE, "cifar10": CIFAR_SHAPE}


def dataset_shape(dataset: str) -> Tuple[int, int, int]:
    if dataset not in _DATASET_SHAPES:
        raise KeyError(
            f"unknown dataset {dataset!r}; one of {sorted(_DATASET_SHAPES)}"
        )
    return _DATASET_SHAPES[dataset]


def class_capacities(
    user_classes: Sequence[Tuple[int, ...]],
    total_shards: int,
    num_classes: int = 10,
) -> List[int]:
    """Per-user shard capacities C_j from class availability.

    A user can at most store the data that exists of its classes: with a
    class-balanced global set of ``total_shards`` shards, each class
    accounts for ``total_shards / num_classes`` shards.
    """
    per_class = total_shards / num_classes
    return [
        max(1, int(round(len(cs) * per_class))) for cs in user_classes
    ]


def schedule_minavg(
    testbed: int,
    user_classes: Sequence[Tuple[int, ...]],
    dataset: str,
    model_name: str,
    alpha: float,
    beta: float,
    shard_size: int = 250,
    num_classes: int = 10,
    use_capacities: bool = True,
) -> np.ndarray:
    """One Fed-MinAvg run for a scenario on its testbed; returns
    per-user shard counts."""
    names = testbed_names(testbed)
    if len(user_classes) != len(names):
        raise ValueError(
            f"scenario lists {len(user_classes)} users, testbed {testbed} "
            f"has {len(names)}"
        )
    total = DATASET_TOTALS[dataset]
    shards = total // shard_size
    model = build_model(model_name, input_shape=dataset_shape(dataset))
    curves = cached_time_curves(names, model)
    caps = (
        class_capacities(user_classes, shards, num_classes)
        if use_capacities
        else None
    )
    return fed_minavg(
        curves,
        user_classes,
        total_shards=shards,
        shard_size=shard_size,
        num_classes=num_classes,
        alpha=alpha,
        beta=beta,
        capacities=caps,
    )


def best_alpha_schedule(
    testbed: int,
    user_classes: Sequence[Tuple[int, ...]],
    dataset: str,
    model_name: str,
    alphas: Sequence[float],
    beta: float,
    shard_size: int = 250,
    makespan_fn=None,
) -> Tuple[np.ndarray, float]:
    """Search alpha over a grid and keep the shard counts with the
    smallest makespan (the paper 'found the best alpha over
    [100, 5000]').

    ``makespan_fn(counts) -> seconds`` scores candidates; by default
    the profiled bottleneck (max per-user predicted time) is used.
    """
    names = testbed_names(testbed)
    model = build_model(model_name, input_shape=dataset_shape(dataset))
    curves = cached_time_curves(names, model)

    def default_makespan(counts: np.ndarray) -> float:
        samples = counts * shard_size
        return max(
            curves[j](float(s)) for j, s in enumerate(samples) if s > 0
        )

    score = makespan_fn or default_makespan
    best: Optional[np.ndarray] = None
    best_val = np.inf
    for alpha in alphas:
        sched = schedule_minavg(
            testbed,
            user_classes,
            dataset,
            model_name,
            alpha=alpha,
            beta=beta,
            shard_size=shard_size,
        )
        val = float(score(sched))
        if val < best_val:
            best_val = val
            best = sched
    assert best is not None
    return best, best_val
