"""Spatial extension experiment: travel-aware vs travel-oblivious allocation.

In a city, assigning a task to a far-away expert can cost more capacity
than assigning it to a nearby generalist.  Two planners are compared on the
same spatial instance:

- **travel-aware** — allocates with the true per-pair times
  ``t_ij = sensing_j + round_trip(i, j)`` (the generalised Algorithm 1);
- **travel-oblivious** — plans with sensing times only (the paper's model),
  then hits reality at execution: each user performs its assigned tasks in
  the planner's order until the *true* cumulative time exceeds capacity,
  and the overflow tasks are abandoned.

Both use the same (oracle) expertise so the comparison isolates the
allocation decision.  The travel-aware planner should complete more of its
plan and achieve a lower estimation error, with the gap widening as travel
gets slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment
from repro.core.allocation.max_quality import MaxQualityAllocator
from repro.core.truth import estimate_truth
from repro.experiments.reporting import format_series
from repro.rng import ensure_rng, spawn_rngs
from repro.spatial.dataset import SpatialDataset, spatial_synthetic_dataset

__all__ = ["SpatialComparison", "run_spatial_instance", "spatial_comparison"]


@dataclass(frozen=True)
class SpatialComparison:
    """Per-speed outcomes for both planners.

    ``quality_series`` is the deployment-relevant headline: the fraction of
    *all* tasks whose estimate lands within ``eps_bar`` base numbers of the
    truth — tasks nobody reached count as failures.  The per-covered-task
    error alone would reward a planner that abandons most of the city (the
    coverage-collapse artifact).
    """

    speeds: tuple
    error_series: dict
    coverage_series: dict
    completion_series: dict
    quality_series: dict
    eps_bar: float

    def render(self) -> str:
        blocks = [
            format_series(
                "speed",
                self.speeds,
                self.quality_series,
                precision=3,
                title=(
                    "Spatial extension: fraction of tasks estimated within "
                    f"{self.eps_bar} base numbers (unreached tasks count as failures)"
                ),
            ),
            format_series(
                "speed",
                self.speeds,
                self.coverage_series,
                precision=3,
                title="Spatial extension: fraction of tasks with at least one observation",
            ),
            format_series(
                "speed",
                self.speeds,
                self.error_series,
                precision=3,
                title="Spatial extension: estimation error on covered tasks",
            ),
            format_series(
                "speed",
                self.speeds,
                self.completion_series,
                precision=3,
                title="Spatial extension: fraction of planned pairs actually executed",
            ),
        ]
        return "\n\n".join(blocks)


def _execute_plan(
    assignment: Assignment, true_times: np.ndarray, capacities: np.ndarray
) -> Assignment:
    """Execute a plan against the true per-pair times.

    Each user performs its assigned tasks in ascending task order until the
    next task would exceed its capacity; the rest are abandoned.
    """
    executed = Assignment.empty(assignment.n_users, assignment.n_tasks)
    for user in range(assignment.n_users):
        budget = float(capacities[user])
        for task in assignment.tasks_of_user(user):
            cost = float(true_times[user, task])
            if cost <= budget + 1e-12:
                executed.matrix[user, task] = True
                budget -= cost
    return executed


def run_spatial_instance(
    dataset: SpatialDataset,
    speed: float,
    travel_aware: bool,
    seed=None,
    eps_bar: float = 0.5,
) -> "tuple[float, float, float, float]":
    """One planner on one instance.

    Returns ``(error_on_covered, coverage, completion, quality)`` where
    quality is the fraction of all tasks estimated within ``eps_bar`` base
    numbers (unreached tasks are failures).  Expertise is the hidden truth
    (oracle) for both planners, isolating the effect of the time model on
    allocation.
    """
    rng = ensure_rng(seed)
    true_times = dataset.pair_times(speed)
    expertise = dataset.task_expertise()

    planning_times = true_times if travel_aware else dataset.sensing_times
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=planning_times,
        capacities=dataset.capacities,
    )
    plan = MaxQualityAllocator().allocate(problem)
    executed = _execute_plan(plan, true_times, dataset.capacities)
    completion = executed.pair_count / max(plan.pair_count, 1)

    observations = executed.collect(lambda pairs: dataset.observe_pairs(pairs, rng))
    if observations.observation_count == 0:
        return float("nan"), 0.0, float(completion), 0.0
    result = estimate_truth(observations, dataset.task_domains)
    errors = np.abs(result.truths - dataset.true_values) / dataset.base_numbers
    coverage = float(np.mean(executed.matrix.any(axis=0)))
    quality = float(np.mean(np.where(np.isnan(errors), False, errors < eps_bar)))
    return float(np.nanmean(errors)), coverage, float(completion), quality


def spatial_comparison(
    speeds: Sequence[float] = (2.0, 4.0, 8.0),
    replications: int = 3,
    n_users: int = 60,
    n_tasks: int = 150,
    seed: int = 2017,
) -> SpatialComparison:
    """Sweep travel speed for both planners, averaging over replications."""
    names = ("travel-aware", "travel-oblivious")
    error_series: dict = {name: [] for name in names}
    coverage_series: dict = {name: [] for name in names}
    completion_series: dict = {name: [] for name in names}
    quality_series: dict = {name: [] for name in names}
    eps_bar = 0.5
    for speed in speeds:
        per_run: dict = {name: [] for name in names}
        for rng in spawn_rngs(seed, replications):
            dataset_seed, run_seed = rng.spawn(2)
            dataset = spatial_synthetic_dataset(
                n_users=n_users, n_tasks=n_tasks, seed=dataset_seed
            )
            for name, aware in (("travel-aware", True), ("travel-oblivious", False)):
                per_run[name].append(
                    run_spatial_instance(
                        dataset, speed, travel_aware=aware, seed=run_seed, eps_bar=eps_bar
                    )
                )
        for name in names:
            runs = np.asarray(per_run[name], dtype=float)
            error_series[name].append(float(np.nanmean(runs[:, 0])))
            coverage_series[name].append(float(np.mean(runs[:, 1])))
            completion_series[name].append(float(np.mean(runs[:, 2])))
            quality_series[name].append(float(np.mean(runs[:, 3])))
    return SpatialComparison(
        speeds=tuple(speeds),
        error_series=error_series,
        coverage_series=coverage_series,
        completion_series=completion_series,
        quality_series=quality_series,
        eps_bar=eps_bar,
    )
