"""Categorical extension experiment: expertise-aware voting vs baselines.

Runs the ETA2 day loop on the categorical SFV-like dataset: tasks arrive
daily, each approach allocates (respecting per-user capacity), answers are
sampled from hidden per-domain accuracies, and the day's labels are
estimated from all answers collected so far.  Three approaches:

- ``expertise-voting`` — per-(user, domain) accuracies (EM), allocation by
  the max-quality greedy driven by those accuracies (the categorical ETA2),
- ``dawid-skene``      — scalar per-user accuracy (EM), reliability-greedy
  allocation (the categorical reliability baseline),
- ``majority-vote``    — random allocation + majority (the lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation.base import AllocationProblem, expertise_for_accuracy
from repro.core.allocation.baselines import RandomAllocator, ReliabilityGreedyAllocator
from repro.core.allocation.max_quality import MaxQualityAllocator
from repro.datasets.base import evenly_distributed_days
from repro.datasets.categorical import CategoricalDataset, categorical_sfv_dataset
from repro.experiments.reporting import format_series
from repro.rng import ensure_rng
from repro.truthdiscovery.categorical import (
    CategoricalObservations,
    DawidSkene,
    ExpertiseVoting,
    MajorityVote,
)
from repro.truthdiscovery.categorical.base import MISSING

__all__ = ["CategoricalComparison", "categorical_day_loop", "categorical_comparison"]

APPROACH_NAMES = ("expertise-voting", "dawid-skene", "majority-vote")


@dataclass(frozen=True)
class CategoricalComparison:
    """Per-day label accuracy for the three categorical approaches."""

    days: tuple
    accuracy_series: dict

    def render(self) -> str:
        return format_series(
            "day",
            self.days,
            self.accuracy_series,
            precision=3,
            title="Categorical extension: label accuracy by day (SFV-like)",
        )


def _merge(cumulative: "CategoricalObservations | None", new: CategoricalObservations) -> CategoricalObservations:
    if cumulative is None:
        return new
    answers = np.hstack([cumulative.answers, new.answers])
    n_choices = np.concatenate([cumulative.n_choices, new.n_choices])
    return CategoricalObservations(answers=answers, n_choices=n_choices)


def categorical_day_loop(
    dataset: CategoricalDataset,
    approach: str,
    n_days: int = 5,
    tasks_per_user_per_day: float = 8.0,
    seed=None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Run one approach over the dataset; returns (day_accuracies, final_reliabilities).

    Capacity is expressed in tasks/day (unit processing times).
    """
    if approach not in APPROACH_NAMES:
        raise ValueError(f"unknown approach {approach!r}")
    rng = ensure_rng(seed)
    schedule_rng, observe_rng, alloc_rng = rng.spawn(3)
    schedule = evenly_distributed_days(dataset.n_tasks, n_days, schedule_rng)

    n_users = dataset.n_users
    capacities = np.full(n_users, float(tasks_per_user_per_day))
    random_allocator = RandomAllocator(seed=alloc_rng)

    cumulative: "CategoricalObservations | None" = None
    cumulative_domains: list = []
    day_accuracies = np.full(n_days, np.nan)
    scalar_reliability: "np.ndarray | None" = None
    domain_accuracy: "dict | None" = None
    estimate = None

    for day in range(n_days):
        task_indices = np.flatnonzero(schedule == day)
        if task_indices.size == 0:
            continue
        day_domains = dataset.task_domains[task_indices]
        times = np.ones(task_indices.size)

        if day > 0 and approach == "expertise-voting":
            distinct, domain_columns = np.unique(day_domains, return_inverse=True)
            accuracy = np.vstack(
                [domain_accuracy.get(d, np.full(n_users, 0.5)) for d in distinct.tolist()]
            ).T
            expertise, allocator = expertise_for_accuracy(accuracy), MaxQualityAllocator()
        else:
            # Expertise-free: one default column read by every task.
            expertise = np.ones((n_users, 1))
            domain_columns = np.zeros(task_indices.size, dtype=np.intp)
            if day == 0 or approach == "majority-vote":
                allocator = random_allocator
            else:  # dawid-skene
                allocator = ReliabilityGreedyAllocator(scalar_reliability)
        problem = AllocationProblem(
            expertise=expertise,
            domain_columns=domain_columns,
            processing_times=times,
            capacities=capacities,
        )
        assignment = allocator.allocate(problem)

        day_answers = CategoricalObservations(
            answers=dataset_observe_columns(dataset, assignment.matrix, task_indices, observe_rng),
            n_choices=dataset.n_choices[task_indices],
        )
        cumulative = _merge(cumulative, day_answers)
        cumulative_domains.extend(day_domains.tolist())

        if approach == "expertise-voting":
            estimate = ExpertiseVoting().estimate(cumulative, np.asarray(cumulative_domains))
            domain_accuracy = estimate.extras["domain_accuracies"]
        elif approach == "dawid-skene":
            estimate = DawidSkene().estimate(cumulative)
            scalar_reliability = estimate.reliabilities
        else:
            estimate = MajorityVote().estimate(cumulative)

        day_labels = estimate.labels[-task_indices.size :]
        day_accuracies[day] = float(np.mean(day_labels == dataset.true_labels[task_indices]))

    reliabilities = estimate.reliabilities if estimate is not None else np.ones(n_users)
    return day_accuracies, reliabilities


def dataset_observe_columns(
    dataset: CategoricalDataset, assignment_mask: np.ndarray, task_indices: np.ndarray, rng
) -> np.ndarray:
    """Sample answers for a day's tasks (columns restricted to the day)."""
    rng = ensure_rng(rng)
    answers = np.full(assignment_mask.shape, MISSING, dtype=int)
    for user, local in zip(*np.nonzero(assignment_mask)):
        answers[user, local] = dataset.answer(int(user), int(task_indices[local]), rng)
    return answers


def categorical_comparison(
    n_days: int = 5,
    n_tasks: int = 300,
    replications: int = 3,
    seed: int = 2017,
) -> CategoricalComparison:
    """Average the day loop over replications for all three approaches."""
    series: dict = {name: np.zeros(n_days) for name in APPROACH_NAMES}
    rng = ensure_rng(seed)
    for _ in range(replications):
        dataset_seed, loop_seed = rng.spawn(2)
        dataset = categorical_sfv_dataset(n_tasks=n_tasks, seed=dataset_seed)
        for name in APPROACH_NAMES:
            accuracies, _ = categorical_day_loop(dataset, name, n_days=n_days, seed=loop_seed)
            series[name] += accuracies
    for name in APPROACH_NAMES:
        series[name] = (series[name] / replications).tolist()
    return CategoricalComparison(days=tuple(range(1, n_days + 1)), accuracy_series=series)
