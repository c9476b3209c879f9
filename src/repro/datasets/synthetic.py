"""The synthetic dataset of Section 6.1.3 — the paper's exact recipe.

100 users, 8 expertise domains, per-domain expertise ``u ~ U[0, 3]``, 1000
tasks with ``mu ~ U[0, 20]`` and base number ``sigma ~ U[0.5, 5]``, each task
explicitly assigned a pre-known expertise domain (no clustering needed).
Processing times ``t ~ U[0.5, 1.5]`` hours and capacities ``T ~ U[tau-4,
tau+4]`` follow the Section 6.2 experimental setting.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import CrowdsourcingDataset, uniform_capacities
from repro.rng import ensure_rng
from repro.simulation.entities import TaskTable

__all__ = ["synthetic_dataset"]


def synthetic_dataset(
    n_users: int = 100,
    n_tasks: int = 1000,
    n_domains: int = 8,
    tau: float = 12.0,
    expertise_range: "tuple[float, float]" = (0.0, 3.0),
    truth_range: "tuple[float, float]" = (0.0, 20.0),
    base_number_range: "tuple[float, float]" = (0.5, 5.0),
    processing_time_range: "tuple[float, float]" = (0.5, 1.5),
    task_cost: float = 1.0,
    seed=None,
) -> CrowdsourcingDataset:
    """Generate the paper's synthetic dataset (defaults are the paper's)."""
    if n_users < 1 or n_tasks < 1 or n_domains < 1:
        raise ValueError("n_users, n_tasks and n_domains must be positive")
    rng = ensure_rng(seed)

    expertise = rng.uniform(*expertise_range, size=(n_users, n_domains))
    capacities = uniform_capacities(n_users, tau, rng)

    domains = rng.integers(0, n_domains, size=n_tasks)
    truths = rng.uniform(*truth_range, size=n_tasks)
    base_numbers = rng.uniform(*base_number_range, size=n_tasks)
    times = rng.uniform(*processing_time_range, size=n_tasks)
    return CrowdsourcingDataset(
        name="synthetic",
        tasks=TaskTable(truths, base_numbers, times, np.full(n_tasks, task_cost), domains),
        expertise=expertise,
        capacities=capacities,
        n_true_domains=n_domains,
        domains_known=True,
    )
