"""SFV-like dataset (substitute for the Section 6.1.2 TAC-KBP SFV data).

The original: 18 slot-filling systems answered ~2,000 questions about the
properties of 100 entities.  What makes SFV interesting for expertise-aware
analysis is that automatic slot-filling systems are *strongly specialised* —
excellent on some slot types, poor on others.  The generator reproduces
that: 18 users with low background expertise and a few high-expertise
domains each, answering entity-property questions templated from the
topical vocabularies.

The default task count is scaled to 180 (not 2,000): with 18 users of daily
capability ``tau = 12`` and ``t ~ U[1, 2]`` hours, 2,000 tasks over five
days would leave most tasks with no observer at all, and even 360 leaves
only ~2 observers per task — too few for any method to distinguish
specialists.  At 180 each task draws ~4 observers, the regime where the
paper's SFV results live.  The count is a constructor argument, so larger
variants are one call away.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import CrowdsourcingDataset, uniform_capacities
from repro.datasets.templates import generate_question
from repro.rng import ensure_rng
from repro.semantics.vocab import DOMAIN_VOCABULARIES
from repro.simulation.entities import TaskTable

__all__ = ["sfv_dataset"]


def sfv_dataset(
    n_users: int = 18,
    n_tasks: int = 180,
    tau: float = 12.0,
    strong_domains_per_user: int = 3,
    background_expertise: "tuple[float, float]" = (0.1, 0.6),
    strong_expertise: "tuple[float, float]" = (1.8, 3.0),
    truth_range: "tuple[float, float]" = (0.0, 20.0),
    base_number_range: "tuple[float, float]" = (0.5, 5.0),
    processing_time_range: "tuple[float, float]" = (1.0, 2.0),
    task_cost: float = 1.0,
    seed=None,
) -> CrowdsourcingDataset:
    """Generate the SFV-like dataset of specialised slot-filling systems."""
    if n_users < 1 or n_tasks < 1:
        raise ValueError("n_users and n_tasks must be positive")
    rng = ensure_rng(seed)
    domains = DOMAIN_VOCABULARIES
    n_domains = len(domains)

    expertise = rng.uniform(*background_expertise, size=(n_users, n_domains))
    for user in range(n_users):
        strong = rng.choice(n_domains, size=min(strong_domains_per_user, n_domains), replace=False)
        expertise[user, strong] = rng.uniform(*strong_expertise, size=strong.size)
    capacities = uniform_capacities(n_users, tau, rng)

    truths = rng.uniform(*truth_range, size=n_tasks)
    base_numbers = rng.uniform(*base_number_range, size=n_tasks)
    times = rng.uniform(*processing_time_range, size=n_tasks)
    task_domains = np.empty(n_tasks, dtype=np.intp)
    descriptions = []
    for j in range(n_tasks):
        task_domains[j] = rng.integers(n_domains)
        descriptions.append(generate_question(domains[task_domains[j]], rng)[0])
    costs = np.full(n_tasks, task_cost)
    return CrowdsourcingDataset(
        name="sfv",
        tasks=TaskTable(truths, base_numbers, times, costs, task_domains, descriptions),
        expertise=expertise,
        capacities=capacities,
        n_true_domains=n_domains,
        domains_known=False,
    )
