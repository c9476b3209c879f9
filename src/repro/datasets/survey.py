"""Survey-like dataset (substitute for the Section 6.1.1 campus survey).

The original: 60 participants answered 89 questions about daily life and
general knowledge, replicated to 150 by adding time/location conditions.
This generator reproduces the structure: 60 users with moderate background
expertise plus a few strong domains each (students know some topics well),
and 150 templated questions across the built-in topical domains — a base set
plus qualified replicas.  Ground truth, base numbers and processing times
follow the paper's experimental settings (``t ~ U[2, 4]`` hours).

The default expertise ranges are calibrated so that per-task observation
samples pass the Table 1 chi-square normality test at roughly the paper's
~90% non-rejection rate: a mixture of normals with wildly different
variances is visibly non-normal, so the background/strong gap is kept to
about 2x in standard deviation — still a 4x weight ratio for the MLE, and
enough for ETA2's expertise awareness to pay off.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import CrowdsourcingDataset, uniform_capacities
from repro.datasets.templates import generate_question
from repro.rng import ensure_rng
from repro.semantics.vocab import DOMAIN_VOCABULARIES
from repro.simulation.entities import TaskTable

__all__ = ["survey_dataset"]


def survey_dataset(
    n_users: int = 60,
    n_tasks: int = 150,
    tau: float = 12.0,
    base_questions: "int | None" = None,
    strong_domains_per_user: int = 2,
    background_expertise: "tuple[float, float]" = (0.6, 1.4),
    strong_expertise: "tuple[float, float]" = (1.6, 2.4),
    truth_range: "tuple[float, float]" = (0.0, 20.0),
    base_number_range: "tuple[float, float]" = (0.5, 5.0),
    processing_time_range: "tuple[float, float]" = (2.0, 4.0),
    task_cost: float = 1.0,
    seed=None,
) -> CrowdsourcingDataset:
    """Generate the survey-like dataset (defaults mirror the paper's sizes)."""
    if n_users < 1 or n_tasks < 1:
        raise ValueError("n_users and n_tasks must be positive")
    if base_questions is None:
        # The paper had 89 base questions replicated to 150; scale the same
        # ~60/40 split when a smaller task count is requested.
        base_questions = min(89, max(1, round(n_tasks * 89 / 150)))
    if not 1 <= base_questions <= n_tasks:
        raise ValueError("base_questions must lie in [1, n_tasks]")
    rng = ensure_rng(seed)
    domains = DOMAIN_VOCABULARIES
    n_domains = len(domains)

    expertise = rng.uniform(*background_expertise, size=(n_users, n_domains))
    for user in range(n_users):
        strong = rng.choice(n_domains, size=min(strong_domains_per_user, n_domains), replace=False)
        expertise[user, strong] = rng.uniform(*strong_expertise, size=strong.size)
    capacities = uniform_capacities(n_users, tau, rng)

    # Base questions, then qualified replicas of randomly chosen base ones
    # (the paper replicated 89 questions into 150 by varying time/location).
    question_domains: list = []
    descriptions: list = []
    for _ in range(base_questions):
        domain_index = int(rng.integers(n_domains))
        question, _, _ = generate_question(domains[domain_index], rng, qualifier_probability=0.0)
        question_domains.append(domain_index)
        descriptions.append(question)
    while len(descriptions) < n_tasks:
        source = int(rng.integers(base_questions))
        domain_index = question_domains[source]
        question, _, _ = generate_question(domains[domain_index], rng, qualifier_probability=1.0)
        question_domains.append(domain_index)
        descriptions.append(question)

    truths = rng.uniform(*truth_range, size=n_tasks)
    base_numbers = rng.uniform(*base_number_range, size=n_tasks)
    times = rng.uniform(*processing_time_range, size=n_tasks)
    costs = np.full(n_tasks, task_cost)
    return CrowdsourcingDataset(
        name="survey",
        tasks=TaskTable(truths, base_numbers, times, costs, question_domains, descriptions),
        expertise=expertise,
        capacities=capacities,
        n_true_domains=n_domains,
        domains_known=False,
    )
