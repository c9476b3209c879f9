"""Golden lazy-greedy work counters.

The end-to-end benchmark reports ``allocation.evaluations`` and
``evals_per_pick`` per layer, and the pipeline's ``allocation.greedy``
trace events carry them, but no other gate checks them: the golden trace
digests only count events by type, and the picks alone fix every output.
A kernel rewrite that keeps the picks but changes how often the heap
re-evaluates a task would pass every other gate.  These tests pin
:class:`GreedyStats` exactly on three seeded instances:

- the ``allocation_greedy`` quick kernel instance of
  :mod:`repro.perf.baseline` (300 users x 600 tasks, 8 domains,
  capacity 1.0), one efficiency pass;
- two synthetic-dataset days in the pipeline's shape (100 users x 200
  tasks, 8 domains, capacities ``U[8, 16]``), allocated by
  :class:`MaxQualityAllocator` (both greedy passes, merged counters).
"""

import numpy as np
import pytest

from repro.core.allocation.base import AllocationProblem
from repro.core.allocation.lazy_greedy import GreedyStats, lazy_greedy_allocate
from repro.core.allocation.max_quality import MaxQualityAllocator
from repro.datasets import synthetic_dataset


def _quick_kernel_problem():
    rng = np.random.default_rng(121314)
    domains = rng.integers(0, 8, 600)
    user_domain = rng.gamma(2.0, 2.0, (300, 8))
    return AllocationProblem(
        expertise=user_domain[:, domains],
        processing_times=rng.uniform(0.5, 1.5, 600),
        capacities=np.full(300, 1.0),
    )


def _synthetic_day_problem(seed, day):
    dataset = synthetic_dataset(seed=seed)
    tasks = dataset.tasks[200 * day : 200 * (day + 1)]
    expertise = np.array([user.expertise for user in dataset.users])
    domains = [task.true_domain for task in tasks]
    return AllocationProblem(
        expertise=expertise[:, domains],
        processing_times=np.array([task.processing_time for task in tasks]),
        capacities=np.array([user.capacity for user in dataset.users]),
    )


def test_quick_kernel_stats_are_golden():
    stats = lazy_greedy_allocate(_quick_kernel_problem()).stats
    assert stats == GreedyStats(
        picks=300, pops=2752, evaluations=2752, max_refresh_delta=-3.742929793992822e-05
    )


@pytest.mark.parametrize(
    "seed, day, expected",
    [
        (
            2017,
            0,
            GreedyStats(
                picks=2328, pops=5641, evaluations=5641, max_refresh_delta=-2.4480365771795132e-05
            ),
        ),
        (
            2018,
            3,
            GreedyStats(
                picks=2521, pops=6150, evaluations=6150, max_refresh_delta=-1.1569839968111895e-05
            ),
        ),
    ],
    ids=["seed2017-day0", "seed2018-day3"],
)
def test_synthetic_day_stats_are_golden(seed, day, expected):
    allocator = MaxQualityAllocator()
    allocator.allocate(_synthetic_day_problem(seed, day))
    assert allocator.last_stats == expected


def test_unit_cost_budgeted_pass_stops_at_the_budget():
    """With unit costs no pick is ever blocked before the budget is spent,
    and the pass ends there: every pop is a pick or a refresh."""
    problem = _synthetic_day_problem(2017, 0)
    full = lazy_greedy_allocate(problem)
    budgeted = lazy_greedy_allocate(problem, cost_budget=500.0)
    assert budgeted.added_pairs == full.added_pairs[:500]
    assert budgeted.spent_cost == 500.0
    assert budgeted.stats.pops == budgeted.stats.evaluations
