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
  :class:`MaxQualityAllocator` (both greedy passes, merged counters);
- one synthetic eta2-mc day as the end-to-end benchmark runs it (seed
  2017, round budget 100, day 1 of 5): Algorithm 2's merged counters,
  its round count and each round's pairs, through the pipeline's
  previews.
"""

import hashlib

import numpy as np
import pytest

from repro.core.allocation.base import AllocationProblem
from repro.core.allocation.lazy_greedy import GreedyStats, lazy_greedy_allocate
from repro.core.allocation.max_quality import MaxQualityAllocator
from repro.core.allocation.min_cost import MinCostAllocator
from repro.datasets import synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach


def _quick_kernel_problem():
    rng = np.random.default_rng(121314)
    domains = rng.integers(0, 8, 600)
    user_domain = rng.gamma(2.0, 2.0, (300, 8))
    return AllocationProblem(
        expertise=user_domain,
        domain_columns=domains,
        processing_times=rng.uniform(0.5, 1.5, 600),
        capacities=np.full(300, 1.0),
    )


def _synthetic_day_problem(seed, day):
    dataset = synthetic_dataset(seed=seed)
    tasks = dataset.tasks.take(np.arange(200 * day, 200 * (day + 1)))
    return AllocationProblem(
        expertise=dataset.expertise,
        domain_columns=tasks.true_domain,
        processing_times=tasks.processing_time,
        capacities=dataset.capacities,
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
    assert np.array_equal(budgeted.added_pairs, full.added_pairs[:500])
    assert budgeted.spent_cost == 500.0
    assert budgeted.stats.pops == budgeted.stats.evaluations


def test_synthetic_mc_day_work_is_golden(monkeypatch):
    """Day 1 of a seed-2017 synthetic eta2-mc run (round budget 100, the
    first Algorithm 2 day): three rounds of 100 picks, each round's pairs
    pinned by a digest of their ``(user, task)`` rows in pick order."""
    outcomes = []
    run = MinCostAllocator.run

    def recording(allocator, problem, observe, estimate=None):
        outcome = run(allocator, problem, observe, estimate)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(MinCostAllocator, "run", recording)
    approach = ETA2Approach(allocator="min-cost", min_cost_round_budget=100.0)
    run_simulation(
        synthetic_dataset(seed=2017), approach, SimulationConfig(n_days=5, seed=2017, end_day=2)
    )
    (outcome,) = outcomes
    assert outcome.greedy_stats == GreedyStats(
        picks=600, pops=744, evaluations=744, max_refresh_delta=0.0
    )
    assert outcome.round_count == 3
    assert [
        hashlib.sha256(round_.added_pairs.astype(np.int64).tobytes()).hexdigest()
        for round_ in outcome.rounds
    ] == [
        "61e9b58ba82c094cde1a6512607364b31756076bd41bd6f80a88058771305686",
        "d587408ec4fd551f708a26892d2c9468b370ef6756a6eacf0bbeedc1b162d5ff",
        "1e2d7f99675de950a8931d68146f2ca734341fc87f8018dafaef7fc113b58f32",
    ]
