"""Tests for the Algorithm 1 greedy and the extra approximation pass."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    AllocationProblem,
    Assignment,
    MaxQualityAllocator,
    allocation_objective,
    exhaustive_max_quality,
    lazy_greedy_allocate,
)


def _random_problem(seed, n_users=3, n_tasks=4, epsilon=0.5):
    rng = np.random.default_rng(seed)
    return AllocationProblem(
        expertise=rng.uniform(0.1, 3.0, (n_users, n_tasks)),
        processing_times=rng.uniform(0.5, 1.5, n_tasks),
        capacities=rng.uniform(1.0, 3.5, n_users),
        epsilon=epsilon,
    )


def test_greedy_respects_capacities():
    problem = _random_problem(0, n_users=10, n_tasks=30)
    outcome = lazy_greedy_allocate(problem)
    assert outcome.assignment.respects_capacities(problem)


def test_greedy_fills_capacity_when_tasks_abound():
    # With plenty of tasks, every user should end with less remaining
    # capacity than the smallest task.
    problem = _random_problem(1, n_users=4, n_tasks=50)
    outcome = lazy_greedy_allocate(problem)
    remaining = problem.capacities - outcome.assignment.workloads(problem.processing_times)
    assert np.all(remaining < problem.processing_times.max() + 1e-9)


def test_greedy_objective_matches_reported():
    problem = _random_problem(2)
    outcome = lazy_greedy_allocate(problem)
    assert outcome.objective == pytest.approx(
        allocation_objective(problem, outcome.assignment)
    )


def test_greedy_prefers_high_expertise_users():
    # One expert and one noise user, capacity for exactly one task each.
    problem = AllocationProblem(
        expertise=np.array([[3.0], [0.1]]),
        processing_times=np.array([1.0]),
        capacities=np.array([1.0, 1.0]),
        epsilon=0.5,
    )
    outcome = lazy_greedy_allocate(problem)
    # The expert is chosen first.
    assert outcome.added_pairs[0] == (0, 0)


def test_greedy_respects_initial_assignment():
    problem = _random_problem(3)
    initial = Assignment.empty(problem.n_users, problem.n_tasks)
    initial.matrix[0, 0] = True
    outcome = lazy_greedy_allocate(problem, initial=initial)
    assert outcome.assignment.matrix[0, 0]
    assert (0, 0) not in outcome.added_pairs
    # Initial workload was deducted from user 0's capacity.
    assert outcome.assignment.respects_capacities(problem)


def test_greedy_cost_budget_limits_new_pairs_only():
    problem = _random_problem(4)
    initial = Assignment.empty(problem.n_users, problem.n_tasks)
    initial.matrix[0, 0] = True  # costs nothing against the budget
    outcome = lazy_greedy_allocate(problem, initial=initial, cost_budget=2.0)
    assert outcome.spent_cost <= 2.0 + 1e-9
    assert len(outcome.added_pairs) <= 2  # unit costs


def test_greedy_active_task_mask():
    problem = _random_problem(5)
    active = np.zeros(problem.n_tasks, dtype=bool)
    active[1] = True
    outcome = lazy_greedy_allocate(problem, active_tasks=active)
    tasks_used = {task for _, task in outcome.added_pairs}
    assert tasks_used <= {1}


def test_greedy_initial_over_capacity_rejected():
    problem = AllocationProblem(
        expertise=np.ones((1, 2)),
        processing_times=np.array([3.0, 3.0]),
        capacities=np.array([4.0]),
    )
    initial = Assignment(matrix=np.array([[True, True]]))
    with pytest.raises(ValueError):
        lazy_greedy_allocate(problem, initial=initial)


def test_allocator_extra_pass_never_worse():
    for seed in range(15):
        problem = _random_problem(seed, n_users=5, n_tasks=12)
        with_pass = MaxQualityAllocator(extra_pass=True)
        without_pass = MaxQualityAllocator(extra_pass=False)
        v_with = allocation_objective(problem, with_pass.allocate(problem))
        v_without = allocation_objective(problem, without_pass.allocate(problem))
        assert v_with >= v_without - 1e-12
        assert with_pass.last_winner in ("efficiency", "cardinality")


def test_extra_pass_fixes_heavy_tail_pathology():
    """The textbook greedy failure: one huge-value task the efficiency
    ratio skips; the cardinality pass catches it."""
    problem = AllocationProblem(
        # Task 0: tiny value, tiny time (great ratio).  Task 1: large value,
        # time equal to the whole capacity (poor ratio, best objective).
        expertise=np.array([[0.2, 3.0]]),
        processing_times=np.array([0.01, 1.0]),
        capacities=np.array([1.0]),
        epsilon=1.0,
    )
    allocator = MaxQualityAllocator(extra_pass=True)
    assignment = allocator.allocate(problem)
    assert assignment.matrix[0, 1]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_greedy_within_half_of_optimum_on_small_instances(seed):
    """The 1/2-approximation guarantee, audited against brute force."""
    problem = _random_problem(seed)
    allocator = MaxQualityAllocator(extra_pass=True)
    greedy_value = allocation_objective(problem, allocator.allocate(problem))
    _, optimal_value = exhaustive_max_quality(problem)
    assert greedy_value >= 0.5 * optimal_value - 1e-9
