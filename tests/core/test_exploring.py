"""Tests for MaxQualityAllocator's epsilon-greedy exploration."""

import numpy as np
import pytest

from repro.core.allocation import (
    AllocationProblem,
    MaxQualityAllocator,
    RandomAllocator,
    allocation_objective,
)


def _problem(seed=0, n_users=10, n_tasks=30):
    rng = np.random.default_rng(seed)
    return AllocationProblem(
        expertise=rng.uniform(0.1, 3.0, (n_users, n_tasks)),
        processing_times=rng.uniform(0.5, 1.5, n_tasks),
        capacities=rng.uniform(6.0, 10.0, n_users),
        epsilon=0.5,
    )


def test_zero_rate_matches_plain_greedy():
    problem = _problem(0)
    exploring = MaxQualityAllocator(exploration_rate=0.0, seed=1).allocate(problem)
    plain = MaxQualityAllocator().allocate(problem)
    assert np.array_equal(exploring.matrix, plain.matrix)


def test_respects_capacities_at_any_rate():
    for rate in (0.1, 0.5, 1.0):
        problem = _problem(1)
        assignment = MaxQualityAllocator(exploration_rate=rate, seed=2).allocate(problem)
        assert assignment.respects_capacities(problem)


def test_exploration_spreads_assignments_across_users():
    # A problem where one user dominates every task: pure greedy gives the
    # weak users the leftovers only after the star fills up; exploration
    # forces some random pairs onto everyone early.
    rng = np.random.default_rng(3)
    expertise = np.full((6, 40), 0.1)
    expertise[0, :] = 3.0
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=rng.uniform(0.5, 1.5, 40),
        capacities=np.full(6, 8.0),
        epsilon=0.5,
    )
    greedy = MaxQualityAllocator(exploration_rate=0.0, seed=4).allocate(problem)
    explored = MaxQualityAllocator(exploration_rate=0.5, seed=4).allocate(problem)
    # Both fill roughly the same volume...
    assert abs(greedy.pair_count - explored.pair_count) <= 10
    # ...but exploration's choices differ from pure exploitation's.
    assert not np.array_equal(greedy.matrix, explored.matrix)


def test_objective_close_to_greedy():
    # Exploration costs some objective but not much at a modest rate.
    problem = _problem(5)
    greedy_value = allocation_objective(problem, MaxQualityAllocator().allocate(problem))
    explored_value = allocation_objective(
        problem, MaxQualityAllocator(exploration_rate=0.2, seed=6).allocate(problem)
    )
    assert explored_value >= 0.8 * greedy_value


def test_seeded_reproducibility():
    problem = _problem(7)
    a = MaxQualityAllocator(exploration_rate=0.3, seed=8).allocate(problem)
    b = MaxQualityAllocator(exploration_rate=0.3, seed=8).allocate(problem)
    assert np.array_equal(a.matrix, b.matrix)


def test_rate_validation():
    with pytest.raises(ValueError):
        MaxQualityAllocator(exploration_rate=-0.1)
    with pytest.raises(ValueError):
        MaxQualityAllocator(exploration_rate=1.1)


def test_pipeline_accepts_exploration_rate():
    from repro.core.pipeline import ETA2System

    system = ETA2System(n_users=3, capacities=[5.0, 5.0, 5.0], exploration_rate=0.2, seed=9)
    assert system._max_quality.exploration_rate == 0.2
    with pytest.raises(ValueError):
        ETA2System(n_users=3, capacities=[5.0, 5.0, 5.0], exploration_rate=2.0)


def test_full_rate_is_the_random_first_fit():
    # First fit leaves no feasible pair, so the greedy adds nothing on top:
    # exploration and the warm-up share one fill and one permutation draw.
    for seed in range(5):
        problem = _problem(10 + seed)
        explored = MaxQualityAllocator(exploration_rate=1.0, seed=seed).allocate(problem)
        random = RandomAllocator(seed=seed).allocate(problem)
        assert np.array_equal(explored.matrix, random.matrix)


def test_zero_rate_leaves_a_shared_generator_untouched():
    # The pipeline hands one Generator to both allocators; only a positive
    # rate may draw from it.
    problem = _problem(11)
    rng = np.random.default_rng(12)
    MaxQualityAllocator(exploration_rate=0.0, seed=rng).allocate(problem)
    assert rng.bit_generator.state == np.random.default_rng(12).bit_generator.state
    MaxQualityAllocator(exploration_rate=0.3, seed=rng).allocate(problem)
    assert rng.bit_generator.state != np.random.default_rng(12).bit_generator.state
