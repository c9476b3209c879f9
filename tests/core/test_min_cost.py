"""Tests for the iterative min-cost allocator (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.allocation import (
    AllocationProblem,
    MaxQualityAllocator,
    MinCostAllocator,
)
from repro.core.truth import update_truths_for_expertise
from repro.stats.normal import standard_normal_quantile


def _world(seed=0, n_users=20, n_tasks=30):
    rng = np.random.default_rng(seed)
    expertise = rng.uniform(0.3, 3.0, (n_users, n_tasks))
    truths = rng.uniform(0.0, 20.0, n_tasks)
    sigmas = rng.uniform(0.5, 2.0, n_tasks)
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=rng.uniform(0.5, 1.5, n_tasks),
        capacities=rng.uniform(8.0, 14.0, n_users),
    )

    def observe(pairs):
        return [
            truths[task] + rng.standard_normal() * sigmas[task] / max(expertise[user, task], 0.05)
            for user, task in pairs
        ]

    return problem, observe, truths, sigmas


def test_satisfies_all_tasks_with_ample_capacity():
    problem, observe, _, _ = _world()
    outcome = MinCostAllocator(round_budget=50.0, error_limit=0.5).run(problem, observe)
    assert outcome.all_satisfied
    assert outcome.assignment.respects_capacities(problem)


def test_cheaper_than_max_quality():
    problem, observe, _, _ = _world(seed=1)
    mc = MinCostAllocator(round_budget=50.0, error_limit=0.5).run(problem, observe)
    mq = MaxQualityAllocator().allocate(problem)
    assert mc.total_cost < mq.total_cost(problem.costs)


def test_estimation_error_meets_requirement_on_average():
    problem, observe, truths, sigmas = _world(seed=2)
    outcome = MinCostAllocator(round_budget=50.0, error_limit=0.5).run(problem, observe)
    errors = np.abs(outcome.truths - truths) / sigmas
    # The requirement holds per task at 95% confidence; the average error
    # across tasks should sit comfortably below the limit.
    assert float(np.nanmean(errors)) < 0.5


def test_round_budget_respected_per_round():
    problem, observe, _, _ = _world(seed=3)
    budget = 20.0
    outcome = MinCostAllocator(round_budget=budget, error_limit=0.5).run(problem, observe)
    for round_record in outcome.rounds:
        assert round_record.round_cost <= budget + 1e-9


def test_satisfied_count_monotone_over_rounds():
    problem, observe, _, _ = _world(seed=4)
    outcome = MinCostAllocator(round_budget=15.0, error_limit=0.5).run(problem, observe)
    counts = [r.satisfied_after for r in outcome.rounds]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_tighter_requirement_costs_more():
    problem, observe, _, _ = _world(seed=5)
    loose = MinCostAllocator(round_budget=40.0, error_limit=0.8).run(problem, observe)
    problem2, observe2, _, _ = _world(seed=5)
    tight = MinCostAllocator(round_budget=40.0, error_limit=0.3).run(problem2, observe2)
    assert tight.total_cost >= loose.total_cost


def test_stops_when_capacity_exhausted():
    # Impossible requirement: tiny expertise everywhere.
    rng = np.random.default_rng(6)
    problem = AllocationProblem(
        expertise=np.full((3, 10), 0.05),
        processing_times=np.ones(10),
        capacities=np.full(3, 4.0),
    )

    def observe(pairs):
        return [rng.normal(0.0, 10.0) for _ in pairs]

    outcome = MinCostAllocator(round_budget=10.0, error_limit=0.1, max_rounds=50).run(
        problem, observe
    )
    assert not outcome.all_satisfied
    # It gave up because nothing more could be assigned, not by looping.
    assert outcome.round_count < 50
    assert outcome.assignment.respects_capacities(problem)


def test_custom_estimator_is_used():
    problem, observe, truths, _ = _world(seed=7)
    calls = []

    def estimator(observations):
        calls.append(observations.observation_count)
        # Oracle estimator: exact truths, unit sigmas, true expertise.
        return truths.copy(), np.ones(problem.n_tasks), problem.expertise

    outcome = MinCostAllocator(round_budget=60.0, error_limit=0.5).run(
        problem, observe, estimate=estimator
    )
    assert calls, "estimator was never called"
    assert calls == sorted(calls)  # cumulative observations only grow


def test_observe_contract_enforced():
    problem, _, _, _ = _world(seed=8)

    def bad_observe(pairs):
        return [0.0] * (len(pairs) + 1)

    with pytest.raises(ValueError):
        MinCostAllocator(round_budget=30.0).run(problem, bad_observe)


def test_constructor_validation():
    with pytest.raises(ValueError):
        MinCostAllocator(round_budget=0.0)
    with pytest.raises(ValueError):
        MinCostAllocator(round_budget=1.0, error_limit=0.0)
    with pytest.raises(ValueError):
        MinCostAllocator(round_budget=1.0, confidence=1.0)
    with pytest.raises(ValueError):
        MinCostAllocator(round_budget=1.0, max_rounds=0)


def test_dropped_pairs_add_no_fisher_information():
    # Four users with u = 3 on one task: at 95% and eps_bar = 0.5 the task
    # needs sum u^2 >= (z / eps_bar)^2 ~ 15.4.  One delivered value (9)
    # must not pass just because three dropped users were also recruited.
    problem = AllocationProblem(
        expertise=np.full((4, 1), 3.0),
        processing_times=np.ones(1),
        capacities=np.ones(4),
    )

    def estimate(observations):
        return np.array([5.0]), np.ones(1), problem.expertise

    def run(values):
        allocator = MinCostAllocator(round_budget=10.0, error_limit=0.5, max_rounds=1)
        return allocator.run(problem, lambda pairs: values[: len(pairs)], estimate)

    dropped = run([5.0, np.nan, np.nan, np.nan])
    assert dropped.assignment.pair_count == 4
    assert dropped.satisfied.tolist() == [False]
    assert run([5.0, 5.0, 5.0, 5.0]).satisfied.tolist() == [True]


def _reference_check_quality(
    mask, truths, sigmas, task_expertise, satisfied, recheck, confidence, error_limit
):
    """Per-task Eq. 23-24 test: gathered delivered users, np.sum(u*u), scalar z."""
    z = float(standard_normal_quantile(1.0 - (1.0 - confidence) / 2.0))
    satisfied = satisfied.copy()
    for task in recheck:
        users = np.flatnonzero(mask[:, task])
        sigma = float(sigmas[task])
        if users.size == 0 or np.isnan(truths[task]) or not np.isfinite(sigma) or sigma <= 0:
            continue
        u = task_expertise[users, task]
        info = float(np.sum(u * u)) / (sigma * sigma)
        half_width = float("inf") if info <= 0.0 else z / np.sqrt(info)
        satisfied[task] = 2.0 * half_width <= 2.0 * error_limit * sigma
    return satisfied


def test_check_quality_matches_per_task_reference():
    rng = np.random.default_rng(2024)
    decided = 0
    for _ in range(1200):
        n_users, n_tasks = int(rng.integers(1, 121)), int(rng.integers(1, 25))
        mask = rng.random((n_users, n_tasks)) < rng.uniform(0.0, 1.0)
        mask[:, rng.random(n_tasks) < 0.15] = False  # every pair of the task dropped
        task_expertise = rng.uniform(0.0, 3.0, (n_users, n_tasks))
        task_expertise[rng.random((n_users, n_tasks)) < 0.1] = 0.0
        truths = rng.normal(10.0, 5.0, n_tasks)
        truths[rng.random(n_tasks) < 0.1] = np.nan
        sigmas = rng.uniform(0.1, 3.0, n_tasks)
        odd = rng.random(n_tasks) < 0.2
        sigmas[odd] = rng.choice([0.0, -1.0, np.inf, np.nan], int(odd.sum()))
        satisfied = rng.random(n_tasks) < 0.2
        recheck = np.flatnonzero(rng.random(n_tasks) < 0.7)
        confidence = float(rng.choice([0.9, 0.95, 0.99]))
        error_limit = float(rng.uniform(0.1, 1.5))
        allocator = MinCostAllocator(1.0, error_limit=error_limit, confidence=confidence)
        got = allocator._check_quality(
            mask, truths, sigmas, task_expertise, satisfied=satisfied, recheck=recheck
        )
        want = _reference_check_quality(
            mask, truths, sigmas, task_expertise, satisfied, recheck, confidence, error_limit
        )
        assert got.tolist() == want.tolist()
        decided += int(np.sum(want[recheck] != satisfied[recheck]))
    # The instances straddle the threshold: many verdicts flip both ways.
    assert decided > 1000


def test_each_round_hands_estimate_its_own_matrix():
    """Every matrix ``estimate`` received still holds its round's data at the end.

    The matrices are values: a later round must not fold its observations
    into an earlier round's arrays, and the outcome's matrix is the last
    one ``estimate`` saw.
    """
    problem, observe, _, _ = _world(seed=11)
    received = []

    def estimate(observations):
        received.append(
            (observations, observations.values.copy(), observations.mask.copy())
        )
        truths, sigmas = update_truths_for_expertise(observations, problem.expertise)
        return truths, sigmas, problem.expertise

    outcome = MinCostAllocator(round_budget=15.0, error_limit=0.5).run(
        problem, observe, estimate=estimate
    )
    assert len(received) == outcome.round_count >= 3
    for observations, values, mask in received:
        assert np.array_equal(observations.mask, mask)
        assert np.array_equal(observations.values, values)
    counts = [mask.sum() for _, _, mask in received]
    assert counts == sorted(counts) and counts[0] < counts[-1]
    assert outcome.observations is received[-1][0]
