"""Tests for the spatial extension (geometry, dataset, per-pair times)."""

import numpy as np
import pytest

from repro.core.allocation import AllocationProblem, Assignment, MaxQualityAllocator, lazy_greedy_allocate
from repro.experiments.spatial import _execute_plan, run_spatial_instance
from repro.spatial import (
    pairwise_distances,
    spatial_synthetic_dataset,
    travel_time_matrix,
)


class TestGeometry:
    def test_pairwise_distances_known_values(self):
        origins = np.array([[0.0, 0.0], [3.0, 4.0]])
        destinations = np.array([[0.0, 0.0], [0.0, 4.0]])
        distances = pairwise_distances(origins, destinations)
        assert distances[0, 0] == 0.0
        assert distances[1, 0] == pytest.approx(5.0)
        assert distances[0, 1] == pytest.approx(4.0)
        assert distances[1, 1] == pytest.approx(3.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros(4), np.zeros((2, 2)))

    def test_travel_time_round_trip_doubles(self):
        users = np.array([[0.0, 0.0]])
        tasks = np.array([[6.0, 8.0]])  # distance 10
        one_way = travel_time_matrix(users, tasks, speed=5.0, round_trip=False)
        round_trip = travel_time_matrix(users, tasks, speed=5.0, round_trip=True)
        assert one_way[0, 0] == pytest.approx(2.0)
        assert round_trip[0, 0] == pytest.approx(4.0)

    def test_speed_validation(self):
        with pytest.raises(ValueError):
            travel_time_matrix(np.zeros((1, 2)), np.zeros((1, 2)), speed=0.0)


class TestSpatialDataset:
    def test_generator_shapes(self):
        dataset = spatial_synthetic_dataset(n_users=10, n_tasks=20, seed=0)
        assert dataset.user_locations.shape == (10, 2)
        assert dataset.task_locations.shape == (20, 2)
        assert dataset.pair_times(speed=4.0).shape == (10, 20)
        assert dataset.n_domains == 8

    def test_pair_times_exceed_sensing_times(self):
        dataset = spatial_synthetic_dataset(n_users=5, n_tasks=10, seed=1)
        times = dataset.pair_times(speed=4.0)
        assert np.all(times >= dataset.sensing_times[None, :])

    def test_faster_travel_shrinks_times(self):
        dataset = spatial_synthetic_dataset(n_users=5, n_tasks=10, seed=2)
        slow = dataset.pair_times(speed=2.0)
        fast = dataset.pair_times(speed=8.0)
        assert np.all(fast <= slow + 1e-12)

    def test_observe_pairs_centres_on_truth(self):
        dataset = spatial_synthetic_dataset(n_users=3, n_tasks=3, seed=3)
        rng = np.random.default_rng(4)
        samples = [dataset.observe_pairs([(0, 0)], rng)[0] for _ in range(3000)]
        expertise = dataset.task_expertise()[0, 0]
        std = dataset.base_numbers[0] / expertise
        assert np.mean(samples) == pytest.approx(dataset.true_values[0], abs=4 * std / np.sqrt(3000))

    def test_validation(self):
        with pytest.raises(ValueError):
            spatial_synthetic_dataset(n_users=0)
        with pytest.raises(ValueError):
            spatial_synthetic_dataset(city_size=0.0)


class TestPairTimeAllocation:
    def test_greedy_respects_per_pair_capacities(self):
        dataset = spatial_synthetic_dataset(n_users=15, n_tasks=40, seed=5)
        times = dataset.pair_times(speed=3.0)
        problem = AllocationProblem(
            expertise=dataset.task_expertise(),
            processing_times=times,
            capacities=dataset.capacities,
        )
        assignment = MaxQualityAllocator().allocate(problem)
        assert assignment.respects_capacities(problem)
        loads = assignment.workloads(times)
        assert np.all(loads <= dataset.capacities + 1e-9)

    def test_greedy_prefers_nearby_among_equals(self):
        # Two users with identical expertise; task next to user 0.
        expertise = np.full((2, 1), 2.0)
        times = np.array([[1.0], [5.0]])  # user 0 close, user 1 far
        problem = AllocationProblem(
            expertise=expertise,
            processing_times=times,
            capacities=np.array([10.0, 10.0]),
        )
        outcome = lazy_greedy_allocate(problem)
        assert outcome.added_pairs[0] == (0, 0)

    def test_broadcast_matches_vector_times(self):
        rng = np.random.default_rng(6)
        expertise = rng.uniform(0.1, 3.0, (5, 12))
        vector_times = rng.uniform(0.5, 1.5, 12)
        capacities = rng.uniform(3.0, 6.0, 5)
        a = lazy_greedy_allocate(
            AllocationProblem(expertise=expertise, processing_times=vector_times, capacities=capacities)
        )
        matrix_times = np.broadcast_to(vector_times[None, :], (5, 12)).copy()
        b = lazy_greedy_allocate(
            AllocationProblem(expertise=expertise, processing_times=matrix_times, capacities=capacities)
        )
        assert np.array_equal(a.assignment.matrix, b.assignment.matrix)

    def test_bad_time_shape_rejected(self):
        with pytest.raises(ValueError):
            AllocationProblem(
                expertise=np.ones((2, 3)),
                processing_times=np.ones((3, 2)),
                capacities=np.ones(2),
            )


class TestExecution:
    def test_execute_plan_respects_true_capacity(self):
        dataset = spatial_synthetic_dataset(n_users=10, n_tasks=30, seed=7)
        true_times = dataset.pair_times(speed=2.0)
        problem = AllocationProblem(
            expertise=dataset.task_expertise(),
            processing_times=dataset.sensing_times,  # oblivious plan
            capacities=dataset.capacities,
        )
        plan = MaxQualityAllocator().allocate(problem)
        executed = _execute_plan(plan, true_times, dataset.capacities)
        loads = executed.workloads(true_times)
        assert np.all(loads <= dataset.capacities + 1e-9)
        assert executed.pair_count <= plan.pair_count

    def test_travel_aware_plan_fully_executes(self):
        dataset = spatial_synthetic_dataset(n_users=10, n_tasks=30, seed=8)
        _, coverage, completion, _ = run_spatial_instance(
            dataset, speed=3.0, travel_aware=True, seed=9
        )
        assert completion == pytest.approx(1.0)
        assert coverage > 0.5

    def test_oblivious_plan_truncated_when_travel_slow(self):
        dataset = spatial_synthetic_dataset(n_users=10, n_tasks=30, seed=10)
        _, _, completion, _ = run_spatial_instance(
            dataset, speed=2.0, travel_aware=False, seed=11
        )
        assert completion < 0.8
