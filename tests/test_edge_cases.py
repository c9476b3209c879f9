"""Edge-case tests across module boundaries."""

import numpy as np
import pytest

from repro.clustering import DynamicHierarchicalClustering
from repro.core.allocation import (
    AllocationProblem,
    Assignment,
    MaxQualityAllocator,
    MinCostAllocator,
    lazy_greedy_allocate,
)
from repro.core.pipeline import ETA2System, IncomingTask


class TestClusteringEdges:
    def test_duplicate_points_cluster_together(self):
        clustering = DynamicHierarchicalClustering(gamma=0.5)
        point = np.ones((1, 4))
        result = clustering.fit(np.vstack([point, point, point, -point * 5]))
        labels = result.all_labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] != labels[0]

    def test_single_point_warmup(self):
        clustering = DynamicHierarchicalClustering(gamma=0.5)
        result = clustering.fit(np.ones((1, 4)))
        assert result.domain_count == 1
        assert clustering.d_star == 0.0
        # Adding an identical point joins the sole domain (threshold 0 means
        # merges need distance < 0... except identical points at distance 0
        # cannot merge under a strict threshold; they become a new domain).
        added = clustering.add(np.ones((1, 4)))
        assert added.added_labels.shape == (1,)

    def test_all_identical_points(self):
        clustering = DynamicHierarchicalClustering(gamma=1.0)
        result = clustering.fit(np.ones((5, 4)))
        # d_star = 0, threshold = 0, strict '<' comparison: no merges.
        assert result.domain_count == 5


class TestAllocationEdges:
    def test_zero_capacity_user_gets_nothing(self):
        problem = AllocationProblem(
            expertise=np.ones((2, 3)),
            processing_times=np.ones(3),
            capacities=np.array([0.0, 5.0]),
        )
        outcome = lazy_greedy_allocate(problem)
        assert outcome.assignment.tasks_of_user(0).size == 0
        assert outcome.assignment.tasks_of_user(1).size == 3

    def test_all_tasks_longer_than_any_capacity(self):
        problem = AllocationProblem(
            expertise=np.ones((2, 2)),
            processing_times=np.array([10.0, 12.0]),
            capacities=np.array([1.0, 2.0]),
        )
        outcome = lazy_greedy_allocate(problem)
        assert outcome.assignment.pair_count == 0
        assert MaxQualityAllocator().allocate(problem).pair_count == 0

    def test_min_cost_with_everything_inactive(self):
        problem = AllocationProblem(
            expertise=np.ones((2, 2)),
            processing_times=np.ones(2),
            capacities=np.array([5.0, 5.0]),
        )
        outcome = lazy_greedy_allocate(problem, active_tasks=np.zeros(2, dtype=bool))
        assert outcome.assignment.pair_count == 0

    def test_min_cost_single_round_budget_smaller_than_any_cost(self):
        problem = AllocationProblem(
            expertise=np.ones((2, 2)),
            processing_times=np.ones(2),
            capacities=np.array([5.0, 5.0]),
            costs=np.array([10.0, 10.0]),
        )
        allocator = MinCostAllocator(round_budget=1.0, max_rounds=5)
        outcome = allocator.run(problem, observe=lambda pairs: [0.0] * len(pairs))
        assert outcome.assignment.pair_count == 0
        assert outcome.round_count == 0

    def test_single_task_single_user(self):
        problem = AllocationProblem(
            expertise=np.array([[2.0]]),
            processing_times=np.array([1.0]),
            capacities=np.array([1.0]),
        )
        outcome = lazy_greedy_allocate(problem)
        assert outcome.assignment.pair_count == 1


class TestPipelineEdges:
    def test_new_known_domain_mid_run(self):
        rng = np.random.default_rng(0)
        system = ETA2System(n_users=6, capacities=np.full(6, 5.0), seed=1)
        observe = lambda pairs: [float(rng.normal(10, 1)) for _ in pairs]
        system.warmup([IncomingTask(processing_time=1.0, domain=0) for _ in range(4)], observe)
        # Domain 7 was never seen; the step must register it on the fly.
        result = system.step(
            [IncomingTask(processing_time=1.0, domain=7) for _ in range(4)], observe
        )
        assert set(result.task_domains.tolist()) == {7}
        assert 7 in system.expertise_matrix().domain_ids

    def test_single_task_single_user_system(self):
        rng = np.random.default_rng(1)
        system = ETA2System(n_users=1, capacities=np.array([5.0]), seed=2)
        observe = lambda pairs: [float(rng.normal(3, 0.1)) for _ in pairs]
        result = system.warmup([IncomingTask(processing_time=1.0, domain=0)], observe)
        assert result.pair_count == 1
        assert np.isfinite(result.truths[0])

    def test_observe_wrong_length_rejected(self):
        system = ETA2System(n_users=3, capacities=np.full(3, 5.0), seed=3)
        with pytest.raises(ValueError):
            system.warmup(
                [IncomingTask(processing_time=1.0, domain=0)],
                observe=lambda pairs: [1.0] * (len(pairs) + 2),
            )


class TestAssignmentEdges:
    def test_empty_assignment_workloads(self):
        assignment = Assignment.empty(3, 0)
        assert assignment.workloads(np.zeros(0)).tolist() == [0.0, 0.0, 0.0]

    def test_union_identity(self):
        assignment = Assignment.empty(2, 2)
        assignment.matrix[0, 1] = True
        union = assignment.union(assignment)
        assert np.array_equal(union.matrix, assignment.matrix)
