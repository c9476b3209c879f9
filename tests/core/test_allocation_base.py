"""Tests for allocation problems, assignments and the Eq. 12 objective."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    AllocationProblem,
    Assignment,
    accuracy_probabilities,
    allocation_objective,
)
from repro.core.allocation.lazy_greedy import GreedyState
from repro.stats.normal import standard_normal_cdf, symmetric_tail_probability


def _problem(n_users=3, n_tasks=4, seed=0, epsilon=0.5):
    rng = np.random.default_rng(seed)
    return AllocationProblem(
        expertise=rng.uniform(0.1, 3.0, (n_users, n_tasks)),
        processing_times=rng.uniform(0.5, 2.0, n_tasks),
        capacities=rng.uniform(2.0, 5.0, n_users),
        epsilon=epsilon,
    )


class TestAccuracyProbabilities:
    def test_matches_eq11(self):
        u = np.array([[0.5, 2.0]])
        p = accuracy_probabilities(u, epsilon=0.1)
        expected = standard_normal_cdf(0.1 * u) - standard_normal_cdf(-0.1 * u)
        assert np.allclose(p, expected)

    def test_zero_expertise_gives_zero(self):
        assert accuracy_probabilities(np.array([[0.0]]), epsilon=0.1)[0, 0] == 0.0

    def test_monotone_in_expertise(self):
        p = accuracy_probabilities(np.array([[0.5, 1.0, 2.0]]), epsilon=0.2)[0]
        assert p[0] < p[1] < p[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy_probabilities(np.array([[1.0]]), epsilon=0.0)
        with pytest.raises(ValueError):
            accuracy_probabilities(np.array([[-1.0]]), epsilon=0.1)


class TestAllocationProblem:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            AllocationProblem(
                expertise=np.ones((2, 3)),
                processing_times=np.ones(2),
                capacities=np.ones(2),
            )
        with pytest.raises(ValueError):
            AllocationProblem(
                expertise=np.ones((2, 3)),
                processing_times=np.ones(3),
                capacities=np.ones(3),
            )

    def test_per_pair_times_rejected(self):
        # Times are the paper's t_j per task; a (n_users, n_tasks) matrix
        # of per-pair times is not a form the allocators take.
        with pytest.raises(ValueError, match="processing_times must have one entry per task"):
            AllocationProblem(
                expertise=np.ones((2, 3)),
                processing_times=np.ones((2, 3)),
                capacities=np.ones(2),
            )

    def test_value_checks(self):
        with pytest.raises(ValueError):
            AllocationProblem(
                expertise=np.ones((1, 1)),
                processing_times=np.array([0.0]),
                capacities=np.array([1.0]),
            )
        with pytest.raises(ValueError):
            AllocationProblem(
                expertise=np.ones((1, 1)),
                processing_times=np.array([1.0]),
                capacities=np.array([1.0]),
                costs=np.array([-1.0]),
            )

    @pytest.mark.parametrize("field", ["expertise", "processing_times", "capacities", "costs"])
    def test_nan_rejected(self, field):
        # A NaN passes every ordered check, and the greedy then leaves tasks
        # unassigned (all of them for a NaN processing time).
        values = {
            "expertise": np.array([[1.0, 1.0], [2.0, 1.0]]),
            "processing_times": np.array([1.0, 1.0]),
            "capacities": np.array([2.0, 2.0]),
            "costs": np.array([1.0, 1.0]),
        }
        values[field][(0,) * values[field].ndim] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            AllocationProblem(**values)

    def test_default_costs_are_unit(self):
        problem = _problem()
        assert np.all(problem.costs == 1.0)

    def test_accuracy_matrix_per_column_is_eq11_per_pair_bit_for_bit(self):
        """Eq. 11 runs once per distinct expertise column and is gathered to
        the tasks: the result has the bits of the element-wise form, and a
        greedy start state shares a ranking only between bit-equal columns.

        Domain 1 copies domain 0's column, domain 2 saturates (``p == 1.0``
        for users of different expertise), some entries are zero, tasks
        repeat domains, and some users are ineligible.
        """
        rng = np.random.default_rng(37)
        for index in range(60):
            n_users, n_domains = int(rng.integers(1, 50)), int(rng.integers(3, 7))
            levels = rng.gamma(2.0, 1.5, (n_users, n_domains))
            levels[rng.random(levels.shape) < 0.15] = 0.0
            levels[:, 1] = levels[:, 0]
            levels[:, 2] = rng.uniform(90.0, 300.0, n_users)
            domains = rng.integers(0, n_domains, int(rng.integers(0, 60)))
            expertise = levels[:, rng.permutation(np.concatenate(([0, 1, 2], domains)))]
            if index % 2:
                expertise = np.asfortranarray(expertise)
            eligible = None
            if index % 3 == 1:
                eligible = rng.random(n_users) < 0.6
                eligible[int(rng.integers(n_users))] = True
            problem = AllocationProblem(
                expertise=expertise,
                processing_times=np.ones(expertise.shape[1]),
                capacities=np.ones(n_users),
                epsilon=float(rng.choice([0.1, 0.5])),
                eligible=eligible,
            )
            p = problem.accuracy_matrix()
            want = symmetric_tail_probability(problem.epsilon * problem.expertise)
            assert p.shape == want.shape
            assert np.array_equal(p.view(np.uint64), want.view(np.uint64))
            saturated = (problem.expertise == levels[:, [2]]).all(axis=0)
            assert saturated.any() and np.all(p[:, saturated] == 1.0)

            # One group per distinct column; a group's tasks are bit-equal.
            first, group = problem.column_groups
            bits = problem.expertise.view(np.uint64)
            assert len(first) == len(np.unique(bits.T, axis=0))
            assert np.array_equal(bits, bits[:, first[group]])
            copies = np.flatnonzero((bits == levels[:, [0]].view(np.uint64)).all(axis=0))
            assert len(set(group[copies].tolist())) == 1

            # Each task ranks the eligible users by (-p, user); tasks share
            # a ranking only when their accuracy columns are bit-equal.
            state = GreedyState(problem)
            users = np.flatnonzero(problem.eligible_mask()).tolist()
            p_bits = p.view(np.uint64)
            for task in range(problem.n_tasks):
                ranked, ranked_p, _, n = state.task_rankings[task]
                assert ranked == sorted(users, key=lambda user: (-p[user, task], user))
                assert ranked_p == p[ranked, task].tolist() and n == len(users)
                assert state.task_accuracy[task] == p[:, task].tolist()
                for other in range(task):
                    if state.task_rankings[other] is state.task_rankings[task]:
                        assert np.array_equal(p_bits[:, other], p_bits[:, task])


class TestAssignment:
    def test_empty(self):
        assignment = Assignment.empty(2, 3)
        assert assignment.pair_count == 0
        assert assignment.pairs().shape == (0, 2)
        assert assignment.pairs().dtype == np.intp

    def test_pairs_and_lookups(self):
        matrix = np.zeros((2, 3), dtype=bool)
        matrix[0, 1] = True
        matrix[1, 1] = True
        assignment = Assignment(matrix=matrix)
        assert assignment.pairs().tolist() == [[0, 1], [1, 1]]
        assert assignment.users_of_task(1).tolist() == [0, 1]
        assert assignment.tasks_of_user(0).tolist() == [1]

    def test_workloads_and_capacity_check(self):
        problem = _problem()
        matrix = np.zeros((3, 4), dtype=bool)
        matrix[0, :] = True  # likely over capacity
        over = Assignment(matrix=matrix)
        loads = over.workloads(problem.processing_times)
        assert loads[0] == pytest.approx(problem.processing_times.sum())

    def test_total_cost(self):
        matrix = np.zeros((2, 2), dtype=bool)
        matrix[0, 0] = True
        matrix[1, 0] = True
        matrix[0, 1] = True
        assignment = Assignment(matrix=matrix)
        assert assignment.total_cost(np.array([2.0, 5.0])) == 9.0

    def test_union(self):
        a = Assignment.empty(2, 2)
        b = Assignment.empty(2, 2)
        a.matrix[0, 0] = True
        b.matrix[1, 1] = True
        union = a.union(b)
        assert union.pair_count == 2
        with pytest.raises(ValueError):
            a.union(Assignment.empty(3, 2))


    def test_collect_asks_in_pair_order_and_folds_the_reply(self):
        matrix = np.array([[False, True, True], [True, False, True]])
        asked = []

        def observe(pairs):
            asked.append(pairs)
            return [1.0, np.nan, 3.0, 4.0]

        observations = Assignment(matrix=matrix).collect(observe)
        assert len(asked) == 1
        assert asked[0].dtype == np.intp
        assert asked[0].tolist() == [[0, 1], [0, 2], [1, 0], [1, 2]]
        assert observations.mask.tolist() == [[False, True, False], [True, False, True]]
        assert observations.values.tolist() == [[0.0, 1.0, 0.0], [3.0, 0.0, 4.0]]

    def test_collect_skips_observe_for_an_empty_assignment(self):
        def observe(pairs):
            raise AssertionError("observe called without pairs")

        observations = Assignment.empty(2, 3).collect(observe)
        assert observations.values.shape == (2, 3)
        assert observations.observation_count == 0

class TestObjective:
    def test_empty_assignment_scores_zero(self):
        problem = _problem()
        assert allocation_objective(problem, Assignment.empty(3, 4)) == 0.0

    def test_single_pair_equals_p(self):
        problem = _problem()
        p = problem.accuracy_matrix()
        assignment = Assignment.empty(3, 4)
        assignment.matrix[1, 2] = True
        assert allocation_objective(problem, assignment) == pytest.approx(p[1, 2])

    def test_coverage_formula_two_users(self):
        problem = _problem()
        p = problem.accuracy_matrix()
        assignment = Assignment.empty(3, 4)
        assignment.matrix[0, 0] = True
        assignment.matrix[1, 0] = True
        expected = 1.0 - (1.0 - p[0, 0]) * (1.0 - p[1, 0])
        assert allocation_objective(problem, assignment) == pytest.approx(expected)

    def test_shape_mismatch_rejected(self):
        problem = _problem()
        with pytest.raises(ValueError):
            allocation_objective(problem, Assignment.empty(2, 4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_objective_monotone_under_added_pairs(self, seed):
        """Adding an assignment never lowers the objective (monotonicity)."""
        rng = np.random.default_rng(seed)
        problem = _problem(seed=seed)
        matrix = rng.random((3, 4)) < 0.4
        base = Assignment(matrix=matrix.copy())
        free = np.argwhere(~matrix)
        if free.size == 0:
            return
        user, task = free[rng.integers(len(free))]
        matrix[user, task] = True
        extended = Assignment(matrix=matrix)
        assert allocation_objective(problem, extended) >= allocation_objective(problem, base) - 1e-12

    def test_objective_matches_scalar_column_products_exactly(self):
        """Eq. 12 equals, with ``==``, each task's miss product taken one
        assigned user at a time in ascending user order, then summed; the
        instances include empty columns, full columns and p at or near 1."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            n_users, n_tasks = int(rng.integers(1, 12)), int(rng.integers(1, 15))
            problem = _problem(n_users, n_tasks, seed=int(rng.integers(1 << 30)))
            p = rng.uniform(0.0, 1.0, (n_users, n_tasks))
            near_one = rng.random(p.shape) < 0.2
            p[near_one] = 1.0 - rng.choice([0.0, 1e-16, 1e-12, 1e-6], near_one.sum())
            matrix = rng.random((n_users, n_tasks)) < rng.uniform(0.0, 1.0)
            matrix[:, rng.random(n_tasks) < 0.2] = False
            matrix[:, rng.random(n_tasks) < 0.1] = True
            miss = []
            for task in range(n_tasks):
                product = 1.0
                for user in range(n_users):
                    if matrix[user, task]:
                        product *= 1.0 - float(p[user, task])
                miss.append(product)
            expected = float(np.sum(1.0 - np.array(miss)))
            assert allocation_objective(problem, Assignment(matrix=matrix), accuracy=p) == expected
