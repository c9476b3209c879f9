"""Property-based tests on core invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    AllocationProblem,
    Assignment,
    MaxQualityAllocator,
    allocation_objective,
    lazy_greedy_allocate,
)
from repro.core.truth import estimate_truth, update_truths_for_expertise
from repro.truthdiscovery.base import ObservationMatrix

seeds = st.integers(min_value=0, max_value=10_000)


def _random_observations(seed, n_users=12, n_tasks=20):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_tasks)) < 0.5
    # Guarantee every task has at least one observation.
    for task in range(n_tasks):
        if not mask[:, task].any():
            mask[rng.integers(n_users), task] = True
    values = np.where(mask, rng.normal(10.0, 3.0, (n_users, n_tasks)), 0.0)
    domains = rng.integers(0, 3, n_tasks)
    return ObservationMatrix(values=values, mask=mask), domains


class TestMLEInvariances:
    @settings(max_examples=15, deadline=None)
    @given(seeds, st.floats(min_value=-50.0, max_value=50.0))
    def test_translation_equivariance_of_eq5(self, seed, shift):
        """One Eq. 5 pass is exactly translation-equivariant.

        (The full MLE is only approximately so: the paper's 5%-relative
        convergence criterion depends on the truths' magnitude, so shifting
        the data can change the stopping iteration.)
        """
        obs, _ = _random_observations(seed)
        rng = np.random.default_rng(seed + 1)
        expertise = rng.uniform(0.1, 3.0, (obs.n_users, obs.n_tasks))
        shifted = ObservationMatrix(
            values=np.where(obs.mask, obs.values + shift, 0.0), mask=obs.mask
        )
        base_truths, base_sigmas = update_truths_for_expertise(obs, expertise)
        moved_truths, moved_sigmas = update_truths_for_expertise(shifted, expertise)
        assert np.allclose(moved_truths, base_truths + shift, atol=1e-8, equal_nan=True)
        assert np.allclose(moved_sigmas, base_sigmas, atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.floats(min_value=-50.0, max_value=50.0))
    def test_translation_equivariance_of_full_mle_at_tight_tolerance(self, seed, shift):
        """The MLE *fixed point* is translation-equivariant.

        The paper's 5%-relative stopping rule is magnitude-dependent, so the
        truncated iterates can differ by a sizeable fraction of a sigma;
        with a tight tolerance both runs reach the shared fixed point.
        """
        import repro.core.truth as truth_module

        obs, domains = _random_observations(seed)
        shifted = ObservationMatrix(
            values=np.where(obs.mask, obs.values + shift, 0.0), mask=obs.mask
        )
        original = truth_module.RELATIVE_TOLERANCE
        truth_module.RELATIVE_TOLERANCE = 1e-9
        try:
            base = estimate_truth(obs, domains, max_iterations=500)
            moved = estimate_truth(shifted, domains, max_iterations=500)
        finally:
            truth_module.RELATIVE_TOLERANCE = original
        gap = np.nanmax(np.abs(moved.truths - (base.truths + shift)))
        assert gap < 1e-2

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.floats(min_value=0.1, max_value=20.0))
    def test_scale_equivariance(self, seed, scale):
        """Scaling observations scales truths and base numbers; expertise is
        scale-free (a ratio of normalised errors).  Tasks whose sigma sits
        at the numerical floor (single observers: zero residual) are
        excluded — the floor is an absolute constant by design.
        """
        obs, domains = _random_observations(seed)
        scaled = ObservationMatrix(
            values=np.where(obs.mask, obs.values * scale, 0.0), mask=obs.mask
        )
        base = estimate_truth(obs, domains)
        moved = estimate_truth(scaled, domains)
        assert np.allclose(moved.truths, base.truths * scale, rtol=1e-5, equal_nan=True)
        multi = obs.mask.sum(axis=0) >= 2
        assert np.allclose(moved.sigmas[multi], base.sigmas[multi] * scale, rtol=1e-5)
        assert np.allclose(moved.expertise, base.expertise, rtol=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_truths_within_observation_hull(self, seed):
        """Eq. 5 is a convex combination: estimates stay inside the
        per-task observation range."""
        obs, domains = _random_observations(seed)
        result = estimate_truth(obs, domains)
        for task in range(obs.n_tasks):
            _, values = obs.observations_for_task(task)
            if values.size == 0:
                continue
            assert values.min() - 1e-9 <= result.truths[task] <= values.max() + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_eq5_pass_is_idempotent_in_weights(self, seed):
        """With fixed expertise, Eq. 5 is deterministic and pure."""
        obs, _ = _random_observations(seed)
        rng = np.random.default_rng(seed + 1)
        expertise = rng.uniform(0.1, 3.0, (obs.n_users, obs.n_tasks))
        a = update_truths_for_expertise(obs, expertise)
        b = update_truths_for_expertise(obs, expertise)
        assert np.array_equal(a[0], b[0], equal_nan=True)
        assert np.array_equal(a[1], b[1])


class TestAllocationInvariants:
    def _problem(self, seed):
        rng = np.random.default_rng(seed)
        return AllocationProblem(
            expertise=rng.uniform(0.1, 3.0, (6, 15)),
            processing_times=rng.uniform(0.5, 1.5, 15),
            capacities=rng.uniform(2.0, 6.0, 6),
            epsilon=0.5,
        )

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_objective_bounds(self, seed):
        """0 <= objective <= number of tasks (each term is a probability)."""
        problem = self._problem(seed)
        assignment = MaxQualityAllocator().allocate(problem)
        value = allocation_objective(problem, assignment)
        assert 0.0 <= value <= problem.n_tasks

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_greedy_never_violates_capacity(self, seed):
        problem = self._problem(seed)
        outcome = lazy_greedy_allocate(problem)
        assert outcome.assignment.respects_capacities(problem)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_greedy_is_maximal(self, seed):
        """No feasible pair is left unassigned with positive marginal gain
        (the greedy only stops when every remaining efficiency is zero)."""
        problem = self._problem(seed)
        outcome = lazy_greedy_allocate(problem)
        remaining = problem.capacities - outcome.assignment.workloads(problem.processing_times)
        # With strictly positive expertise every pair has positive marginal
        # gain, so the greedy must terminate only when *no* unassigned pair
        # fits the remaining capacity.
        for user in range(problem.n_users):
            for task in range(problem.n_tasks):
                if outcome.assignment.matrix[user, task]:
                    continue
                assert problem.processing_times[task] > remaining[user] - 1e-9, (user, task)

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.floats(min_value=0.5, max_value=5.0))
    def test_heterogeneous_costs_accounted_exactly(self, seed, cost_scale):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.5, cost_scale + 0.5, 15)
        problem = AllocationProblem(
            expertise=rng.uniform(0.1, 3.0, (6, 15)),
            processing_times=rng.uniform(0.5, 1.5, 15),
            capacities=rng.uniform(2.0, 6.0, 6),
            costs=costs,
        )
        assignment = MaxQualityAllocator().allocate(problem)
        expected = sum(costs[task] for _, task in assignment.pairs())
        assert assignment.total_cost(costs) == pytest.approx(expected)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_union_objective_superadditive_floor(self, seed):
        """Union of two assignments scores at least max of the parts
        (monotonicity of the coverage objective)."""
        rng = np.random.default_rng(seed)
        problem = self._problem(seed)
        a = Assignment(matrix=rng.random((6, 15)) < 0.2)
        b = Assignment(matrix=rng.random((6, 15)) < 0.2)
        union_value = allocation_objective(problem, a.union(b))
        assert union_value >= allocation_objective(problem, a) - 1e-12
        assert union_value >= allocation_objective(problem, b) - 1e-12
