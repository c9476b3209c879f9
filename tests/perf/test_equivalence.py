"""The optimised kernels must reproduce the frozen seed implementations.

Every kernel the performance layer replaced is checked against its verbatim
pre-optimisation copy in :mod:`repro.perf.reference` on seeded random
inputs: exact cluster structure, ``allclose`` (rtol 1e-10) truths,
sigmas and expertise for the MLE (bincount scatter-sums order additions
differently than dense pairwise summation, so last-bit drift is expected
and bounded), ``==`` Eq. 8 sums for the Section 4.2 update, and ``==`` merge logs and
members for the §3.3.1 merge loop.
"""

import numpy as np
import pytest

from repro.clustering.hierarchical import _labels_from_clusters, hierarchical_clustering
from repro.clustering.linkage import AverageLinkage
from repro.core.truth import _SparseObservations, estimate_truth
from repro.perf.reference import (
    reference_denominator_sums,
    reference_estimate_truth,
    reference_labels_from_clusters,
    reference_linkage_sums,
    reference_merge_until,
)
from repro.truthdiscovery.base import ObservationMatrix


def _random_distance_matrix(rng, n):
    points = rng.random((n, 3))
    base = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    np.fill_diagonal(base, 0.0)
    return base


def _random_observations(rng, n_users, n_tasks, density=0.25):
    mask = rng.random((n_users, n_tasks)) < density
    for task in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(n_users), task] = True
    values = np.where(mask, rng.normal(5.0, 2.0, (n_users, n_tasks)), 0.0)
    return ObservationMatrix(values=values, mask=mask)


# --------------------------------------------------------------------- #
# AverageLinkage construction
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linkage_sums_match_reference_singletons(seed):
    rng = np.random.default_rng(seed)
    base = _random_distance_matrix(rng, 40)
    groups = [[i] for i in range(40)]
    engine = AverageLinkage(base, groups)
    assert np.allclose(engine._sums, reference_linkage_sums(base, groups), rtol=1e-12)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_linkage_sums_match_reference_mixed_groups(seed):
    rng = np.random.default_rng(seed)
    n = 30
    base = _random_distance_matrix(rng, n)
    # Random partition with varied group sizes, in shuffled point order.
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=6, replace=False))
    groups = [chunk.tolist() for chunk in np.split(order, cuts)]
    engine = AverageLinkage(base, groups)
    assert np.allclose(engine._sums, reference_linkage_sums(base, groups), rtol=1e-12)


def test_linkage_merge_chain_matches_reference_sums():
    rng = np.random.default_rng(6)
    base = _random_distance_matrix(rng, 25)
    groups = [[i] for i in range(25)]
    optimised = AverageLinkage(base, groups)

    reference = AverageLinkage.__new__(AverageLinkage)
    reference._members = [list(group) for group in groups]
    reference._sizes = np.ones(25)
    reference._sums = reference_linkage_sums(base, groups)
    reference._alive = np.ones(25, dtype=bool)

    log_a = optimised.merge_until(threshold=float(base.max()) * 0.4)
    log_b = reference.merge_until(threshold=float(base.max()) * 0.4)
    assert log_a == pytest.approx(log_b)
    assert sorted(map(sorted, optimised.members())) == sorted(map(sorted, reference.members()))


def _merge_instance(rng):
    """A base matrix and starting groups for one ``merge_until`` call."""
    n = int(rng.integers(2, 45))
    if rng.random() < 0.4:
        # Integer distances: many averages tie exactly, so the first
        # minimum in row-major order decides the merge.
        base = rng.integers(0, 4, (n, n)).astype(float)
        base = np.triu(base, 1) + np.triu(base, 1).T
    else:
        base = _random_distance_matrix(rng, n)
    if rng.random() < 0.5:
        groups = [[i] for i in range(n)]
    else:
        order = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        groups = [chunk.tolist() for chunk in np.split(order, cuts)]
    roll = rng.random()
    if roll < 0.15:
        threshold = 0.0
    elif roll < 0.3:
        threshold = float("inf")
    else:
        threshold = float(rng.uniform(0.0, base.max() + 1.0))
    return base, groups, threshold


@pytest.mark.parametrize("block", range(4))
def test_merge_until_matches_reference_fuzz(block):
    """200 calls (4 blocks x 50): the loop that updates one row and column
    per merge gives the same log and members as a full rescan per merge,
    across tied distances, non-singleton starting groups and zero and
    infinite thresholds."""
    rng = np.random.default_rng(8000 + block)
    for _ in range(50):
        base, groups, threshold = _merge_instance(rng)
        optimised, reference = AverageLinkage(base, groups), AverageLinkage(base, groups)
        log = optimised.merge_until(threshold)
        assert log == reference_merge_until(reference, threshold)
        assert optimised.members() == reference.members()
        # A second call resumes from the merged state.
        if threshold > 0.0:
            assert optimised.merge_until(threshold * 2.0) == reference_merge_until(
                reference, threshold * 2.0
            )
            assert optimised.members() == reference.members()


def test_labels_from_clusters_matches_reference():
    clusters = ((3, 1), (0, 4, 2), (5,))
    np.testing.assert_array_equal(
        _labels_from_clusters(clusters, 6), reference_labels_from_clusters(clusters, 6)
    )


def test_hierarchical_clustering_labels_unchanged():
    rng = np.random.default_rng(7)
    base = _random_distance_matrix(rng, 60)
    result = hierarchical_clustering(base, gamma=0.4)
    np.testing.assert_array_equal(
        result.labels, reference_labels_from_clusters(result.clusters, 60)
    )


# --------------------------------------------------------------------- #
# Sparse MLE
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_estimate_truth_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    observations = _random_observations(rng, 40, 120)
    domains = rng.integers(0, 6, 120)
    a = estimate_truth(observations, domains)
    b = reference_estimate_truth(observations, domains)
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.domain_ids == b.domain_ids
    np.testing.assert_allclose(a.truths, b.truths, rtol=1e-10)
    np.testing.assert_allclose(a.sigmas, b.sigmas, rtol=1e-10)
    np.testing.assert_allclose(a.expertise, b.expertise, rtol=1e-10)


# --------------------------------------------------------------------- #
# Section 4.2 Eq. 8 sums
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n_users, tasks_per_domain",
    [(2, [1, 3, 7]), (40, [8, 60, 128]), (25, [129, 300]), (120, [5, 90, 200, 2])],
    ids=["below-8", "8-to-128", "above-128", "mixed"],
)
@pytest.mark.parametrize("seed", [20, 21, 22])
def test_denominator_sums_match_dense_reference_exactly(seed, n_users, tasks_per_domain):
    """The scatter-sum adds each (user, domain) sum in the dense block's order.

    Covers NaN truths (missing tasks), a domain with no observed pair and
    per-domain task counts on both sides of NumPy's 8-wide unrolling and
    128-element pairwise block.  A one-user matrix is the documented
    exception (see :func:`reference_denominator_sums`).
    """
    rng = np.random.default_rng(seed)
    inverse = rng.permutation(np.repeat(np.arange(len(tasks_per_domain)), tasks_per_domain))
    n_tasks = inverse.size
    mask = rng.random((n_users, n_tasks)) < rng.uniform(0.05, 0.9)
    mask[:, inverse == len(tasks_per_domain) - 1] = False  # a domain nobody observed
    values = np.where(mask, rng.normal(5.0, 3.0, (n_users, n_tasks)), 0.0)
    observations = ObservationMatrix(values=values, mask=mask)
    truths = rng.normal(5.0, 2.0, n_tasks)
    truths[rng.random(n_tasks) < 0.2] = np.nan
    sigmas = rng.uniform(0.1, 3.0, n_tasks)
    k = len(tasks_per_domain)
    fresh = _SparseObservations(observations, inverse, k).denominator_sums(truths, sigmas)
    frozen = reference_denominator_sums(observations, inverse, k, truths, sigmas)
    assert np.array_equal(fresh, frozen)
    assert np.all(fresh[:, -1] == 0.0)
