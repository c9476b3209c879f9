"""Tests for dynamic hierarchical clustering (Section 3.3.2)."""

import numpy as np
import pytest

from repro.clustering import DynamicHierarchicalClustering
from repro.clustering.dynamic import DomainMerge


def _blob(rng, center, count, dim=4, spread=0.1):
    return rng.normal(center, spread, size=(count, dim))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_fit_assigns_all_points(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.2)
    points = np.vstack([_blob(rng, 0.0, 6), _blob(rng, 4.0, 6)])
    result = clustering.fit(points)
    assert result.all_labels.shape == (12,)
    assert result.domain_count == 2
    assert result.new_domains == (0, 1)
    assert result.merges == ()


def test_add_joins_existing_domain(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.2)
    clustering.fit(np.vstack([_blob(rng, 0.0, 6), _blob(rng, 4.0, 6)]))
    result = clustering.add(_blob(rng, 0.0, 3))
    assert result.new_domains == ()
    assert result.merges == ()
    assert set(result.added_labels.tolist()) == {clustering.labels()[0]}
    clustering.add(_blob(rng, 4.0, 2))
    assert clustering.point_count == 12 + 3 + 2


def test_add_creates_new_domain(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.2)
    clustering.fit(np.vstack([_blob(rng, 0.0, 6), _blob(rng, 4.0, 6)]))
    result = clustering.add(_blob(rng, -6.0, 4))
    assert len(result.new_domains) == 1
    new_id = result.new_domains[0]
    assert np.all(result.added_labels == new_id)
    assert new_id not in (0, 1)


def test_add_can_merge_existing_domains(rng):
    # Geometry (Eq. 2 distances are half squared Euclidean, dim = 4):
    #   left @ 0.0, right @ 1.1  -> cross distance ~2.42
    #   far  @ 2.2               -> d_star ~9.68 (fixes the threshold)
    # gamma = 0.15 gives threshold ~1.45: left/right stay separate at fit
    # time, but a dense bridge at 0.55 (distance ~0.6 to each) first joins
    # one side and then pulls the average linkage below the threshold.
    clustering = DynamicHierarchicalClustering(gamma=0.15)
    left = _blob(rng, 0.0, 5, spread=0.02)
    right = _blob(rng, 1.1, 5, spread=0.02)
    far = _blob(rng, 2.2, 2, spread=0.02)
    initial = clustering.fit(np.vstack([left, right, far]))
    assert initial.domain_count == 3
    result = clustering.add(_blob(rng, 0.55, 12, spread=0.02))
    kept_ids = {merge.kept for merge in result.merges}
    deleted_ids = {merge.deleted for merge in result.merges}
    assert result.merges  # the two near blobs merged
    assert kept_ids.isdisjoint(deleted_ids)
    for merge in result.merges:
        assert merge.kept < merge.deleted  # lower id survives (paper's k1)


def test_add_empty_batch_is_noop(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.3)
    clustering.fit(_blob(rng, 0.0, 4))
    before = clustering.labels().copy()
    result = clustering.add(np.zeros((0, 4)))
    assert result.added_labels.size == 0
    assert np.array_equal(clustering.labels(), before)


def test_d_star_frozen_by_default(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.3)
    clustering.fit(_blob(rng, 0.0, 5))
    d_star = clustering.d_star
    clustering.add(_blob(rng, 50.0, 3))
    assert clustering.d_star == d_star


def test_d_star_refresh_option(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.3, refresh_d_star=True)
    clustering.fit(_blob(rng, 0.0, 5))
    d_star = clustering.d_star
    clustering.add(_blob(rng, 50.0, 3))
    assert clustering.d_star > d_star


def test_members_and_labels_consistent(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.2)
    clustering.fit(np.vstack([_blob(rng, 0.0, 4), _blob(rng, 5.0, 4)]))
    labels = clustering.labels()
    for domain_id in clustering.domain_ids:
        for index in clustering.members(domain_id):
            assert labels[index] == domain_id


def test_api_misuse_rejected(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.3)
    with pytest.raises(RuntimeError):
        clustering.add(_blob(rng, 0.0, 2))
    clustering.fit(_blob(rng, 0.0, 3))
    with pytest.raises(RuntimeError):
        clustering.fit(_blob(rng, 0.0, 3))
    with pytest.raises(ValueError):
        clustering.add(np.zeros((2, 7)))  # wrong dimensionality
    with pytest.raises(ValueError):
        DynamicHierarchicalClustering(gamma=1.5)


def test_domain_ids_never_reused(rng):
    clustering = DynamicHierarchicalClustering(gamma=0.2)
    clustering.fit(np.vstack([_blob(rng, 0.0, 4), _blob(rng, 5.0, 4)]))
    first_new = clustering.add(_blob(rng, -5.0, 3)).new_domains[0]
    second_new = clustering.add(_blob(rng, 10.0, 3)).new_domains[0]
    assert second_new > first_new


def _eq2_brute_force(points):
    """Eq. 2 between concatenated pair vectors: half the squared distance."""
    return 0.5 * ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_adds_keep_exact_distances_over_all_points(seed):
    rng = np.random.default_rng(seed)
    centers = np.random.default_rng(99).uniform(-8, 8, (5, 4))
    batches = [
        np.vstack([rng.normal(centers[i % len(centers)], 0.15, size=(1, 4)) for i in range(size)])
        for size in (40, 8, 8, 8)
    ]
    clustering = DynamicHierarchicalClustering(gamma=0.5)
    clustering.fit(batches[0])
    warmup_max = _eq2_brute_force(batches[0]).max()
    for batch in batches[1:]:
        clustering.add(batch)
    points = np.vstack(batches)
    np.testing.assert_allclose(clustering._base, _eq2_brute_force(points), rtol=1e-12, atol=1e-12)
    assert clustering.d_star == pytest.approx(warmup_max, rel=1e-12)
    assert sorted(np.unique(clustering.labels()).tolist()) == clustering.domain_ids
    assert (clustering.labels() >= 0).all()


def test_bridging_batch_merges_warmup_domains():
    """A bridging batch that merges two warm-up domains (the §4.2 k1<-k2 case)."""
    left = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]])
    right = left + 3.0
    bridge = np.array([[3.0 * i / 6.0] * 2 for i in range(1, 6)])
    clustering = DynamicHierarchicalClustering(gamma=0.7, refresh_d_star=True)
    assert clustering.fit(np.vstack([left, right])).new_domains == (0, 1)
    result = clustering.add(bridge)
    assert result.merges == (DomainMerge(kept=0, deleted=1),)
    assert result.new_domains == ()
    assert np.array_equal(result.all_labels, np.zeros(11, dtype=int))


def test_refreshed_d_star_is_exact_max_distance():
    rng = np.random.default_rng(23)
    warmup = rng.normal(0.0, 1.0, (30, 4))
    far = rng.normal(12.0, 1.0, (5, 4))  # extends the longest pairwise distance
    warmup_only = DynamicHierarchicalClustering(gamma=0.5)
    warmup_only.fit(warmup)
    clustering = DynamicHierarchicalClustering(gamma=0.5, refresh_d_star=True)
    clustering.fit(warmup)
    clustering.add(far)
    assert clustering.d_star == clustering._base.max()
    assert clustering.d_star == pytest.approx(_eq2_brute_force(np.vstack([warmup, far])).max())
    assert clustering.d_star > warmup_only.d_star
