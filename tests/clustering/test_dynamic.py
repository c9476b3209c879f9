"""Tests for dynamic hierarchical clustering (Section 3.3.2)."""

import numpy as np
import pytest

from repro.clustering import DynamicHierarchicalClustering


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
