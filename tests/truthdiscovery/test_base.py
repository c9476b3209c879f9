"""Tests for the observation matrix and truth-discovery interface."""

import numpy as np
import pytest

from repro.truthdiscovery import MeanBaseline, ObservationMatrix


def _small_matrix():
    return ObservationMatrix.from_triples(
        [(0, 0, 1.0), (1, 0, 3.0), (0, 1, 5.0)], n_users=3, n_tasks=2
    )


def test_from_triples_populates_mask_and_values():
    obs = _small_matrix()
    assert obs.n_users == 3
    assert obs.n_tasks == 2
    assert obs.observation_count == 3
    assert obs.values[0, 0] == 1.0
    assert obs.mask[1, 0]
    assert not obs.mask[2, 0]


def test_observations_for_task():
    obs = _small_matrix()
    users, values = obs.observations_for_task(0)
    assert users.tolist() == [0, 1]
    assert values.tolist() == [1.0, 3.0]


def test_tasks_of_user():
    obs = _small_matrix()
    assert obs.tasks_of_user(0).tolist() == [0, 1]
    assert obs.tasks_of_user(2).tolist() == []


def test_task_means_with_unobserved_task():
    obs = ObservationMatrix.from_triples([(0, 0, 2.0), (1, 0, 4.0)], n_users=2, n_tasks=2)
    means = obs.task_means()
    assert means[0] == 3.0
    assert np.isnan(means[1])


def test_task_spreads_floored():
    obs = ObservationMatrix.from_triples([(0, 0, 2.0)], n_users=1, n_tasks=1)
    spreads = obs.task_spreads(floor=1e-6)
    assert spreads[0] == 1e-6


def test_restricted_to_tasks():
    obs = _small_matrix()
    sub = obs.restricted_to_tasks(np.array([1]))
    assert sub.n_tasks == 1
    assert sub.values[0, 0] == 5.0


def test_shape_validation():
    with pytest.raises(ValueError):
        ObservationMatrix(values=np.zeros((2, 2)), mask=np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        ObservationMatrix(values=np.zeros(3), mask=np.zeros(3, dtype=bool))


def test_matrix_owns_its_arrays_read_only():
    """Holders key work on the matrix object, so its arrays cannot change."""
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[True, False], [True, True]])
    obs = ObservationMatrix(values=values, mask=mask)
    for array in (obs.values, obs.mask, values, mask):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = array[1, 1]
    assert obs.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    built = ObservationMatrix.from_triples([(0, 0, 1.0)], n_users=2, n_tasks=2)
    assert not built.values.flags.writeable and not built.mask.flags.writeable


def test_methods_reject_empty_matrix():
    empty = ObservationMatrix(values=np.zeros((2, 2)), mask=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        MeanBaseline().estimate(empty)


def test_mean_baseline_estimate():
    obs = _small_matrix()
    estimate = MeanBaseline().estimate(obs)
    assert estimate.truths[0] == 2.0
    assert estimate.truths[1] == 5.0
    assert np.all(estimate.reliabilities == 1.0)
    assert estimate.converged


def test_from_pairs_contract():
    # (0, 0) repeats: the last entry wins.  (1, 1) is finite first, then NaN:
    # the NaN erases it.  (2, 0) is inf: never observed.
    obs = ObservationMatrix.from_pairs(
        users=[0, 1, 0, 1, 2],
        tasks=[0, 1, 0, 1, 0],
        values=[1.0, 4.0, 7.0, np.nan, np.inf],
        n_users=3,
        n_tasks=2,
    )
    assert obs.mask.tolist() == [[True, False], [False, False], [False, False]]
    assert obs.values.tolist() == [[7.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    # A finite entry after a NaN restores the pair.
    obs = ObservationMatrix.from_pairs([0, 0], [0, 0], [np.nan, 2.5], n_users=1, n_tasks=1)
    assert obs.mask[0, 0] and obs.values[0, 0] == 2.5


def test_from_pairs_rejects_pairs_outside_the_matrix():
    for users, tasks in (([2], [0]), ([0], [2]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(ValueError, match="outside"):
            ObservationMatrix.from_pairs(users, tasks, [1.0], n_users=2, n_tasks=2)


def test_from_pairs_rejects_a_length_mismatch():
    with pytest.raises(ValueError, match="one value per pair"):
        ObservationMatrix.from_pairs([0, 1], [0, 0], [1.0], n_users=2, n_tasks=1)


def test_from_pairs_empty_input():
    obs = ObservationMatrix.from_pairs([], [], [], n_users=2, n_tasks=3)
    assert obs.values.shape == (2, 3)
    assert obs.observation_count == 0
    assert not obs.values.any()


def test_with_pairs_folds_into_new_arrays():
    """``with_pairs`` is ``from_pairs`` overlaid on a matrix: a finite kept
    entry is written, a non-finite one leaves its pair as it was, and the
    result owns new read-only arrays."""
    before = ObservationMatrix.from_pairs([0, 1], [0, 1], [1.0, 2.0], n_users=3, n_tasks=2)
    after = before.with_pairs(
        users=[2, 1, 0, 2, 2],
        tasks=[1, 1, 1, 0, 0],
        values=[3.0, np.nan, 4.0, 5.0, np.inf],
    )
    assert after.mask.tolist() == [[True, True], [False, True], [False, True]]
    assert after.values.tolist() == [[1.0, 4.0], [0.0, 2.0], [0.0, 3.0]]
    assert before.mask.tolist() == [[True, False], [False, True], [False, False]]
    assert before.values.tolist() == [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]
    for array in (after.values, after.mask):
        assert not array.flags.writeable
        assert not np.shares_memory(array, before.values)
        assert not np.shares_memory(array, before.mask)
    new = ObservationMatrix.from_pairs([2, 0, 2], [1, 1, 0], [3.0, 4.0, np.inf], 3, 2)
    expected = ObservationMatrix(
        values=np.where(new.mask, new.values, before.values), mask=before.mask | new.mask
    )
    folded = before.with_pairs([2, 0, 2], [1, 1, 0], [3.0, 4.0, np.inf])
    assert np.array_equal(folded.values, expected.values)
    assert np.array_equal(folded.mask, expected.mask)


def test_with_pairs_raises_as_from_pairs_does():
    obs = ObservationMatrix.from_pairs([], [], [], n_users=2, n_tasks=2)
    with pytest.raises(ValueError, match="outside"):
        obs.with_pairs([2], [0], [1.0])
    with pytest.raises(ValueError, match="one value per pair"):
        obs.with_pairs([0, 1], [0, 0], [1.0])


def test_from_triples_nan_leaves_its_pair_unobserved():
    obs = ObservationMatrix.from_triples([(0, 0, np.nan), (1, 0, 2.0)], n_users=2, n_tasks=1)
    assert obs.mask.tolist() == [[False], [True]]
    assert obs.task_means()[0] == 2.0


def test_from_triples_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match="outside"):
        ObservationMatrix.from_triples([(-1, 0, 5.0)], n_users=2, n_tasks=1)
    with pytest.raises(ValueError, match="outside"):
        ObservationMatrix.from_triples([(0, 1, 5.0)], n_users=2, n_tasks=1)
