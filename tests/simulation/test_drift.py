"""Tests for the expertise-drift extension."""

import numpy as np
import pytest

from repro.datasets import synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach
from repro.simulation.entities import TaskTable
from repro.simulation.world import World


def _world(drift_rate, seed=0):
    rng = np.random.default_rng(seed)
    expertise = rng.uniform(0.5, 2.5, (5, 2))
    ones = np.ones(4)
    tasks = TaskTable(ones, ones, ones, ones, true_domain=np.arange(4) % 2)
    return World(tasks, expertise, drift_rate=drift_rate, seed=seed)


def test_no_drift_keeps_expertise_fixed():
    world = _world(drift_rate=0.0)
    before = world.true_expertise_matrix()
    for _ in range(5):
        world.advance_day()
    assert np.array_equal(before, world.true_expertise_matrix())


def test_drift_moves_expertise_within_bounds():
    world = _world(drift_rate=0.5, seed=1)
    before = world.true_expertise_matrix()
    for _ in range(10):
        world.advance_day()
    after = world.true_expertise_matrix()
    assert not np.array_equal(before, after)
    low, high = World.DRIFT_BOUNDS
    assert np.all(after >= low)
    assert np.all(after <= high)


def test_drift_affects_observation_noise():
    world = _world(drift_rate=0.0, seed=2)
    std_before = world.observation_std(0, 0)
    drifting = _world(drift_rate=1.0, seed=2)
    for _ in range(10):
        drifting.advance_day()
    # After heavy drift the noise scale for the same pair changed.
    assert drifting.observation_std(0, 0) != pytest.approx(std_before)


def test_true_expertise_matrix_returns_copy():
    world = _world(drift_rate=0.0)
    matrix = world.true_expertise_matrix()
    matrix[:] = 99.0
    assert world.user_expertise_for_task(0, 0) < 99.0


def test_negative_drift_rejected():
    with pytest.raises(ValueError):
        _world(drift_rate=-0.1)


def test_engine_threads_drift_through():
    dataset = synthetic_dataset(n_users=20, n_tasks=80, n_domains=3, seed=3)
    static = run_simulation(
        dataset, ETA2Approach(), SimulationConfig(n_days=3, seed=4, drift_rate=0.0)
    )
    drifting = run_simulation(
        dataset, ETA2Approach(), SimulationConfig(n_days=3, seed=4, drift_rate=0.8)
    )
    # Same seeds, different observation streams from day 2 onward.
    assert not np.array_equal(static.observation_errors, drifting.observation_errors)


def test_config_drift_validation():
    with pytest.raises(ValueError):
        SimulationConfig(drift_rate=-1.0)
