"""Tests for task/user entities and the observation world."""

import numpy as np
import pytest

from repro.core.expertise import MIN_EXPERTISE
from repro.simulation.adversaries import BiasedAdversary, ColludingAdversary, RandomAdversary
from repro.simulation.entities import TaskSpec, UserSpec
from repro.simulation.world import World


def _specs(n_users=4, n_tasks=6, n_domains=2, seed=0):
    rng = np.random.default_rng(seed)
    users = tuple(
        UserSpec(
            user_id=i,
            expertise=tuple(rng.uniform(0.2, 3.0, n_domains)),
            capacity=float(rng.uniform(5.0, 10.0)),
        )
        for i in range(n_users)
    )
    tasks = tuple(
        TaskSpec(
            task_id=j,
            true_value=float(rng.uniform(0.0, 20.0)),
            base_number=float(rng.uniform(0.5, 3.0)),
            processing_time=float(rng.uniform(0.5, 1.5)),
            true_domain=int(rng.integers(n_domains)),
        )
        for j in range(n_tasks)
    )
    return users, tasks


class TestSpecs:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(task_id=0, true_value=1.0, base_number=0.0, processing_time=1.0)
        with pytest.raises(ValueError):
            TaskSpec(task_id=0, true_value=1.0, base_number=1.0, processing_time=0.0)
        with pytest.raises(ValueError):
            TaskSpec(task_id=0, true_value=1.0, base_number=1.0, processing_time=1.0, cost=-1.0)

    def test_user_validation(self):
        with pytest.raises(ValueError):
            UserSpec(user_id=0, expertise=(1.0,), capacity=-1.0)
        with pytest.raises(ValueError):
            UserSpec(user_id=0, expertise=(-1.0,), capacity=1.0)


class TestWorld:
    def test_observation_std_matches_model(self):
        users, tasks = _specs()
        world = World(users, tasks, seed=1)
        user, task = 0, 0
        expected = tasks[task].base_number / max(
            users[user].expertise[tasks[task].true_domain], MIN_EXPERTISE
        )
        assert world.observation_std(user, task) == pytest.approx(expected)

    def test_observations_center_on_truth(self):
        users, tasks = _specs()
        world = World(users, tasks, seed=2)
        samples = [world.observe(1, 2) for _ in range(4000)]
        std = world.observation_std(1, 2)
        assert np.mean(samples) == pytest.approx(tasks[2].true_value, abs=4 * std / np.sqrt(4000))
        assert np.std(samples) == pytest.approx(std, rel=0.1)

    def test_expertise_floor_applied(self):
        users = (UserSpec(user_id=0, expertise=(0.0,), capacity=1.0),)
        tasks = (TaskSpec(task_id=0, true_value=0.0, base_number=1.0, processing_time=1.0),)
        world = World(users, tasks, seed=3)
        assert world.user_expertise_for_task(0, 0) == MIN_EXPERTISE
        assert np.isfinite(world.observe(0, 0))

    def test_bias_injection_preserves_moments(self):
        users, tasks = _specs()
        world = World(users, tasks, bias_fraction=1.0, seed=4)
        samples = np.array([world.observe(0, 0) for _ in range(6000)])
        std = world.observation_std(0, 0)
        # Uniform with matched mean/std: bounded support, same two moments.
        assert np.max(np.abs(samples - tasks[0].true_value)) <= np.sqrt(3) * std + 1e-9
        assert np.std(samples) == pytest.approx(std, rel=0.1)

    def test_observe_pairs_batch(self):
        users, tasks = _specs()
        world = World(users, tasks, seed=5)
        values = world.observe_pairs([(0, 0), (1, 1)])
        assert len(values) == 2

    def test_array_accessors(self):
        users, tasks = _specs()
        world = World(users, tasks, seed=6)
        assert world.true_values().shape == (6,)
        assert world.base_numbers().shape == (6,)
        assert world.true_domains().dtype.kind == "i"
        assert world.capacities().shape == (4,)
        assert world.true_expertise_matrix().shape == (4, 2)

    def test_validation(self):
        users, tasks = _specs()
        with pytest.raises(ValueError):
            World((), tasks)
        with pytest.raises(ValueError):
            World(users, ())
        with pytest.raises(ValueError):
            World(users, tasks, bias_fraction=1.5)


def _reference_observations(users, tasks, expertise, pairs, rng, bias_fraction, adversaries):
    """The Section 2.4 sampler written one scalar pair at a time."""
    values = []
    for user, task in pairs:
        spec = tasks[task]
        std = spec.base_number / max(float(expertise[user, spec.true_domain]), MIN_EXPERTISE)
        behaviour = adversaries.get(user)
        if behaviour is not None:
            values.append(float(behaviour(spec, std, rng)))
        elif bias_fraction > 0.0 and rng.random() < bias_fraction:
            half_width = float(np.sqrt(3.0)) * std
            values.append(float(rng.uniform(spec.true_value - half_width, spec.true_value + half_width)))
        else:
            values.append(float(rng.normal(spec.true_value, std)))
    return values


@pytest.mark.parametrize(
    "bias_fraction, adversarial, drift_rate",
    [(0.0, False, 0.0), (0.4, False, 0.0), (0.3, True, 0.0), (0.0, True, 0.5)],
    ids=["honest", "biased", "adversarial", "drifted"],
)
def test_observe_pairs_matches_scalar_reference(bias_fraction, adversarial, drift_rate):
    users, tasks = _specs(n_users=5, n_tasks=8, n_domains=3, seed=9)
    # User 4 has no expertise at all, so the MIN_EXPERTISE floor is exercised.
    users = users[:4] + (UserSpec(user_id=4, expertise=(0.0, 0.0, 0.0), capacity=1.0),)
    adversaries = (
        {1: RandomAdversary(), 2: BiasedAdversary(), 3: ColludingAdversary()} if adversarial else {}
    )

    def make_world():
        rng = np.random.default_rng(21)
        world = World(users, tasks, bias_fraction, drift_rate, adversaries, seed=rng)
        if drift_rate:
            world.advance_day()
        return world, rng

    world, rng = make_world()
    reference_rng = np.random.default_rng(21)
    if drift_rate:
        reference_rng.normal(0.0, drift_rate, size=(len(users), 3))
    expertise = world.true_expertise_matrix()
    # An empty batch draws nothing on every path.
    state = rng.bit_generator.state
    assert world.observe_pairs([]) == []
    assert rng.bit_generator.state == state
    pairs = [(user, task) for task in range(len(tasks)) for user in range(len(users))]
    pairs += [(4, 0), (0, 3), (0, 3)]
    # The same pairs as an (n, 2) array, as `experiments.figures` passes them.
    array_world, array_rng = make_world()
    array_values = array_world.observe_pairs(np.array(pairs, dtype=np.intp))
    values = world.observe_pairs(pairs)
    expected = _reference_observations(
        users, tasks, expertise, pairs, reference_rng, bias_fraction, adversaries
    )
    assert values == expected
    assert array_values == expected
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert array_rng.bit_generator.state == reference_rng.bit_generator.state
    # The scalar accessors agree with the batch lookup.
    for user, task in pairs:
        assert world.user_expertise_for_task(user, task) == max(
            float(expertise[user, tasks[task].true_domain]), MIN_EXPERTISE
        )
    assert world.observe(0, 0) == _reference_observations(
        users, tasks, expertise, [(0, 0)], reference_rng, bias_fraction, adversaries
    )[0]
