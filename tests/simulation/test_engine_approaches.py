"""Integration tests for the simulation engine and the five approaches."""

import numpy as np
import pytest

from repro.datasets import survey_dataset, synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach, MeanApproach, ReliabilityApproach
from repro.truthdiscovery import AverageLog, HubsAuthorities, TruthFinder


@pytest.fixture(scope="module")
def small_synthetic():
    return synthetic_dataset(n_users=30, n_tasks=120, n_domains=4, seed=5)


@pytest.fixture(scope="module")
def small_survey():
    return survey_dataset(n_users=30, n_tasks=60, base_questions=40, seed=6)


def test_eta2_runs_and_improves(small_synthetic):
    result = run_simulation(
        small_synthetic, ETA2Approach(alpha=0.5), SimulationConfig(n_days=4, seed=1)
    )
    errors = result.errors_by_day()
    assert errors.shape == (4,)
    assert np.all(np.isfinite(errors))
    assert errors[-1] < errors[0]
    assert result.approach_name == "ETA2"
    assert result.dataset_name == "synthetic"


def test_eta2_records_artifacts(small_synthetic):
    result = run_simulation(
        small_synthetic, ETA2Approach(alpha=0.5), SimulationConfig(n_days=3, seed=2)
    )
    # Expertise snapshot covers the synthetic domains.
    assert set(result.expertise_snapshot) <= set(range(4))
    # Labels align with the processing order.
    assert result.task_domain_labels.shape == result.processed_task_order.shape
    # Iteration log: one entry per day.
    assert len(result.mle_iterations) == 3
    # Observation-level records exist and are aligned.
    assert result.observation_errors.shape == result.observation_expertise.shape
    assert result.observation_errors.size > 0



def test_observation_expertise_is_the_per_pair_hidden_expertise(small_synthetic):
    result = run_simulation(
        small_synthetic, ETA2Approach(), SimulationConfig(n_days=3, seed=3, dropout_rate=0.3)
    )
    # One collection call per day, pairs in row-major order; dropouts are
    # not recorded.
    world = small_synthetic.world()
    expected = []
    for day in result.days:
        users, local = np.nonzero(day.observations.mask)
        expected += [
            world.user_expertise_for_task(user, task)
            for user, task in zip(users.tolist(), day.task_indices[local].tolist())
        ]
    assert result.observation_expertise.tolist() == expected

@pytest.mark.parametrize(
    "factory",
    [
        lambda: ReliabilityApproach(HubsAuthorities()),
        lambda: ReliabilityApproach(AverageLog()),
        lambda: ReliabilityApproach(TruthFinder()),
        lambda: MeanApproach(),
    ],
)
def test_baseline_approaches_run(small_synthetic, factory):
    result = run_simulation(small_synthetic, factory(), SimulationConfig(n_days=3, seed=3))
    assert len(result.days) == 3
    assert np.all(np.isfinite(result.errors_by_day()))
    assert result.total_cost > 0
    # Baselines expose no ETA2-specific artifacts.
    assert result.expertise_snapshot is None


def test_eta2_clusters_text_datasets(small_survey):
    result = run_simulation(
        small_survey, ETA2Approach(gamma=0.3, alpha=0.5), SimulationConfig(n_days=3, seed=4)
    )
    labels = result.task_domain_labels
    assert labels.shape == (small_survey.n_tasks,)
    assert len(set(labels.tolist())) >= 2


def test_same_seed_reproduces_run(small_synthetic):
    a = run_simulation(small_synthetic, ETA2Approach(), SimulationConfig(n_days=2, seed=9))
    b = run_simulation(small_synthetic, ETA2Approach(), SimulationConfig(n_days=2, seed=9))
    assert np.array_equal(a.errors_by_day(), b.errors_by_day())
    assert a.total_cost == b.total_cost


def test_different_seeds_differ(small_synthetic):
    a = run_simulation(small_synthetic, ETA2Approach(), SimulationConfig(n_days=2, seed=10))
    b = run_simulation(small_synthetic, ETA2Approach(), SimulationConfig(n_days=2, seed=11))
    assert not np.array_equal(a.errors_by_day(), b.errors_by_day())


def test_day_records_capture_coverage(small_synthetic):
    result = run_simulation(small_synthetic, ETA2Approach(), SimulationConfig(n_days=2, seed=12))
    for day in result.days:
        assert 0.0 <= day.observed_task_fraction <= 1.0
        assert day.pair_count == day.observations.observation_count


def test_bias_fraction_flows_to_world(small_synthetic):
    clean = run_simulation(
        small_synthetic, ETA2Approach(), SimulationConfig(n_days=2, seed=13, bias_fraction=0.0)
    )
    biased = run_simulation(
        small_synthetic, ETA2Approach(), SimulationConfig(n_days=2, seed=13, bias_fraction=1.0)
    )
    # Full uniform bias bounds every observation error by sqrt(3) * sigma/u;
    # the tails of the two runs differ.
    assert not np.array_equal(clean.observation_errors, biased.observation_errors)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(n_days=0)
    with pytest.raises(ValueError):
        SimulationConfig(bias_fraction=2.0)


def test_eta2_mc_approach_name_and_cost(small_synthetic):
    mc = ETA2Approach(allocator="min-cost", min_cost_round_budget=40.0)
    assert mc.name == "ETA2-mc"
    result_mc = run_simulation(small_synthetic, mc, SimulationConfig(n_days=3, seed=14))
    result_mq = run_simulation(
        small_synthetic, ETA2Approach(), SimulationConfig(n_days=3, seed=14)
    )
    assert result_mc.total_cost < result_mq.total_cost


def test_clustering_requested_without_descriptions_fails(small_synthetic):
    approach = ETA2Approach(use_clustering=True)
    with pytest.raises(ValueError):
        run_simulation(small_synthetic, approach, SimulationConfig(n_days=2, seed=15))
