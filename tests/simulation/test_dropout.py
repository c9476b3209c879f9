"""Tests for response dropouts (assigned users that never deliver)."""

import numpy as np
import pytest

from repro.datasets import synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach, MeanApproach, ReliabilityApproach
from repro.truthdiscovery import TruthFinder


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(n_users=30, n_tasks=120, n_domains=3, seed=0)


def test_dropouts_reduce_observation_count(dataset):
    clean = run_simulation(dataset, ETA2Approach(), SimulationConfig(n_days=3, seed=1))
    lossy = run_simulation(
        dataset, ETA2Approach(), SimulationConfig(n_days=3, seed=1, dropout_rate=0.4)
    )
    clean_obs = sum(day.observations.observation_count for day in clean.days)
    lossy_obs = sum(day.observations.observation_count for day in lossy.days)
    assert lossy_obs < 0.75 * clean_obs
    # Capacity is still consumed: the assigned-pair volume stays at the
    # capacity-filling level (it shifts by a few pairs because allocation
    # decisions react to the different learned expertise).
    clean_pairs = sum(day.pair_count for day in clean.days)
    lossy_pairs = sum(day.pair_count for day in lossy.days)
    assert lossy_pairs > 0.95 * clean_pairs
    assert lossy_pairs > lossy_obs


def test_error_degrades_gracefully_under_dropout(dataset):
    errors = []
    for rate in (0.0, 0.3, 0.6):
        result = run_simulation(
            dataset, ETA2Approach(), SimulationConfig(n_days=4, seed=2, dropout_rate=rate)
        )
        errors.append(result.mean_estimation_error)
    # Fewer observations -> higher error, but no collapse at 60% dropout.
    assert errors[0] <= errors[2]
    assert errors[2] < 6.0 * errors[0]


def test_observation_records_exclude_dropouts(dataset):
    result = run_simulation(
        dataset, ETA2Approach(), SimulationConfig(n_days=2, seed=3, dropout_rate=0.5)
    )
    # The per-observation logs only contain delivered observations.
    delivered = sum(day.observations.observation_count for day in result.days)
    assert result.observation_errors.shape == (delivered,)
    assert not np.any(np.isnan(result.observation_errors))


def test_mean_approach_handles_dropouts(dataset):
    result = run_simulation(
        dataset, MeanApproach(), SimulationConfig(n_days=2, seed=4, dropout_rate=0.5)
    )
    assert np.all(np.isfinite(result.errors_by_day()))


def test_min_cost_recruits_replacements(dataset):
    clean = run_simulation(
        dataset,
        ETA2Approach(allocator="min-cost", min_cost_round_budget=40.0),
        SimulationConfig(n_days=3, seed=5),
    )
    lossy = run_simulation(
        dataset,
        ETA2Approach(allocator="min-cost", min_cost_round_budget=40.0),
        SimulationConfig(n_days=3, seed=5, dropout_rate=0.4),
    )
    # Dropouts waste recruiting budget, so reaching the quality bar costs
    # more (or at least not less).
    assert lossy.total_cost >= clean.total_cost


def test_dropout_rate_validated():
    with pytest.raises(ValueError):
        SimulationConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(dropout_rate=-0.1)


def test_pipeline_collect_masks_nan():
    from repro.core.pipeline import ETA2System, IncomingTask

    system = ETA2System(n_users=4, capacities=[4.0] * 4, seed=6)
    tasks = [IncomingTask(processing_time=1.0, domain=0) for _ in range(4)]

    def observe(pairs):
        # First responder drops out, everyone else reports 5.0.
        return [float("nan") if index == 0 else 5.0 for index in range(len(pairs))]

    result = system.warmup(tasks, observe)
    assert result.observations.observation_count == result.assignment.pair_count - 1


class _RecordingTruthFinder(TruthFinder):
    """TruthFinder that keeps the last matrix it was asked to analyse."""

    def estimate(self, observations):
        self.seen = observations
        return super().estimate(observations)


def test_reliability_approach_sees_only_delivered_observations(dataset):
    # Dropped pairs must reach the method as missing, not as observed zeros.
    method = _RecordingTruthFinder()
    result = run_simulation(
        dataset, ReliabilityApproach(method), SimulationConfig(n_days=3, seed=5, dropout_rate=0.5)
    )
    delivered = np.hstack([day.observations.mask for day in result.days])
    assert delivered.sum() < sum(day.pair_count for day in result.days)
    assert np.array_equal(method.seen.mask, delivered)
