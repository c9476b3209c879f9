"""Behavioural details of the comparison approaches."""

import numpy as np
import pytest

from repro.core.allocation.base import expertise_for_accuracy, accuracy_probabilities
from repro.datasets import synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import MeanApproach, ReliabilityApproach
from repro.truthdiscovery import HubsAuthorities


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(n_users=25, n_tasks=100, n_domains=3, seed=0)


class TestReliabilityApproach:
    def test_day_one_is_random_then_reliability_greedy(self, dataset):
        approach = ReliabilityApproach(HubsAuthorities())
        result = run_simulation(dataset, approach, SimulationConfig(n_days=3, seed=1))
        # Internal state: reliabilities learned after the first day.
        assert approach._reliabilities is not None
        assert approach._reliabilities.shape == (dataset.n_users,)

    def test_cumulative_matrix_grows_across_days(self, dataset):
        approach = ReliabilityApproach(HubsAuthorities())
        run_simulation(dataset, approach, SimulationConfig(n_days=3, seed=2))
        # All three days' tasks accumulated into the estimation matrix.
        assert approach._cumulative_mask.shape[1] == dataset.n_tasks

    def test_name_comes_from_method(self):
        assert ReliabilityApproach(HubsAuthorities()).name == "hubs-authorities"

    def test_begin_resets_state(self, dataset):
        approach = ReliabilityApproach(HubsAuthorities())
        run_simulation(dataset, approach, SimulationConfig(n_days=2, seed=3))
        approach.begin(dataset, seed=4)
        assert approach._reliabilities is None
        assert approach._cumulative_mask.shape[1] == 0


class TestMeanApproach:
    def test_no_learning_artifacts(self, dataset):
        approach = MeanApproach()
        result = run_simulation(dataset, approach, SimulationConfig(n_days=2, seed=5))
        assert result.expertise_snapshot is None
        assert result.task_domain_labels is None
        assert result.mle_iterations == ()

    def test_truths_are_day_means(self, dataset):
        approach = MeanApproach()
        result = run_simulation(dataset, approach, SimulationConfig(n_days=2, seed=6))
        day = result.days[0]
        expected = day.observations.task_means()
        assert np.allclose(day.truths, expected, equal_nan=True)


@pytest.mark.parametrize(
    "make", [MeanApproach, lambda: ReliabilityApproach(HubsAuthorities())], ids=["mean", "reliability"]
)
class TestBaselineCollection:
    def test_non_finite_payloads_are_dropouts(self, dataset, make):
        approach = make()
        approach.begin(dataset, seed=7)
        outcome = approach.run_day(
            0, dataset.tasks.take(np.arange(10)), lambda pairs: [np.inf if user % 2 else 5.0 for user, _ in pairs]
        )
        assert outcome.observations.mask[::2].any()
        assert not outcome.observations.mask[1::2].any()
        assert not np.isinf(outcome.truths).any()

    def test_short_reply_is_rejected(self, dataset, make):
        approach = make()
        approach.begin(dataset, seed=8)
        with pytest.raises(ValueError, match="one value per pair"):
            approach.run_day(0, dataset.tasks.take(np.arange(10)), lambda pairs: [1.0] * (len(pairs) - 1))


class TestAccuracyExpertiseBridge:
    def test_expertise_for_accuracy_inverts_eq11(self):
        accuracy = np.array([[0.1, 0.5, 0.9]])
        expertise = expertise_for_accuracy(accuracy, epsilon=0.25)
        round_trip = accuracy_probabilities(expertise, epsilon=0.25)
        assert np.allclose(round_trip, accuracy, atol=1e-9)

    def test_extreme_accuracies_stay_finite(self):
        expertise = expertise_for_accuracy(np.array([0.0, 1.0]), epsilon=0.1)
        assert np.all(np.isfinite(expertise))
        assert expertise[1] > expertise[0]

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            expertise_for_accuracy(np.array([0.5]), epsilon=0.0)
