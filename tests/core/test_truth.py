"""Tests for the batch MLE truth analysis (Eqs. 5-6)."""

import hashlib
import logging

import numpy as np
import pytest

from repro.core.truth import estimate_truth, update_truths_for_expertise
from repro.core.update import ExpertiseUpdater
from repro.truthdiscovery.base import ObservationMatrix


def _synthetic_batch(seed=0, n_users=40, n_tasks=80, n_domains=4, density=0.4):
    rng = np.random.default_rng(seed)
    expertise = rng.uniform(0.3, 3.0, (n_users, n_domains))
    domains = rng.integers(0, n_domains, n_tasks)
    truths = rng.uniform(0.0, 20.0, n_tasks)
    sigmas = rng.uniform(0.5, 5.0, n_tasks)
    mask = rng.random((n_users, n_tasks)) < density
    noise = rng.standard_normal((n_users, n_tasks))
    values = truths[None, :] + noise * sigmas[None, :] / expertise[:, domains]
    obs = ObservationMatrix(values=np.where(mask, values, 0.0), mask=mask)
    return obs, domains, truths, sigmas, expertise


class TestEq5:
    def test_weighted_mean_formula(self):
        obs = ObservationMatrix.from_triples(
            [(0, 0, 2.0), (1, 0, 6.0)], n_users=2, n_tasks=1
        )
        expertise = np.array([[2.0], [1.0]])  # weights 4 : 1
        truths, sigmas = update_truths_for_expertise(obs, expertise)
        assert truths[0] == pytest.approx((4 * 2.0 + 1 * 6.0) / 5.0)
        assert sigmas[0] > 0

    def test_unobserved_task_is_nan(self):
        obs = ObservationMatrix.from_triples([(0, 0, 1.0)], n_users=1, n_tasks=2)
        truths, sigmas = update_truths_for_expertise(obs, np.ones((1, 2)))
        assert np.isnan(truths[1])
        assert sigmas[1] > 0  # floored, not NaN

    def test_sigma_formula_single_task(self):
        # sigma^2 = sum w u^2 (x - mu)^2 / count
        obs = ObservationMatrix.from_triples(
            [(0, 0, 0.0), (1, 0, 2.0)], n_users=2, n_tasks=1
        )
        expertise = np.ones((2, 1))
        truths, sigmas = update_truths_for_expertise(obs, expertise)
        assert truths[0] == 1.0
        assert sigmas[0] == pytest.approx(np.sqrt((1.0 + 1.0) / 2.0))


class TestEstimateTruth:
    def test_beats_plain_mean_on_heterogeneous_data(self):
        obs, domains, truths, sigmas, _ = _synthetic_batch()
        result = estimate_truth(obs, domains)
        mle_error = np.nanmean(np.abs(result.truths - truths) / sigmas)
        mean_error = np.nanmean(np.abs(obs.task_means() - truths) / sigmas)
        assert mle_error < mean_error

    def test_recovers_expertise_ordering(self):
        obs, domains, _, _, expertise = _synthetic_batch(seed=1, density=0.6)
        result = estimate_truth(obs, domains)
        correlation = np.corrcoef(result.expertise.ravel(), expertise.ravel())[0, 1]
        assert correlation > 0.4

    def test_convergence_flag_and_iterations(self):
        obs, domains, _, _, _ = _synthetic_batch(seed=2)
        result = estimate_truth(obs, domains)
        assert result.converged
        assert 2 <= result.iterations <= 100

    def test_domain_ids_default_to_sorted_labels(self):
        obs, domains, _, _, _ = _synthetic_batch(seed=4)
        result = estimate_truth(obs, domains)
        assert result.domain_ids == tuple(sorted(set(domains.tolist())))

    def test_expertise_for_tasks_lookup(self):
        obs, domains, _, _, _ = _synthetic_batch(seed=5)
        result = estimate_truth(obs, domains)
        task_expertise = result.expertise_for_tasks(domains)
        assert task_expertise.shape == (obs.n_users, obs.n_tasks)
        column = list(result.domain_ids).index(domains[0])
        assert task_expertise[0, 0] == result.expertise[0, column]

    def test_validation(self):
        obs, domains, _, _, _ = _synthetic_batch(seed=6)
        with pytest.raises(ValueError):
            estimate_truth(obs, domains[:-1])
        empty = ObservationMatrix(
            values=np.zeros_like(obs.values), mask=np.zeros_like(obs.mask)
        )
        with pytest.raises(ValueError):
            estimate_truth(empty, domains)

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_non_positive_max_iterations_rejected(self, max_iterations, caplog):
        obs, domains, _, _, _ = _synthetic_batch(seed=7)
        with caplog.at_level(logging.WARNING):
            with pytest.raises(ValueError, match="max_iterations must be at least 1"):
                estimate_truth(obs, domains, max_iterations=max_iterations)
        assert caplog.records == []

    def test_single_observer_task_does_not_blow_up(self):
        obs = ObservationMatrix.from_triples(
            [(0, 0, 5.0), (0, 1, 3.0), (1, 1, 4.0)], n_users=2, n_tasks=2
        )
        result = estimate_truth(obs, np.zeros(2, dtype=int))
        assert np.all(np.isfinite(result.truths))
        assert np.all(result.expertise <= 10.0)


class TestDegenerateDomains:
    """Single-task / single-user / zero-variance domains.

    These are the shapes that historically tripped per-domain code: a
    domain whose only task has one observer produces a zero residual and
    a floored sigma; the solve must still converge cleanly, with no
    non-convergence warnings.
    """

    def make_degenerate(self):
        # domain 0: one task, one observer, zero variance.  domain 1: a
        # single user observing two identical values (zero variance
        # again, sigma floored).  domain 2: a normal domain.
        n_users, n_tasks = 6, 7
        values = np.zeros((n_users, n_tasks))
        mask = np.zeros((n_users, n_tasks), dtype=bool)
        domains = np.array([0, 1, 1, 2, 2, 2, 2])
        mask[3, 0] = True
        values[3, 0] = 4.25
        mask[1, 1] = mask[1, 2] = True
        values[1, 1] = values[1, 2] = 2.0
        rng = np.random.default_rng(21)
        for task in range(3, 7):
            observers = rng.choice(n_users, size=3, replace=False)
            mask[observers, task] = True
            values[observers, task] = rng.normal(1.0, 0.5, 3)
        return ObservationMatrix(values=values, mask=mask), domains

    def test_estimate_converges_cleanly(self, caplog):
        observations, domains = self.make_degenerate()
        with caplog.at_level(logging.WARNING):
            result = estimate_truth(observations, domains)
        assert result.converged
        assert caplog.records == []
        assert result.truths[0] == 4.25
        assert result.truths[1] == 2.0

    def test_incorporate_converges_cleanly(self, caplog):
        observations, domains = self.make_degenerate()
        with caplog.at_level(logging.WARNING):
            result = ExpertiseUpdater(observations.n_users).incorporate(observations, domains)
        assert result.converged
        assert caplog.records == []


class _EventLog:
    """A minimal enabled tracer recording every event it is handed."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event_type, **fields):
        self.events.append((event_type, sorted(fields.items())))


def _section4_batches():
    """A warm-up and a next-day matrix: 12 users, 3 + 1 domains, ~15 % junk."""
    rng = np.random.default_rng(2017)
    batches = []
    for n_tasks, n_domains in ((24, 3), (18, 4)):
        expertise = rng.uniform(0.3, 3.0, (12, n_domains))
        domains = rng.integers(0, n_domains, n_tasks)
        truths = rng.uniform(-5.0, 20.0, n_tasks)
        sigmas = rng.uniform(0.5, 5.0, n_tasks)
        mask = rng.random((12, n_tasks)) < 0.5
        noise = rng.standard_normal((12, n_tasks))
        values = truths + noise * sigmas / expertise[:, domains]
        junk = mask & (rng.random(mask.shape) < 0.15)
        values = np.where(junk, truths + 8.0 * sigmas, values)
        batches.append((ObservationMatrix(values=np.where(mask, values, 0.0), mask=mask), domains))
    return batches


#: SHA-256 over every Section 4 output the pin test below produces.
SECTION4_PLAIN_DIGEST = "85f7510017fff1159a1085e1c3c14988cd84fe5455c8013ddd232a21c5b73d39"


def test_section4_plain_outputs_are_pinned(caplog):
    """Truths, sigmas, expertise, verdicts, ``mle.*`` events and warnings of
    both §4 entry points, at 1, 2 and 100 iterations and with ``commit``
    True and False, hash to a committed digest."""
    (warm_obs, warm_domains), (obs, domains) = _section4_batches()
    warm = estimate_truth(warm_obs, warm_domains)
    caplog.set_level(logging.WARNING)
    caplog.clear()
    digest = hashlib.sha256()

    def feed(*arrays, events, **flags):
        for array in arrays:
            digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
        warnings = [record.getMessage() for record in caplog.records]
        digest.update(repr((sorted(flags.items()), events, warnings)).encode())
        caplog.clear()

    for max_iterations in (1, 2, 100):
        log = _EventLog()
        batch = estimate_truth(warm_obs, warm_domains, max_iterations=max_iterations, tracer=log)
        feed(
            batch.truths, batch.sigmas, batch.expertise,
            events=log.events, iterations=batch.iterations, converged=batch.converged,
        )
        for commit in (True, False):
            updater = ExpertiseUpdater(warm_obs.n_users)
            updater.seed_from_batch(warm_obs, warm_domains, warm)
            log = _EventLog()
            step = updater.incorporate(
                obs, domains, max_iterations=max_iterations, commit=commit, tracer=log
            )
            feed(
                step.truths, step.sigmas, step.task_expertise,
                updater.task_expertise(updater.domain_ids),
                events=log.events, iterations=step.iterations, converged=step.converged,
            )
    assert digest.hexdigest() == SECTION4_PLAIN_DIGEST
