"""Reliability behaviour of the ETA2 closed loop itself.

Covers the guards that live in :class:`ETA2System` rather than in the
``repro.reliability`` package: non-finite payload coercion on collection
(``Assignment.collect``), convergence surfacing through :class:`StepResult`, degraded (zero-data)
days, and collection through a ``ResilientObserver``.
"""

import logging
from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import ETA2System, IncomingTask, StepResult
from repro.reliability.observer import ResilientObserver, RetryPolicy


def _system(seed=0, n_users=10):
    return ETA2System(n_users=n_users, capacities=np.full(n_users, 8.0), alpha=0.5, seed=seed)


def _tasks(rng, n=12, n_domains=3):
    return [
        IncomingTask(processing_time=float(rng.uniform(0.5, 1.5)), domain=int(rng.integers(n_domains)))
        for _ in range(n)
    ]


def _good_observe(rng):
    def observe(pairs):
        return [10.0 + rng.standard_normal() for _ in pairs]

    return observe


class TestCollectCoercion:
    def test_inf_payload_becomes_missing(self):
        """inf must be excluded from the mask, not stored as a value."""
        rng = np.random.default_rng(0)
        system = _system()

        def observe(pairs):
            values = [10.0 + rng.standard_normal() for _ in pairs]
            values[0] = float("inf")
            values[1] = float("-inf")
            values[2] = float("nan")
            return values

        result = system.warmup(_tasks(rng), observe)
        pair_count = result.assignment.pair_count
        assert result.observations.observation_count == pair_count - 3
        assert np.all(np.isfinite(result.observations.values))

    def test_wrong_length_response_rejected(self):
        rng = np.random.default_rng(1)
        system = _system()
        with pytest.raises(ValueError, match="one value per pair"):
            system.warmup(_tasks(rng), lambda pairs: [1.0])


class TestConvergenceSurfacing:
    def test_converged_flag_true_on_clean_run(self):
        rng = np.random.default_rng(2)
        system = _system()
        result = system.warmup(_tasks(rng), _good_observe(rng))
        assert isinstance(result, StepResult)
        assert result.converged
        assert not result.degraded
        assert result.mle_iterations >= 1

    def test_degraded_property_mirrors_converged(self):
        assert StepResult.__dataclass_fields__["converged"].default is True


class TestDegradedDays:
    def test_total_outage_during_warmup(self, caplog):
        """All-NaN collection: degraded result, system stays un-warmed."""
        rng = np.random.default_rng(3)
        system = _system()
        with caplog.at_level(logging.WARNING, logger="repro.core.pipeline"):
            result = system.warmup(_tasks(rng), lambda pairs: [float("nan")] * len(pairs))
        assert not result.converged
        assert np.all(np.isnan(result.truths))
        assert result.observations.observation_count == 0
        assert not system.is_warmed_up  # the next day retries warm-up
        assert system.iteration_log == [0]
        assert any("zero observations" in message for message in caplog.messages)

        # Warm-up retries cleanly once collection recovers.
        retry = system.warmup(_tasks(rng), _good_observe(rng))
        assert retry.converged
        assert system.is_warmed_up

    def test_total_outage_during_step_skips_update(self):
        """A zero-data day must not decay the learned expertise."""
        rng = np.random.default_rng(4)
        system = _system()
        system.warmup(_tasks(rng), _good_observe(rng))
        before = system.expertise_matrix()
        before_columns = {d: before.column(d).copy() for d in before.domain_ids}

        result = system.step(_tasks(rng), lambda pairs: [float("nan")] * len(pairs))
        assert not result.converged
        assert np.all(np.isnan(result.truths))
        after = system.expertise_matrix()
        assert after.domain_ids == before.domain_ids
        for domain_id, column in before_columns.items():
            assert np.array_equal(after.column(domain_id), column)

        # And the system keeps working on the next (healthy) day.
        healthy = system.step(_tasks(rng), _good_observe(rng))
        assert healthy.converged

    def test_degraded_day_not_checkpointed(self, tmp_path):
        rng = np.random.default_rng(5)
        system = _system()
        system.enable_checkpointing(tmp_path)
        system.warmup(_tasks(rng), _good_observe(rng))
        assert len(system.checkpoint_manager.checkpoints()) == 1
        system.step(_tasks(rng), lambda pairs: [float("nan")] * len(pairs))
        # Nothing was learned, so nothing new was persisted.
        assert len(system.checkpoint_manager.checkpoints()) == 1
        assert system.completed_steps == 1

    def test_degraded_day_keeps_its_guard_report(self):
        """A zero-data day still reports what the guards found."""
        rng = np.random.default_rng(8)
        system = _system()
        guard = system.enable_guards()
        check_partition = guard.check_partition
        # Pretend domain identification emitted labels nobody tracks.
        guard.check_partition = lambda domains, known: check_partition(domains, ())
        result = system.warmup(_tasks(rng), lambda pairs: [float("nan")] * len(pairs))
        assert result.degraded
        assert result.guard_report is not None
        assert not result.guard_report.ok
        assert [v.check for v in result.guard_report.violations] == ["valid_partition"]


def _inject_bad_truth(result, observations):
    """Corrupt the first observed task's estimate: infinite truth, zero sigma."""
    task = int(np.flatnonzero(observations.mask.any(axis=0))[0])
    truths, sigmas = result.truths.copy(), result.sigmas.copy()
    truths[task], sigmas[task] = np.inf, 0.0
    return replace(result, truths=truths, sigmas=sigmas), task


class TestGuardsThroughEntryPoints:
    """``enable_guards("repair")`` repairs a corrupt truth step whichever
    entry point ran it: warm-up guards the batch MLE before seeding the
    updater, daily steps guard the committed Section 4.2 update."""

    @pytest.mark.parametrize(
        "entry, warm",
        [
            ("warmup", False),
            ("step", True),
            ("step_from_batch", False),
            ("step_from_batch", True),
        ],
        ids=["warmup", "step", "step_from_batch-cold", "step_from_batch-warm"],
    )
    def test_repair_policy_repairs_non_finite_truth(self, monkeypatch, entry, warm):
        import repro.core.pipeline as pipeline
        from repro.core.update import ExpertiseUpdater

        rng = np.random.default_rng(9)
        system = _system()
        system.enable_guards("repair")
        if warm:
            system.warmup(_tasks(rng), _good_observe(rng))
        corrupted, seeded = [], []
        if warm:
            incorporate = ExpertiseUpdater.incorporate

            def corrupt(self, observations, domains, **kwargs):
                result, task = _inject_bad_truth(
                    incorporate(self, observations, domains, **kwargs), observations
                )
                corrupted.append(task)
                return result

            monkeypatch.setattr(ExpertiseUpdater, "incorporate", corrupt)
        else:
            estimate_truth = pipeline.estimate_truth

            def corrupt(observations, domains, **kwargs):
                result, task = _inject_bad_truth(
                    estimate_truth(observations, domains, **kwargs), observations
                )
                corrupted.append(task)
                return result

            seed_from_batch = ExpertiseUpdater.seed_from_batch

            def spy(self, observations, domains, result):
                seeded.append(result)
                return seed_from_batch(self, observations, domains, result)

            monkeypatch.setattr(pipeline, "estimate_truth", corrupt)
            monkeypatch.setattr(ExpertiseUpdater, "seed_from_batch", spy)

        tasks = _tasks(rng)
        if entry == "step_from_batch":
            reports = [
                (user, task, 10.0 + rng.standard_normal())
                for task in range(len(tasks))
                for user in range(system.n_users)
                if rng.random() < 0.5
            ]
            result = system.step_from_batch(tasks, reports)
        else:
            result = getattr(system, entry)(tasks, _good_observe(rng))

        [task] = corrupted
        assert np.isnan(result.truths[task])  # demoted to the missing marker
        assert np.all(np.isfinite(result.sigmas)) and np.all(result.sigmas > 0)
        assert result.guard_report.repaired
        assert not result.guard_report.ok
        if not warm:
            [batch] = seeded
            assert np.array_equal(batch.truths, result.truths, equal_nan=True)
            assert np.array_equal(batch.sigmas, result.sigmas)


def _resilient(observe):
    return ResilientObserver(
        observe, retry=RetryPolicy(max_attempts=2, base_delay=0.0), sleep=lambda _s: None
    )


class TestConfigureResilience:
    """A ``ResilientObserver`` passed as ``observe`` hardens collection."""

    def test_flaky_observe_degrades_instead_of_raising(self):
        rng = np.random.default_rng(6)
        system = _system()
        calls = {"n": 0}
        inner = _good_observe(rng)

        def observe(pairs):
            calls["n"] += 1
            if calls["n"] % 3 == 1:
                raise ConnectionError("flaky")
            return inner(pairs)

        resilient = _resilient(observe)
        result = system.warmup(_tasks(rng), resilient)
        assert result.converged
        assert resilient.report.exceptions > 0
        assert resilient.report.delivered_pairs > 0

    def test_hard_outage_becomes_degraded_day(self):
        rng = np.random.default_rng(7)
        system = _system()

        def observe(pairs):
            raise RuntimeError("collection service down")

        resilient = _resilient(observe)
        result = system.warmup(_tasks(rng), resilient)  # must not raise
        assert not result.converged
        assert not system.is_warmed_up
        assert resilient.report.failed_pairs > 0
