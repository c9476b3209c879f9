"""Incentive experiment: flat pay vs accuracy bonus with strategic users.

The day loop of the paper with one addition: before answering, each user
chooses an effort level (see :mod:`repro.incentives.effort`).  The server
runs ETA2 as usual — it never observes efforts, only data — allocates by
its expertise estimates, pays per the announced scheme, and we score
estimation error and total payout.

Expected shape: under flat pay low effort dominates for everyone (same pay,
lower cost), observations are near-noise, and the error stays high at *any*
budget.  Under the accuracy bonus, high effort is individually rational
exactly for users whose full expertise clears the band, ETA2's estimates
find those users within a day or two, and the error drops — at a comparable
or lower total payout, because payouts concentrate on accurate answers.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.allocation.base import AllocationProblem
from repro.core.allocation.baselines import RandomAllocator
from repro.core.allocation.max_quality import MaxQualityAllocator
from repro.core.update import ExpertiseUpdater
from repro.experiments.reporting import format_series
from repro.incentives.effort import EffortResponsiveUser
from repro.incentives.payments import AccuracyBonusPayment, FlatPayment
from repro.rng import ensure_rng, spawn_rngs
from repro.truthdiscovery.base import ObservationMatrix

__all__ = ["IncentiveComparison", "run_incentive_loop", "incentive_comparison"]


@dataclass(frozen=True)
class IncentiveComparison:
    """Per-day error and cumulative payout per scheme."""

    days: tuple
    error_series: dict
    payout_series: dict
    high_effort_series: dict

    def render(self) -> str:
        blocks = [
            format_series(
                "day",
                self.days,
                self.error_series,
                precision=3,
                title="Incentive extension: estimation error by day",
            ),
            format_series(
                "day",
                self.days,
                self.high_effort_series,
                precision=3,
                title="Incentive extension: fraction of answers at high effort",
            ),
            format_series(
                "day",
                self.days,
                self.payout_series,
                precision=1,
                title="Incentive extension: total payout by day",
            ),
        ]
        return "\n\n".join(blocks)


def _generate_population(n_users, n_domains, rng):
    users = []
    for user_id in range(n_users):
        users.append(
            EffortResponsiveUser(
                user_id=user_id,
                full_expertise=tuple(rng.uniform(0.3, 3.0, n_domains)),
            )
        )
    return users


def run_incentive_loop(
    scheme,
    n_users: int = 40,
    n_domains: int = 4,
    tasks_per_day: int = 30,
    n_days: int = 5,
    tasks_per_user_per_day: float = 8.0,
    eps_bar: float = 0.5,
    seed=None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """One scheme over the day loop.

    Returns ``(day_errors, day_payouts, day_high_effort_fractions)``.
    """
    rng = ensure_rng(seed)
    users = _generate_population(n_users, n_domains, rng)
    updater = ExpertiseUpdater(n_users, alpha=0.5)
    allocator = MaxQualityAllocator()
    random_allocator = RandomAllocator(seed=rng.spawn(1)[0])
    capacities = np.full(n_users, float(tasks_per_user_per_day))

    day_errors = np.full(n_days, np.nan)
    day_payouts = np.zeros(n_days)
    day_high_effort = np.full(n_days, np.nan)

    for day in range(n_days):
        domains = rng.integers(0, n_domains, tasks_per_day)
        truths = rng.uniform(0.0, 20.0, tasks_per_day)
        sigmas = rng.uniform(0.5, 5.0, tasks_per_day)
        times = np.ones(tasks_per_day)

        if day == 0:
            expertise = np.ones((n_users, tasks_per_day))
            problem = AllocationProblem(
                expertise=expertise, processing_times=times, capacities=capacities
            )
            assignment = random_allocator.allocate(problem)
        else:
            problem = AllocationProblem(
                expertise=updater.task_expertise(domains),
                processing_times=times,
                capacities=capacities,
            )
            assignment = allocator.allocate(problem)

        values = np.zeros((n_users, tasks_per_day))
        mask = assignment.matrix.copy()
        high_effort = 0
        answered = 0
        observation_effort: dict = {}
        for user_index, task in assignment.pairs():
            choice = users[user_index].choose_effort(int(domains[task]), scheme, eps_bar)
            answered += 1
            high_effort += choice.effort == "high"
            std = sigmas[task] / choice.effective_expertise
            values[user_index, task] = truths[task] + rng.standard_normal() * std
            observation_effort[(user_index, task)] = choice.effort
        observations = ObservationMatrix(values=values, mask=mask)
        result = updater.incorporate(observations, domains)

        # Pay per the scheme, auditing accuracy against the final estimates.
        payout = 0.0
        for user_index, task in assignment.pairs():
            estimate = result.truths[task]
            if np.isnan(estimate):
                accurate = False
            else:
                accurate = abs(values[user_index, task] - estimate) < eps_bar * max(
                    result.sigmas[task], 1e-9
                )
            payout += scheme.payout(accurate)

        day_errors[day] = float(np.nanmean(np.abs(result.truths - truths) / sigmas))
        day_payouts[day] = payout
        day_high_effort[day] = high_effort / max(answered, 1)
    return day_errors, day_payouts, day_high_effort


def incentive_comparison(
    n_days: int = 5,
    replications: int = 3,
    seed: int = 2017,
    flat_rate: float = 1.0,
    bonus: "AccuracyBonusPayment | None" = None,
) -> IncentiveComparison:
    """Average the incentive loop over replications for both schemes."""
    schemes = {
        "flat": FlatPayment(rate=flat_rate),
        "accuracy-bonus": bonus if bonus is not None else AccuracyBonusPayment(),
    }
    error_series = {name: np.zeros(n_days) for name in schemes}
    payout_series = {name: np.zeros(n_days) for name in schemes}
    effort_series = {name: np.zeros(n_days) for name in schemes}
    for rng in spawn_rngs(seed, replications):
        loop_seed = rng.spawn(1)[0]
        for name, scheme in schemes.items():
            errors, payouts, efforts = run_incentive_loop(
                scheme, n_days=n_days, seed=loop_seed
            )
            error_series[name] += errors
            payout_series[name] += payouts
            effort_series[name] += efforts
    for name in schemes:
        error_series[name] = (error_series[name] / replications).tolist()
        payout_series[name] = (payout_series[name] / replications).tolist()
        effort_series[name] = (effort_series[name] / replications).tolist()
    return IncentiveComparison(
        days=tuple(range(1, n_days + 1)),
        error_series=error_series,
        payout_series=payout_series,
        high_effort_series=effort_series,
    )
