"""Min-cost task allocation: the iterative Algorithm 2.

Definition 2: recruit users at minimum cost such that every task's estimate
satisfies the quality requirement ``|mu_hat_j - mu_j| / sigma_j < eps_bar``.
Because no data exists at allocation time, the requirement is checked
*probabilistically*: after each round of data collection, the task passes
once the ``1 - alpha`` Fisher-information confidence interval for its truth
(Eq. 24) is no wider than ``2 * eps_bar * sigma_j``.

Each round spends at most ``c^o`` of recruiting budget through the
Algorithm 1 greedy (restricted to the not-yet-satisfied tasks), collects the
newly assigned observations, re-estimates truths from *all* data gathered so
far, and re-checks the confidence intervals.  The loop ends when every task
passes or no further assignment is possible (capacities exhausted).

The rounds share one greedy start state
(:class:`~repro.core.allocation.lazy_greedy.GreedyState`): the accuracy
matrix, pair times and user rankings are made once per allocation, both
passes of a round start from the state, and the winning pass's pairs move
it forward, recomputing only the users and tasks they touched.  Each round
writes its finite observations into a copy of the running matrix
(:meth:`~repro.truthdiscovery.base.ObservationMatrix.with_pairs`) and
re-checks only the tasks among them.  Outputs are ``==`` those of the loop
that rebuilds every pass from the running assignment
(:func:`repro.perf.reference.reference_min_cost_run`).

The allocator is driven through two callbacks so it works both in the
simulation engine and against recorded datasets:

- ``observe(pairs)`` returns the observed values for newly assigned pairs;
- ``estimate(observations)`` returns ``(truths, sigmas, task_expertise)``
  from the cumulative observations — by default Eq. 5 with the problem's
  prior expertise, the pipeline passes the full expertise-aware analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment
from repro.core.allocation.lazy_greedy import GreedyState, GreedyStats
from repro.core.allocation.max_quality import best_of_two_greedy
from repro.core.truth import update_truths_for_expertise
from repro.stats.confidence import truth_half_widths
from repro.truthdiscovery.base import ObservationMatrix

__all__ = ["MinCostRound", "MinCostOutcome", "MinCostAllocator"]


@dataclass(frozen=True)
class MinCostRound:
    """Bookkeeping for one Algorithm 2 iteration."""

    added_pairs: tuple
    round_cost: float
    satisfied_after: int


@dataclass(frozen=True)
class MinCostOutcome:
    """Final state of a min-cost allocation run."""

    assignment: Assignment
    observations: ObservationMatrix
    truths: np.ndarray
    sigmas: np.ndarray
    satisfied: np.ndarray
    rounds: tuple
    total_cost: float
    #: Merged lazy-kernel work counters across every round's greedy passes
    #: (None when no greedy pass ran).
    greedy_stats: "GreedyStats | None" = None

    @property
    def all_satisfied(self) -> bool:
        return bool(np.all(self.satisfied))

    @property
    def round_count(self) -> int:
        return len(self.rounds)


class MinCostAllocator:
    """Iterative min-cost allocation (Algorithm 2)."""

    def __init__(
        self,
        round_budget: float,
        error_limit: float = 0.5,
        confidence: float = 0.95,
        max_rounds: int = 100,
        extra_pass: bool = True,
    ):
        if round_budget <= 0:
            raise ValueError("round_budget (c^o) must be positive")
        if error_limit <= 0:
            raise ValueError("error_limit (eps_bar) must be positive")
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        self._round_budget = float(round_budget)
        self._error_limit = float(error_limit)
        self._confidence = float(confidence)
        self._max_rounds = int(max_rounds)
        # The paper (end of Section 5.2.2a) notes the Section 5.1.2 extra
        # step "can also be added" to each round's best-of-two greedy; on by
        # default.
        self._extra_pass = bool(extra_pass)

    def run(
        self,
        problem: AllocationProblem,
        observe: Callable,
        estimate: "Callable | None" = None,
    ) -> MinCostOutcome:
        """Run the iterative allocation until the quality requirement holds.

        ``observe(pairs)`` must return one observed value per ``(user,
        task)`` pair.  ``estimate(observations)`` must return ``(truths,
        sigmas, task_expertise)`` over the full task set.
        """
        n_users, n_tasks = problem.n_users, problem.n_tasks
        if estimate is None:
            estimate = self._default_estimator(problem)

        # One greedy start state carries the problem's fixed inputs (the
        # Eq. 11 accuracy matrix, the pair times, the per-domain user
        # rankings) and the assignment so far through every round: both
        # passes of a round start from it, and the winner's pairs move it
        # forward, touching only their rows and columns.
        state = GreedyState(problem)

        assignment = Assignment.empty(n_users, n_tasks)
        observations = ObservationMatrix(
            values=np.zeros((n_users, n_tasks)), mask=np.zeros((n_users, n_tasks), dtype=bool)
        )
        satisfied = np.zeros(n_tasks, dtype=bool)
        truths = np.full(n_tasks, np.nan)
        sigmas = np.full(n_tasks, np.nan)
        rounds: list = []
        total_cost = 0.0
        greedy_stats: "GreedyStats | None" = None

        for _ in range(self._max_rounds):
            outcome, _winner, stats = best_of_two_greedy(
                problem,
                self._extra_pass,
                cost_budget=self._round_budget,
                active_tasks=~satisfied,
                state=state,
            )
            if stats is not None:
                greedy_stats = stats.merged(greedy_stats)
            if not outcome.added_pairs:
                break
            assignment = outcome.assignment
            state.advance(outcome)
            total_cost += outcome.spent_cost

            # Dropout or corrupt (non-finite) payload: the recruiting cost is
            # spent and the capacity consumed, but no usable observation
            # arrives — the quality check simply stays unsatisfied and later
            # rounds recruit replacements.  Pairs are new every round, so the
            # round's finite values are written into a copy of the running
            # matrix without overlap.  Each round's matrix is made of new
            # arrays: the one handed to ``estimate`` is a value its holder
            # may keep (the updater keys its last preview on it), so it never
            # changes later.
            users, tasks = (
                np.array(column, dtype=np.intp) for column in zip(*outcome.added_pairs)
            )
            values = np.asarray(observe(list(outcome.added_pairs)), dtype=float)
            observations = observations.with_pairs(users, tasks, values)
            truths, sigmas, task_expertise = estimate(observations)
            # Only tasks with new usable observations can newly pass the
            # Line 12-15 check; satisfied tasks are latched (they were
            # removed from active_tasks and receive no further data).
            satisfied = self._check_quality(
                observations.mask,
                truths,
                sigmas,
                task_expertise,
                satisfied=satisfied,
                recheck=np.unique(tasks[np.isfinite(values)]),
            )
            rounds.append(
                MinCostRound(
                    added_pairs=outcome.added_pairs,
                    round_cost=outcome.spent_cost,
                    satisfied_after=int(satisfied.sum()),
                )
            )
            if np.all(satisfied):
                break

        return MinCostOutcome(
            assignment=assignment,
            observations=observations,
            truths=truths,
            sigmas=sigmas,
            satisfied=satisfied,
            rounds=tuple(rounds),
            total_cost=total_cost,
            greedy_stats=greedy_stats,
        )

    def _check_quality(
        self,
        mask: np.ndarray,
        truths: np.ndarray,
        sigmas: np.ndarray,
        task_expertise: np.ndarray,
        satisfied: "np.ndarray | None" = None,
        recheck: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Line 12-15 of Algorithm 2: the Eq. 24 interval test, all tasks at once.

        Eq. 23 sums over the users whose data arrived (``mask``), not every
        recruited user: a dropout adds no information.  ``satisfied``
        carries the previous round's verdicts and ``recheck`` the tasks that
        received new usable observations this round — only those are
        re-tested, every other task keeps its status.  Omitting both
        re-checks the full task set (the cold-start behaviour).  A task
        without data, without a truth estimate or without a positive finite
        sigma also keeps its status.
        """
        n_tasks = mask.shape[1]
        satisfied = (
            np.zeros(n_tasks, dtype=bool) if satisfied is None else satisfied.copy()
        )
        tasks = np.arange(n_tasks) if recheck is None else np.asarray(recheck, dtype=np.intp)
        selected = mask[:, tasks]
        sigma = np.asarray(sigmas, dtype=float)[tasks]
        truth = np.asarray(truths, dtype=float)[tasks]
        testable = selected.any(axis=0) & ~np.isnan(truth) & np.isfinite(sigma) & (sigma > 0)
        tasks, sigma = tasks[testable], sigma[testable]
        half_width = truth_half_widths(
            task_expertise[:, tasks], selected[:, testable], sigma, self._confidence
        )
        satisfied[tasks] = 2.0 * half_width <= 2.0 * self._error_limit * sigma
        return satisfied

    @staticmethod
    def _default_estimator(problem: AllocationProblem) -> Callable:
        """Eq. 5 with the problem's prior expertise held fixed."""

        def estimate(observations: ObservationMatrix):
            truths, sigmas = update_truths_for_expertise(observations, problem.expertise)
            return truths, sigmas, problem.expertise

        return estimate
