"""Max-quality task allocation: Algorithm 1 plus the approximation fix.

The greedy heuristic repeatedly assigns the (user, task) pair with the
highest *efficiency* — marginal objective gain per unit of processing time
(Definition 1)::

    efficiency(i, j) = p_ij * (1 - p_j) / t_j     if t_j <= T'_i, else 0

where ``p_j`` is the task's current coverage probability and ``T'_i`` the
user's remaining capacity.  Following the paper's Section 5.1.2 analysis
(greedy on a monotone submodular objective under a knapsack constraint can be
arbitrarily bad when processing times differ wildly), a second greedy pass
that ignores processing times in the efficiency — the cardinality greedy —
is run as well, and the better of the two solutions is returned, giving the
classic 1/2-approximation guarantee.

The same best-of-two step (:func:`best_of_two_greedy`) also serves every
round of Algorithm 2 (min-cost), which adds a per-round cost budget and
restricts attention to the not-yet-satisfied tasks.

Since the objective is monotone submodular, the greedy runs on the
lazy-evaluation (CELF) priority-queue kernel of
:mod:`repro.core.allocation.lazy_greedy` — picks are bit-identical to the
exhaustive per-pick scan (frozen as
:func:`repro.perf.reference.reference_greedy_allocate`), but stale tasks
are only re-evaluated when they surface at the top of the heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment
from repro.core.allocation.baselines import random_first_fit
from repro.core.allocation.lazy_greedy import (
    GreedyOutcome,
    GreedyState,
    GreedyStats,
    lazy_greedy_allocate,
)
from repro.rng import ensure_rng

__all__ = ["GreedyOutcome", "GreedyStats", "MaxQualityAllocator", "best_of_two_greedy"]


def best_of_two_greedy(
    problem: AllocationProblem,
    extra_pass: bool = True,
    initial: "Assignment | None" = None,
    cost_budget: "float | None" = None,
    active_tasks: "np.ndarray | None" = None,
    state: "GreedyState | None" = None,
) -> "tuple[GreedyOutcome, str, GreedyStats | None]":
    """One Section 5.1.2 greedy step: the better of the two greedy passes.

    Runs Definition 1's efficiency greedy and, with ``extra_pass``, the
    cardinality greedy (gain not divided by ``t_j``) from the same start
    state; the higher objective wins, ties going to the efficiency pass.
    Returns the winning outcome, its name (``"efficiency"`` or
    ``"cardinality"``) and both passes' merged :class:`GreedyStats`.  The
    other arguments are those of
    :func:`~repro.core.allocation.lazy_greedy.lazy_greedy_allocate`; the
    :class:`~repro.core.allocation.lazy_greedy.GreedyState` is built once
    here from ``initial`` when omitted, and both passes start from it.
    """
    if state is None:
        state = GreedyState(problem, initial)
    elif initial is not None:
        raise ValueError("pass either an initial assignment or a state, not both")
    # Every pass resolves ``lazy_greedy_allocate`` through this module's
    # global, the one name that times and counts all greedy passes.
    greedy = partial(
        lazy_greedy_allocate,
        problem,
        cost_budget=cost_budget,
        active_tasks=active_tasks,
        state=state,
    )
    efficiency = greedy(divide_by_time=True)
    if not extra_pass:
        return efficiency, "efficiency", efficiency.stats
    cardinality = greedy(divide_by_time=False)
    stats = (
        efficiency.stats.merged(cardinality.stats)
        if efficiency.stats is not None
        else cardinality.stats
    )
    if cardinality.objective > efficiency.objective:
        return cardinality, "cardinality", stats
    return efficiency, "efficiency", stats


@dataclass
class MaxQualityAllocator:
    """Max-quality allocation with the guaranteed-approximation extra pass.

    With ``extra_pass=True`` (the default, per the end of Section 5.1.2) the
    time-divided greedy and the cardinality greedy both run and the higher-
    objective solution wins.  Both passes start from one
    :class:`~repro.core.allocation.lazy_greedy.GreedyState` per
    :meth:`allocate` (the Eq. 11 accuracy matrix is made once).

    ``exploration_rate`` (an extension beyond the paper) is epsilon-greedy
    exploration: Algorithm 1 is purely exploitative, so users whose
    expertise was never observed, or was under-estimated early, may never
    get another chance.  A positive rate first fills up to ``rate * T_i`` of
    each user's capacity with the warm-up's
    :func:`~repro.core.allocation.baselines.random_first_fit`, drawn from
    ``seed``; the greedy then treats those pairs as already assigned.  The
    generator is drawn from only when the rate is positive, so it may be
    shared with a :class:`~repro.core.allocation.baselines.RandomAllocator`.
    """

    extra_pass: bool = True
    exploration_rate: float = 0.0
    seed: object = field(default=None, repr=False)
    #: Populated after each allocate() call: which pass won ("efficiency" or
    #: "cardinality").  Exposed for the ablation benchmarks.
    last_winner: str = field(default="", init=False)
    #: Merged lazy-kernel work counters of the most recent allocate() call
    #: (both passes), for telemetry.
    last_stats: "GreedyStats | None" = field(default=None, init=False)

    def __post_init__(self):
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ValueError("exploration_rate must lie in [0, 1]")
        self._rng = ensure_rng(self.seed)

    def allocate(self, problem: AllocationProblem) -> Assignment:
        exploration = None
        if self.exploration_rate > 0.0:
            exploration = random_first_fit(
                problem, self.exploration_rate * problem.capacities, self._rng
            )
        outcome, self.last_winner, self.last_stats = best_of_two_greedy(
            problem, self.extra_pass, initial=exploration
        )
        return outcome.assignment
