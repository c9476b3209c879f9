"""Baseline allocators used by the comparison approaches (Section 6.3).

- :class:`RandomAllocator` — tasks are allocated to users uniformly at
  random until capacities are exhausted.  Used in the warm-up period (no
  expertise is known yet) and by the "Baseline" mean approach throughout.
- :class:`ReliabilityGreedyAllocator` — the allocation strategy paired with
  the reliability-based truth-discovery methods: tasks are greedily handed
  to the most reliable users, with shorter tasks prioritised so those users
  can finish as many tasks as possible.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment
from repro.rng import ensure_rng

__all__ = ["RandomAllocator", "ReliabilityGreedyAllocator", "random_first_fit"]


def random_first_fit(problem: AllocationProblem, budget: np.ndarray, rng) -> Assignment:
    """Take random feasible pairs until each user's ``budget`` is spent.

    Visits all pairs in one random permutation, taking each pair whose time
    still fits in its user's remaining budget.  Users are independent under
    this rule, so each eligible user walks only its own pairs, in
    permutation order, on plain Python floats (the same IEEE operations as
    NumPy's float64), and stops once its remaining budget is below the
    shortest task: no later pair could fit.  The result and the
    generator's state equal those of one walk over the whole permutation
    (:func:`repro.perf.reference.reference_random_first_fit`).
    """
    n_users, n_tasks = problem.n_users, problem.n_tasks
    order = rng.permutation(n_users * n_tasks)
    matrix = np.zeros((n_users, n_tasks), dtype=bool)
    if order.size == 0:
        return Assignment(matrix=matrix)
    # rank[user, task]: the pair's position in the permutation, so each
    # row's argsort lists the user's tasks in the order the walk meets them.
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    visits = np.argsort(rank.reshape(n_users, n_tasks), axis=1)
    times = problem.processing_times.tolist()
    shortest = min(times)
    eligible = problem.eligible_mask().tolist()
    remaining = np.asarray(budget, dtype=float).tolist()
    taken = []
    for user in range(n_users):
        left = remaining[user]
        if not eligible[user] or left + 1e-12 < shortest:
            continue
        for task in visits[user].tolist():
            t = times[task]
            if t <= left + 1e-12:
                left -= t
                taken.append(user * n_tasks + task)
                if left + 1e-12 < shortest:
                    break
    matrix.flat[taken] = True
    return Assignment(matrix=matrix)


class RandomAllocator:
    """Uniformly random capacity-filling allocation."""

    def __init__(self, seed=None):
        self._rng = ensure_rng(seed)

    def allocate(self, problem: AllocationProblem) -> Assignment:
        """Assign random feasible (user, task) pairs until none remain.

        This fills capacity the same way the smarter allocators do, so
        comparisons measure *which* users answer which tasks rather than how
        much data is collected.
        """
        return random_first_fit(problem, problem.capacities, self._rng)


class ReliabilityGreedyAllocator:
    """Greedy allocation by scalar user reliability.

    Tasks are visited shortest-first (the paper prioritises short tasks for
    high-reliability users so they can finish as many tasks as possible); in
    each pass every task receives one additional user — the most reliable
    user with enough remaining capacity that is not yet assigned to it.
    Passes repeat until no assignment is possible.

    The pass structure matters: if each user instead grabbed the shortest
    tasks independently, all users would pick the *same* few short tasks and
    most tasks would get no observer at all — an allocation no deployed
    system would use and one that degenerates the estimation-error metric
    (it averages over estimated tasks only).
    """

    def __init__(self, reliabilities: np.ndarray):
        reliabilities = np.asarray(reliabilities, dtype=float)
        if reliabilities.ndim != 1:
            raise ValueError("reliabilities must be a 1-D array")
        self._reliabilities = reliabilities

    def allocate(self, problem: AllocationProblem) -> Assignment:
        if self._reliabilities.shape != (problem.n_users,):
            raise ValueError("reliabilities must have one entry per user")
        n_users = problem.n_users
        times = problem.processing_times
        remaining = problem.capacities.astype(float).copy()
        eligible = problem.eligible_mask()
        matrix = np.zeros((n_users, problem.n_tasks), dtype=bool)
        task_order = np.argsort(times, kind="stable")
        # Each user's rank in the descending-reliability order; ineligible
        # users rank +inf so a masked argmin below returns exactly the user
        # a first-feasible scan down the reliability order would.
        rank = np.empty(n_users, dtype=float)
        rank[np.argsort(-self._reliabilities, kind="stable")] = np.arange(n_users)
        rank[~eligible] = np.inf
        progressed = True
        while progressed:
            progressed = False
            for task in task_order:
                feasible = ~matrix[:, task] & eligible & (times[task] <= remaining + 1e-12)
                if not np.any(feasible):
                    continue
                user = int(np.argmin(np.where(feasible, rank, np.inf)))
                matrix[user, task] = True
                remaining[user] -= times[task]
                progressed = True
        return Assignment(matrix=matrix)
