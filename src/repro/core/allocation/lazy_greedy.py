"""Lazy-greedy (CELF) evaluation of Algorithm 1's efficiency greedy.

The eager greedy loop re-evaluates, after every pick, *every* task whose
cached best user just lost capacity, then takes a full ``np.argmax`` over
all tasks — O(n_tasks · n_users) interpreter-level work per pick when one
strong user is the cached best for a whole expertise domain.  But the
Eq. 12 objective is monotone submodular: a task's coverage miss
``prod (1 - p_ij)`` only shrinks as users are added, remaining capacities
only shrink, and therefore every task's best marginal efficiency only ever
*decreases* over the run.  That monotonicity is exactly the CELF
(cost-effective lazy forward selection) precondition: a stale cached
efficiency is always an **upper bound** on the current one, so stale
entries can sit untouched in a max-heap and only the entry that surfaces
at the top ever needs re-evaluation.

The kernel keeps one heap entry per task, caching the user its efficiency
was evaluated for.  A popped entry is *fresh* exactly when that user still
fits the task (``t <= remaining + 1e-12``, the comparison ``evaluate``
makes).  Definition 1's gain ``p_ij * miss_j / t_j`` does not depend on
remaining capacity, only on whether the user fits, and a task's coverage
``miss_j`` changes only when the task itself is picked, which re-evaluates
it on the spot.  Every other change only removes users from the task's
feasible set, and those were already dominated: ``np.argmax`` returns the
first maximum, and the cached user is by construction the lowest-indexed
one.  So a fresh entry still holds its task's true best efficiency, and a
fresh top-of-heap entry is the true global maximum.

**Re-evaluation.**  The heap loop is the only place a task is
re-evaluated: a popped entry whose user no longer fits, and every task
right after its pick, are re-evaluated inline in the loop body, one code
path for both.  The loop keeps its state in plain lists indexed by task or
user (cached user, its ``p`` and the pair's time; coverage; remaining
capacity) and the assigned pairs in a set.  The numpy copies of the
assignment and capacity state (``avail``, ``remaining_eps``) take the picks
made since their last update only just before a vectorised scan reads
them.

With the paper's per-task processing times (a stride-0 ``pair_times``
broadcast, which is how the pipeline builds every problem), a task's gain
``p_ij * miss_j / t_j`` scales all users by one scalar, so the task's user
ranking by ``(-p, index)`` is fixed for the whole pass — and every way a
user leaves the feasible set (assigned to the task, or ``t_j`` above its
remaining capacity) is permanent.  Re-evaluation is then a forward pointer
over that ranking, in scalar arithmetic:

- rankings are built lazily, when a task is first re-evaluated, resolved
  once per pass into a list indexed by task, and cached by task and by
  the accuracy column's bytes, so all tasks of one expertise domain share
  one sort; callers that run several passes over one problem pass one
  ``rankings`` dict to all of them, so each domain is sorted once per
  allocation;
- the pointer walks at most ``_WALK_LIMIT`` spent users before jumping to
  the next feasible one with a single vectorised scan over the rest of the
  ranking (capacity-1 instances spend users faster than any one task is
  re-evaluated);
- the gain is ``p * miss / t`` in Python floats — the same IEEE operations
  as the vectorised form — and a short scan over the following runs of
  equal gain keeps ``np.argmax``'s lowest-index tie-break, since rounding
  can give a slightly smaller ``p`` the leader's gain.  The scan is
  skipped when the next run's ``p`` is below ``p * (1 - 2**-40)`` and
  ``p * miss`` is a normal float: rounding (monotone, with relative error
  at most ``2**-53`` per operation) cannot close that gap.

Per-pair (spatial) times break the shared ranking, so there re-evaluation
stays one vectorised masked-argmax over the task's column, a branch of the
same loop body.

**Bit-identical picks.**  Heap entries order by ``(-efficiency, task)``,
so ties in efficiency break toward the lowest task index — exactly
``np.argmax`` over the per-task efficiency array — and both re-evaluation
paths compute every efficiency with the same element-wise operations in
the same order as the eager loop's ``best_for_task``, so every value and
every user tie-break is bit-identical too.
``tests/perf/test_allocation_equivalence.py`` fuzzes the kernel against
the frozen eager copy
(:func:`repro.perf.reference.reference_greedy_allocate`) across spatial
pair-times, eligibility masks, cost budgets, warm starts, tie-heavy
expertise and zero-capacity users, with a second block of larger
per-task-time instances for the pointer walk and a hand-built rounding
tie.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappushpop
from dataclasses import dataclass

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment, allocation_objective

__all__ = ["GreedyStats", "GreedyOutcome", "lazy_greedy_allocate"]

#: Longest scalar pointer walk over a task's ranking before the kernel
#: jumps to the next feasible user with one vectorised scan.
_WALK_LIMIT = 128

#: A run of equal ``p`` whose successor's ``p`` is below ``p * _TIE_MARGIN``
#: cannot tie its gain after rounding, so its tie scan is skipped.
_TIE_MARGIN = 1.0 - 2.0**-40

#: Smallest normal float64: the tie-skip margin needs normal gains.
_MIN_NORMAL = 2.0**-1022

#: Task times below this could overflow a gain; the tie skip is then off.
_MIN_TIME = 2.0**-1000


@dataclass(frozen=True)
class GreedyStats:
    """Work counters of one lazy-greedy run (telemetry + CELF audits).

    ``evaluations`` counts per-task re-evaluations (pointer walks or
    masked argmaxes) after the initial build (the build itself evaluates
    all ``n_tasks`` columns in one shot): one right after every pick, plus
    one per popped entry whose cached user no longer fits, so
    ``evaluations - picks`` is the number of refreshes.  The eager
    reference instead re-evaluates every task sharing the picked user
    after every pick.  When no capacity ever binds, no entry goes stale
    and ``pops == evaluations == picks``.  A budgeted pass stops as soon
    as the cheapest active task no longer fits the budget, so it counts
    fewer pops (and refreshes) than a pass that drained its heap: the pops
    it skips could only block or refresh, never pick, and with unit costs
    it never blocks, so ``pops == evaluations``.  ``max_refresh_delta`` is the
    largest ``fresh - stale`` efficiency observed when re-evaluating a
    stale entry; submodularity guarantees it is never positive, and the
    CELF invariant test asserts exactly that.
    """

    picks: int = 0
    pops: int = 0
    evaluations: int = 0
    max_refresh_delta: float = float("-inf")

    def merged(self, other: "GreedyStats | None") -> "GreedyStats":
        """Combine counters across greedy passes (extra pass, min-cost rounds)."""
        if other is None:
            return self
        return GreedyStats(
            picks=self.picks + other.picks,
            pops=self.pops + other.pops,
            evaluations=self.evaluations + other.evaluations,
            max_refresh_delta=max(self.max_refresh_delta, other.max_refresh_delta),
        )


@dataclass(frozen=True)
class GreedyOutcome:
    """Result of one greedy pass."""

    assignment: Assignment
    added_pairs: tuple
    objective: float
    spent_cost: float
    #: Lazy-kernel work counters (None for outcomes built elsewhere).
    stats: "GreedyStats | None" = None


def lazy_greedy_allocate(
    problem: AllocationProblem,
    initial: "Assignment | None" = None,
    divide_by_time: bool = True,
    cost_budget: "float | None" = None,
    active_tasks: "np.ndarray | None" = None,
    accuracy: "np.ndarray | None" = None,
    pair_times: "np.ndarray | None" = None,
    rankings: "dict | None" = None,
) -> GreedyOutcome:
    """Run the Algorithm 1 greedy loop via the CELF priority queue.

    Parameters
    ----------
    initial:
        Pairs assigned earlier (min-cost rounds, exploration).  Their
        processing time is already deducted from capacities, their ``p_ij``
        already counts toward task coverage, and their cost does **not**
        count against ``cost_budget``.
    divide_by_time:
        True for Definition 1's efficiency; False for the cardinality-greedy
        extra pass (gain not divided by ``t_j``).
    cost_budget:
        Maximum cost of *newly added* pairs (Algorithm 2's ``c^o``).
    active_tasks:
        Boolean mask of tasks eligible for new assignments (min-cost skips
        tasks whose quality requirement is already met).
    accuracy, pair_times:
        Precomputed ``problem.accuracy_matrix()`` (Eq. 11) and
        ``problem.pair_times()``, so callers that run several passes over
        one problem (extra pass, min-cost rounds) pay for them once.
    rankings:
        A dict the kernel fills with user rankings (per-task times only),
        keyed by task index and by accuracy column bytes.  Pass one dict to
        every pass over one problem so each domain's users are sorted once;
        a ranking depends on the problem's eligibility and accuracy, so
        never share it across problems.
    """
    n_users, n_tasks = problem.n_users, problem.n_tasks
    p = problem.accuracy_matrix() if accuracy is None else accuracy
    times = problem.pair_times() if pair_times is None else pair_times
    eligible = problem.eligible_mask()

    if initial is None:
        assigned = np.zeros((n_users, n_tasks), dtype=bool)
    else:
        if initial.matrix.shape != (n_users, n_tasks):
            raise ValueError("initial assignment shape does not match the problem")
        assigned = initial.matrix.copy()
    remaining = problem.capacities - (assigned * times).sum(axis=1)
    if np.any(remaining < -1e-9):
        raise ValueError("initial assignment already exceeds capacities")

    if active_tasks is not None:
        active_tasks = np.asarray(active_tasks, dtype=bool)
        if active_tasks.shape != (n_tasks,):
            raise ValueError("active_tasks must have one flag per task")
    if active_tasks is None or active_tasks.all():
        columns = np.arange(n_tasks)
        p_a, times_a, assigned_a = p, times, assigned
    else:
        # Later min-cost rounds leave only a few tasks active: the build
        # reads just their columns.
        columns = np.flatnonzero(active_tasks)
        p_a, times_a, assigned_a = p[:, columns], times[:, columns], assigned[:, columns]

    # Initial build: one vectorised masked-argmax over the active columns,
    # the same element-wise operations as the eager loop's per-task scan.
    miss_a = np.prod(np.where(assigned_a, 1.0 - p_a, 1.0), axis=0)
    feasible = (~assigned_a) & eligible[:, None] & (times_a <= remaining[:, None] + 1e-12)
    gain = p_a * miss_a[None, :]
    if divide_by_time:
        gain = gain / times_a
    gain = np.where(feasible, gain, 0.0)
    build_user = np.argmax(gain, axis=0)
    build_eff = gain[build_user, np.arange(len(columns))]
    live = np.flatnonzero(build_eff > 0.0)
    heap_tasks, build_user = columns[live].tolist(), build_user[live]

    # From here on the loop reads and writes one scalar at a time, where
    # plain lists are several times cheaper than ndarrays (and Python
    # floats perform the same IEEE operations as NumPy's float64).  Each
    # task caches the user its heap entry was evaluated for, that user's
    # ``p`` and the pair's time ``t``: the entry is fresh while ``t`` fits
    # that user.  With per-task times ``cached_t`` is just the task times,
    # fixed for the pass.  Only active tasks enter the heap and an
    # unaffordable one leaves it for good, so the loop never re-evaluates
    # any other; the per-task lists are filled for those alone.
    per_task_times = times.ndim == 2 and times.strides[0] == 0
    cached_user = [0] * n_tasks
    cached_p = [0.0] * n_tasks
    cached_t = times[0].tolist() if per_task_times else [0.0] * n_tasks
    for task, user, p_user, t_user in zip(
        heap_tasks,
        build_user.tolist(),
        p_a[build_user, live].tolist(),
        times_a[build_user, live].tolist(),
    ):
        cached_user[task] = user
        cached_p[task] = p_user
        cached_t[task] = t_user
    miss = np.ones(n_tasks)
    miss[columns] = miss_a
    miss = miss.tolist()
    costs = problem.costs.tolist()
    spent = 0.0
    heap = list(zip((-build_eff[live]).tolist(), heap_tasks))
    heapify(heap)

    # Column-access layout for the vectorised scans: Fortran order makes
    # ``[:, task]`` slices contiguous (a broadcast per-task time row —
    # stride 0 — is already free to slice), ``avail`` folds the fixed
    # eligibility into the assignment complement, and ``remaining_eps`` is
    # ``remaining + 1e-12``, mirrored in ``remaining_list`` for scalar
    # reads; ``taken`` holds the assigned pairs as ``user * n_tasks +
    # task``.  The scalar state is the live one: a pick writes only lists
    # and the set, and ``avail`` / ``remaining_eps`` take the picks made
    # since their last update (``added[synced:]``) just before a vectorised
    # scan reads them.  All of it is value-identical to the frozen eager
    # loop: boolean algebra is exact, and ``x * True`` / ``x * False``
    # equal ``np.where``'s ``x`` / ``0.0`` for these finite non-negative
    # gains.
    p_f = np.asfortranarray(p)
    times_f = times if per_task_times else np.asfortranarray(times)
    avail = np.asfortranarray(~assigned & eligible[:, None])
    remaining_eps = remaining + 1e-12
    remaining = remaining.tolist()
    remaining_list = remaining_eps.tolist()
    taken = set(np.flatnonzero(assigned).tolist())
    synced = 0

    if per_task_times:
        # Every user's gain on a task is ``p * (miss / t)`` for one task
        # scalar, so the task's user ranking by ``(-p, index)`` holds for
        # the whole pass, and every way a user leaves the feasible set
        # (assignment, spent capacity) is permanent: re-evaluation is a
        # forward pointer over the ranking.
        if rankings is None:
            rankings = {}
        task_ranking = [None] * n_tasks
        pointer = [0] * n_tasks
        # A tie scan is skipped only while ``p * miss`` and the gain are
        # normal floats: ``p * miss >= tie_floor`` guarantees both, since
        # no time exceeds the largest.  Times so small that a gain
        # (``p * miss <= 1`` over ``t``) could overflow turn the skip off.
        tie_floor = float("inf")
        if min(cached_t, default=1.0) >= _MIN_TIME:
            tie_floor = _MIN_NORMAL * max(1.0, max(cached_t, default=1.0))
    else:
        feas_buf = np.empty(n_users, dtype=bool)
        gain_buf = np.empty(n_users, dtype=float)

    refreshes = 0
    blocked = 0
    max_refresh_delta = float("-inf")
    added: list = []
    # Cost only grows, so once the cheapest active task is unaffordable
    # every later pop would be blocked, or refreshed and then blocked: the
    # loop ends there.
    budget = float("inf") if cost_budget is None else cost_budget + 1e-12
    cheapest = float(problem.costs[columns].min()) if len(columns) else 0.0
    # A re-evaluated entry goes back in and the next top comes out in one
    # ``heappushpop``: heap keys ``(-value, task)`` are distinct (one entry
    # per task), so it returns exactly what a push and then a pop would.
    top = heappop(heap) if heap and cheapest <= budget else None
    while top is not None:
        neg_value, task = top
        user = cached_user[task]
        t = cached_t[task]
        refresh = t > remaining_list[user]
        if refresh:
            # The cached user no longer fits: re-evaluate and re-insert.
            refreshes += 1
        elif spent + costs[task] > budget:
            # Fresh, but cost only grows, so this task can never be
            # afforded again: it leaves the heap for good.
            blocked += 1
            top = heappop(heap) if heap else None
            continue
        else:
            # Fresh top of heap == the eager loop's np.argmax winner.  The
            # picked task is stale by construction (its coverage changed
            # and its user is now on it): it is re-evaluated right below.
            taken.add(user * n_tasks + task)
            left = remaining[user] - t
            remaining[user] = left
            remaining_list[user] = left + 1e-12
            miss[task] *= 1.0 - cached_p[task]
            spent += costs[task]
            added.append((user, task))
            if spent + cheapest > budget:
                break

        # Re-evaluate ``task``: its best feasible user and gain ``value``.
        if per_task_times:
            ranking = task_ranking[task]
            if ranking is None:
                ranking = task_ranking[task] = _task_ranking(rankings, p_f, eligible, task)
            users, ranked_p, run_end, clear, n, order = ranking
            k = pointer[task]
            stop = k + _WALK_LIMIT
            if stop > n:
                stop = n
            while k < stop:
                user = users[k]
                if t <= remaining_list[user] and user * n_tasks + task not in taken:
                    break
                k += 1
            else:
                if k < n:
                    # A long run of spent users: one vectorised scan finds
                    # the first feasible rank in the rest of the ranking.
                    synced = _apply_picks(added, synced, avail, remaining_eps, remaining_list)
                    rest = order[k:]
                    feasible = (t <= remaining_eps[rest]) & avail[rest, task]
                    k = k + int(np.argmax(feasible)) if feasible.any() else n
            pointer[task] = k
            if k == n:
                value = 0.0
            else:
                scale = miss[task]
                best = users[k]
                best_p = ranked_p[k]
                head = best_p * scale
                value = head / t if divide_by_time else head
                if not (clear[k] and head >= tie_floor) and value > 0.0:
                    # Rounding can give a smaller p the same gain, and
                    # np.argmax takes the lowest user index among equal
                    # gains.  Ranks after ``k`` in its own run of equal p
                    # all have higher indices, so the scan starts at the
                    # next run.
                    k = run_end[k]
                    while k < n:
                        gain = ranked_p[k] * scale
                        if divide_by_time:
                            gain /= t
                        if gain != value:
                            break
                        for user in users[k : run_end[k]]:
                            if user > best:
                                break
                            if t <= remaining_list[user] and user * n_tasks + task not in taken:
                                best, best_p = user, ranked_p[k]
                                break
                        k = run_end[k]
                cached_user[task] = best
                cached_p[task] = best_p
        else:
            # Same operations (element-wise, in the same order) as the
            # frozen eager loop's best_for_task — efficiencies must stay
            # bit-identical.
            synced = _apply_picks(added, synced, avail, remaining_eps, remaining_list)
            feasible = np.less_equal(times_f[:, task], remaining_eps, out=feas_buf)
            feasible &= avail[:, task]
            if feasible.any():
                gain = np.multiply(p_f[:, task], miss[task], out=gain_buf)
                if divide_by_time:
                    gain /= times_f[:, task]
                np.multiply(gain, feasible, out=gain)
                best = int(np.argmax(gain))
                value = float(gain[best])
                cached_user[task] = best
                cached_p[task] = float(p_f[best, task])
                cached_t[task] = float(times_f[best, task])
            else:
                value = 0.0

        if refresh and value + neg_value > max_refresh_delta:
            max_refresh_delta = value + neg_value
        if value > 0.0:
            top = heappushpop(heap, (-value, task))
        else:
            top = heappop(heap) if heap else None

    if added:
        assigned[tuple(zip(*added))] = True
    assignment = Assignment(matrix=assigned)
    return GreedyOutcome(
        assignment=assignment,
        added_pairs=tuple(added),
        objective=allocation_objective(problem, assignment, accuracy=p),
        spent_cost=spent,
        stats=GreedyStats(
            picks=len(added),
            pops=len(added) + refreshes + blocked,
            evaluations=len(added) + refreshes,
            max_refresh_delta=max_refresh_delta,
        ),
    )


def _task_ranking(rankings: dict, p_f: np.ndarray, eligible: np.ndarray, task: int) -> tuple:
    """The task's eligible users by ``(-p, index)``, shared by column.

    Returns ``(users, ranked_p, run_end, clear, n, order)``: ``run_end[k]`` is
    the first rank past rank ``k``'s run of equal ``p``, and ``clear[k]``
    says that the next run's ``p`` is below ``ranked_p[k] * (1 - 2**-40)``
    (or that there is none), a gap that rounding of normal floats cannot
    close.
    """
    ranking = rankings.get(task)
    if ranking is None:
        column = p_f[:, task]
        key = column.tobytes()
        ranking = rankings.get(key)
        if ranking is None:
            order = np.argsort(-column, kind="stable")
            order = order[eligible[order]]
            ranked_p = column[order]
            starts = np.flatnonzero(np.r_[True, ranked_p[1:] != ranked_p[:-1]])
            ends = np.r_[starts[1:], len(order)]
            run_end = np.repeat(ends, ends - starts)
            next_p = np.r_[ranked_p, -np.inf][run_end]
            clear = next_p < ranked_p * _TIE_MARGIN
            ranking = (
                order.tolist(),
                ranked_p.tolist(),
                run_end.tolist(),
                clear.tolist(),
                len(order),
                order,
            )
            rankings[key] = ranking
        rankings[task] = ranking
    return ranking


def _apply_picks(
    added: list, synced: int, avail: np.ndarray, remaining_eps: np.ndarray, remaining_list: list
) -> int:
    """Write the picks ``added[synced:]`` into the numpy copies of the
    assignment and capacity state; returns the new ``synced``."""
    for user, task in added[synced:]:
        avail[user, task] = False
        remaining_eps[user] = remaining_list[user]
    return len(added)
