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
user (cached user and its ``p``; the task's time; coverage; remaining
capacity) and the assigned pairs in a set.

Processing times are per task (Eq. 13), so a task's gain
``p_ij * miss_j / t_j`` scales all users by one scalar: the task's user
ranking by ``(-p, index)`` is fixed for the whole pass, and every way a
user leaves the feasible set (assigned to the task, or ``t_j`` above its
remaining capacity) is permanent.  Re-evaluation is a forward pointer
over that ranking, in scalar arithmetic:

- rankings are built lazily, when a task is first re-evaluated, and kept
  on the :class:`GreedyState` in a list indexed by task; tasks with equal
  accuracy columns (one expertise domain) share one sort, so each domain
  is sorted once per allocation however many passes run from the state;
- the gain is ``p * miss / t`` in Python floats — the same IEEE operations
  as the vectorised form — and a short scan over the following runs of
  equal gain keeps ``np.argmax``'s lowest-index tie-break, since rounding
  can give a slightly smaller ``p`` the leader's gain.

**One start state per allocation.**  A pass starts from a
:class:`GreedyState`: the problem's fixed inputs (Fortran-order Eq. 11
accuracies, task times, eligibility, rankings) and what the assignment so
far implies (remaining capacity, each task's coverage miss, the
available pairs, the taken set).  Both passes of a best-of-two step read
one state and copy only what their picks change; the second takes the
masked gain ``p * miss`` the first built (the two builds differ only by
the division by ``t_j``).  Algorithm 2 carries one state through its
rounds, and :meth:`GreedyState.advance` moves it with the winning pass's
pairs, recomputing only the rows and columns they touched.  A pass
recomputes the coverage of the columns it picked into, in ascending user
order, and scores its objective ``sum(1 - miss)`` over the full vector,
as :func:`~repro.core.allocation.base.allocation_objective` does.  Row
sums and column products over a subset are ``==`` the full-matrix forms,
so every carried value, pick and objective is bit-identical to a pass
rebuilt from scratch.

**Bit-identical picks.**  Heap entries order by ``(-efficiency, task)``,
so ties in efficiency break toward the lowest task index — exactly
``np.argmax`` over the per-task efficiency array — and the build and the
pointer walk compute every efficiency with the same operations in the
same order as the eager loop's ``best_for_task``, so every value and
every user tie-break is bit-identical too.
``tests/perf/test_allocation_equivalence.py`` fuzzes the kernel against
the frozen eager copy
(:func:`repro.perf.reference.reference_greedy_allocate`) across
tie-heavy times and expertise, eligibility masks, cost budgets, warm
starts and zero-capacity users, with blocks of larger instances for long
pointer walks, warm starts of 50-300 prior pairs and hand-built rounding
ties; it also fuzzes
:class:`~repro.core.allocation.min_cost.MinCostAllocator` against
:func:`repro.perf.reference.reference_min_cost_run`, which rebuilds every
pass from the running assignment.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappushpop
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment

__all__ = ["GreedyStats", "GreedyOutcome", "GreedyState", "lazy_greedy_allocate"]


@dataclass(frozen=True)
class GreedyStats:
    """Work counters of one lazy-greedy run (telemetry + CELF audits).

    ``evaluations`` counts per-task re-evaluations (pointer walks) after
    the initial build (the build itself evaluates all ``n_tasks`` columns
    in one shot): one right after every pick, plus one per popped entry
    whose cached user no longer fits, so ``evaluations - picks`` is the
    number of refreshes.  The eager
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
    #: Read-only ``(n, 2)`` intp ``(user, task)`` rows, in pick order.
    added_pairs: np.ndarray
    objective: float
    spent_cost: float
    #: Lazy-kernel work counters (None for outcomes built elsewhere).
    stats: "GreedyStats | None" = None
    #: Each task's coverage miss ``prod (1 - p_ij)`` after the pass, read-only
    #: (None for outcomes built elsewhere); ``objective`` is
    #: ``sum(1 - miss)``.
    miss: "np.ndarray | None" = None


class GreedyState:
    """The start state of the greedy passes over one problem from one assignment.

    Built once from the assignment so far and read by every pass that
    starts from it (both passes of a best-of-two step); a pass copies what
    its picks change and leaves the state as it was, except that it hands
    its masked gain to the next pass (``shared_gain``).  Algorithm 2
    carries one state through its rounds: :meth:`advance` moves it with
    each round's winning pass.

    The problem's fixed inputs, made once per state: the Eq. 11
    ``accuracy`` in Fortran order (``[:, task]`` slices are contiguous),
    ``eligible``, the task ``costs`` and ``task_times``, and the user
    rankings the kernel resolves (a ranking depends on the problem's
    eligibility and accuracy, so a state never outlives its problem).  The
    values the assignment so far implies:

    - ``assigned``, the boolean ``s_ij`` matrix;
    - ``remaining``, each user's capacity minus its assigned time;
    - ``miss`` (read-only), each task's coverage miss ``prod (1 - p_ij)``
      over its assigned users;
    - ``avail`` (Fortran), not assigned and eligible;
    - ``taken``, the assigned pairs as ``user * n_tasks + task``.

    Each is ``==`` the full-matrix form the eager loop builds from
    ``assigned``: a row's pairwise sum and a column's product (sequential,
    in ascending user order) come out the same over the whole matrix or
    over a subset of rows or columns, so only touched rows and columns are
    ever recomputed.
    """

    def __init__(self, problem: AllocationProblem, initial: "Assignment | None" = None):
        n_users, n_tasks = problem.n_users, problem.n_tasks
        if initial is None:
            assigned = np.zeros((n_users, n_tasks), dtype=bool)
        else:
            if initial.matrix.shape != (n_users, n_tasks):
                raise ValueError("initial assignment shape does not match the problem")
            assigned = initial.matrix.copy()
        remaining = problem.capacities - (assigned * problem.processing_times).sum(axis=1)
        if np.any(remaining < -1e-9):
            raise ValueError("initial assignment already exceeds capacities")
        self.problem = problem
        self.accuracy = np.asfortranarray(problem.accuracy_matrix())
        self.eligible = problem.eligible_mask()
        self.costs = problem.costs.tolist()
        self.task_times = problem.processing_times.tolist()
        # Each task's user ranking, resolved when a pass first re-evaluates
        # the task, and the sorts behind them, one per distinct accuracy
        # column (one per expertise domain).
        self.task_rankings: list = [None] * n_tasks
        self.rankings: dict = {}
        self.ranking_column = _equal_columns(self.accuracy)
        self.assigned = assigned
        self.remaining = remaining
        # A column with no assigned user has miss exactly 1.0.
        self.miss = np.ones(n_tasks)
        covered = np.flatnonzero(assigned.any(axis=0))
        self.miss[covered] = _column_miss(self.accuracy, assigned, covered)
        self.miss.setflags(write=False)
        self.avail = np.asfortranarray(~assigned & self.eligible[:, None])
        self.taken = set(np.flatnonzero(assigned).tolist())
        # ``(active-task key, masked p * miss)`` of the last pass's build,
        # until a pass over the same active tasks takes it.
        self.shared_gain = None

    def advance(self, outcome: GreedyOutcome) -> None:
        """Move to the end of ``outcome``, a pass that started from this state.

        Assigns its pairs and recomputes the remaining capacity of the users
        they touched; the coverage of the tasks they touched is the pass's
        own ``miss``.
        """
        if not len(outcome.added_pairs):
            return
        self.shared_gain = None
        n_users, n_tasks = self.problem.n_users, self.problem.n_tasks
        users, tasks = outcome.added_pairs.T
        self.assigned[users, tasks] = True
        self.avail[users, tasks] = False
        self.taken.update((users * n_tasks + tasks).tolist())
        rows = _touched(users, n_users)
        self.remaining[rows] = self.problem.capacities[rows] - (
            self.assigned[rows] * self.problem.processing_times
        ).sum(axis=1)
        self.miss = outcome.miss


def lazy_greedy_allocate(
    problem: AllocationProblem,
    initial: "Assignment | None" = None,
    divide_by_time: bool = True,
    cost_budget: "float | None" = None,
    active_tasks: "np.ndarray | None" = None,
    state: "GreedyState | None" = None,
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
    state:
        A :class:`GreedyState` of ``problem`` to start from, in place of
        ``initial``: callers that run several passes from one assignment
        (extra pass, min-cost rounds) build it once.  The pass leaves its
        values as they were.  Omitted, the pass builds one from
        ``initial``.
    """
    if state is None:
        state = GreedyState(problem, initial)
    elif initial is not None:
        raise ValueError("pass either an initial assignment or a state, not both")
    elif state.problem is not problem:
        raise ValueError("the state belongs to another problem")
    n_tasks = problem.n_tasks
    p_f, eligible, times = state.accuracy, state.eligible, problem.processing_times

    if active_tasks is not None:
        active_tasks = np.asarray(active_tasks, dtype=bool)
        if active_tasks.shape != (n_tasks,):
            raise ValueError("active_tasks must have one flag per task")
        if active_tasks.all():
            active_tasks = None

    # Initial build: one vectorised masked-argmax over the active columns
    # (later min-cost rounds leave only a few tasks active), the same
    # element-wise operations as the eager loop's per-task scan.  Before
    # the division by time the masked gain ``p * miss`` is the same for
    # both passes of a step: the first pass leaves it on the state and the
    # second takes it (``x / t`` of a masked ``0.0`` is ``0.0`` again).
    # So the build holds at most two full-size float arrays.
    remaining_eps = state.remaining + 1e-12
    if active_tasks is None:
        key, columns = None, np.arange(n_tasks)
        times_a = times[None, :]
    else:
        key, columns = active_tasks.tobytes(), np.flatnonzero(active_tasks)
        times_a = times[None, columns]
    shared = state.shared_gain
    if shared is not None and shared[0] == key:
        state.shared_gain = None
        gain = shared[1]
    else:
        if active_tasks is None:
            p_a, avail_a, miss_a = p_f, state.avail, state.miss
        else:
            p_a, avail_a, miss_a = p_f[:, columns], state.avail[:, columns], state.miss[columns]
        gain = p_a * miss_a
        np.copyto(gain, 0.0, where=~(avail_a & (times_a <= remaining_eps[:, None])))
        gain.setflags(write=False)
        state.shared_gain = (key, gain)
        del p_a, avail_a
    del shared
    if divide_by_time:
        gain = gain / times_a
    build_user = np.argmax(gain, axis=0)
    build_eff = gain[build_user, np.arange(len(columns))]
    live = np.flatnonzero(build_eff > 0.0)
    build_user, build_tasks = build_user[live], columns[live]
    heap_tasks = build_tasks.tolist()
    del gain

    # From here on the loop reads and writes one scalar at a time, where
    # plain lists are several times cheaper than ndarrays (and Python
    # floats perform the same IEEE operations as NumPy's float64).  Each
    # task caches the user its heap entry was evaluated for and that
    # user's ``p``; the entry is fresh while the task's time ``t`` fits
    # that user.
    # Only active tasks enter the heap and an unaffordable one leaves it
    # for good, so the loop never re-evaluates any other; the per-task
    # lists are filled for those alone.
    cached_user = [0] * n_tasks
    cached_p = [0.0] * n_tasks
    for task, user, p_user in zip(
        heap_tasks, build_user.tolist(), p_f[build_user, build_tasks].tolist()
    ):
        cached_user[task] = user
        cached_p[task] = p_user
    task_times = state.task_times
    miss = state.miss.tolist()
    costs = state.costs
    spent = 0.0
    heap = list(zip((-build_eff[live]).tolist(), heap_tasks))
    heapify(heap)

    # The pass's own copies of what its picks change: ``remaining`` (with
    # ``remaining + 1e-12`` in ``remaining_list`` for the fit test),
    # ``miss`` and ``taken``.  A pick writes only these lists and the set.
    remaining = state.remaining.tolist()
    remaining_list = remaining_eps.tolist()
    taken = state.taken.copy()

    # Every user's gain on a task is ``p * (miss / t)`` for one task scalar,
    # so the task's user ranking by ``(-p, index)`` holds for the whole
    # pass, and every way a user leaves the feasible set (assignment, spent
    # capacity) is permanent: re-evaluation is a forward pointer over the
    # ranking.
    rankings, task_ranking = state.rankings, state.task_rankings
    ranking_column = state.ranking_column
    pointer = [0] * n_tasks

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
        t = task_times[task]
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
        ranking = task_ranking[task]
        if ranking is None:
            ranking = task_ranking[task] = _task_ranking(
                rankings, p_f, eligible, ranking_column[task]
            )
        users, ranked_p, run_end, n = ranking
        k = pointer[task]
        while k < n:
            user = users[k]
            if t <= remaining_list[user] and user * n_tasks + task not in taken:
                break
            k += 1
        pointer[task] = k
        if k == n:
            value = 0.0
        else:
            scale = miss[task]
            best = users[k]
            best_p = ranked_p[k]
            value = best_p * scale
            if divide_by_time:
                value /= t
            if value > 0.0:
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

        if refresh and value + neg_value > max_refresh_delta:
            max_refresh_delta = value + neg_value
        if value > 0.0:
            top = heappushpop(heap, (-value, task))
        else:
            top = heappop(heap) if heap else None

    # The objective sums every task's coverage; only the columns this pass
    # picked into differ from the state's, and each is recomputed from the
    # matrix in ascending user order (the scalar ``miss`` multiplied in pick
    # order, which can differ in the last bits).
    assigned = state.assigned.copy()
    miss_after = state.miss
    added_pairs = np.fromiter(chain.from_iterable(added), np.intp, 2 * len(added)).reshape(-1, 2)
    added_pairs.setflags(write=False)
    if added:
        users, tasks = added_pairs.T
        assigned[users, tasks] = True
        miss_after = miss_after.copy()
        picked = _touched(tasks, n_tasks)
        miss_after[picked] = _column_miss(p_f, assigned, picked)
        miss_after.setflags(write=False)
    return GreedyOutcome(
        assignment=Assignment(matrix=assigned),
        added_pairs=added_pairs,
        objective=float(np.sum(1.0 - miss_after)),
        spent_cost=spent,
        stats=GreedyStats(
            picks=len(added),
            pops=len(added) + refreshes + blocked,
            evaluations=len(added) + refreshes,
            max_refresh_delta=max_refresh_delta,
        ),
        miss=miss_after,
    )


def _task_ranking(rankings: dict, p_f: np.ndarray, eligible: np.ndarray, index: int) -> tuple:
    """The eligible users of accuracy column ``index`` by ``(-p, user)``,
    sorted once and kept in ``rankings``.

    Returns ``(users, ranked_p, run_end, n)``: ``run_end[k]`` is the first
    rank past rank ``k``'s run of equal ``p``.
    """
    ranking = rankings.get(index)
    if ranking is None:
        column = p_f[:, index]
        order = np.argsort(-column, kind="stable")
        order = order[eligible[order]]
        ranked_p = column[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked_p[1:] != ranked_p[:-1])))
        ends = np.append(starts[1:], len(order))
        run_end = np.repeat(ends, ends - starts)
        ranking = rankings[index] = (
            order.tolist(),
            ranked_p.tolist(),
            run_end.tolist(),
            len(order),
        )
    return ranking


def _equal_columns(p: np.ndarray) -> list:
    """For each column of ``p``, the first column equal to it (its own index
    when none comes before it).  Columns are grouped by one weighted sum of
    their entries and then compared entry by entry, so a sum that two
    different columns share only costs a sort of its own."""
    first: dict = {}
    weights = np.linspace(1.0, 2.0, p.shape[0])
    same = np.array(
        [first.setdefault(total, j) for j, total in enumerate((weights @ p).tolist())],
        dtype=np.intp,
    )
    differs = np.flatnonzero(~(p == p[:, same]).all(axis=0))
    same[differs] = differs
    return same.tolist()


def _touched(indices: np.ndarray, size: int) -> np.ndarray:
    """The distinct ``indices``, ascending."""
    return np.flatnonzero(np.bincount(indices, minlength=size))


def _column_miss(p: np.ndarray, assigned: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Coverage miss ``prod (1 - p_ij)`` over the assigned users of ``columns``.

    ``==`` :func:`~repro.core.allocation.base.allocation_objective`'s
    ``np.prod(np.where(assigned, 1.0 - p, 1.0), axis=0)``: both multiply a
    column's factors in ascending user order, and the factors the mask
    skips are exactly ``1.0``.
    """
    factors = p[:, columns]
    np.subtract(1.0, factors, out=factors)
    return np.multiply.reduce(factors, axis=0, where=assigned[:, columns], initial=1.0)

