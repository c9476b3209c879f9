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
user (cached user; the task's time and ``p`` by user; coverage; remaining
capacity) and the assigned pairs in a set.

Processing times are per task (Eq. 13), so a task's gain
``p_ij * miss_j / t_j`` scales all users by one scalar: the task's user
ranking by ``(-p, index)`` is fixed for the whole pass, and every way a
user leaves the feasible set (assigned to the task, or ``t_j`` above its
remaining capacity) is permanent.  Re-evaluation is a forward pointer
over that ranking, in scalar arithmetic:

- rankings are built with the :class:`GreedyState`, one sort per group
  of bit-equal expertise columns
  (:attr:`~repro.core.allocation.base.AllocationProblem.column_groups`,
  one group per domain, the groups Eq. 11 runs over), and shared by the
  group's tasks in a list indexed by task, so each domain is sorted once
  per allocation however many passes run from the state;
- the gain is ``p * miss / t`` in Python floats — the same IEEE operations
  as the vectorised form — and a short scan over the following runs of
  equal gain keeps ``np.argmax``'s lowest-index tie-break, since rounding
  can give a slightly smaller ``p`` the leader's gain.

**One start state per allocation.**  A pass starts from a
:class:`GreedyState`: the problem's fixed inputs (Fortran-order Eq. 11
accuracies, task times, eligibility, rankings) and what the assignment so
far implies (remaining capacity, each task's coverage miss, the
available pairs, the taken set), with the list forms the loop copies
made once per state and the active tasks' columns, time row and
cheapest cost once per active set.  Both passes of a best-of-two step
read one state and copy only what their picks change; the second takes
the masked gain ``p * miss`` the first built (the two builds differ only
by the division by ``t_j``).  Algorithm 2 carries one state through its
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

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment
from repro.truthdiscovery.base import nonzero_coordinates

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
    ``eligible``, the task ``costs`` and ``task_times``, and per task its
    user ranking (``task_rankings``) and ``p`` by user
    (``task_accuracy``), one of each per group of equal expertise columns
    (a ranking depends on the problem's eligibility and accuracy, so a
    state never outlives its problem).  The values the assignment so far
    implies, starting from the empty assignment plus ``initial``'s pairs:

    - ``assigned``, the boolean ``s_ij`` matrix;
    - ``remaining``, each user's capacity minus its assigned time, with
      ``fit = remaining + 1e-12`` and both as lists;
    - ``miss`` (read-only), each task's coverage miss ``prod (1 - p_ij)``
      over its assigned users, also as a list;
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
        self.problem = problem
        self.accuracy = np.asfortranarray(problem.accuracy_matrix())
        self.eligible = problem.eligible_mask()
        self.costs = problem.costs.tolist()
        self.task_times = problem.processing_times.tolist()
        # Each task's user ranking and ``p`` by user: one sort and one list
        # per group of equal expertise columns (one per domain), shared by
        # the group's tasks.
        first, group = problem.column_groups
        group = group.tolist()
        accuracy = self.accuracy[:, first]
        rankings = _rankings(accuracy, self.eligible)
        self.task_rankings = [rankings[g] for g in group]
        accuracy = accuracy.T.tolist()
        self.task_accuracy = [accuracy[g] for g in group]
        # The empty assignment: full capacity, and a column with no
        # assigned user has miss exactly 1.0.
        self.assigned = np.zeros((n_users, n_tasks), dtype=bool)
        self.avail = np.array(
            np.broadcast_to(self.eligible[:, None], (n_users, n_tasks)), order="F"
        )
        self.taken: set = set()
        self._set_remaining(problem.capacities.copy())
        miss = np.ones(n_tasks)
        if initial is not None:
            if initial.matrix.shape != (n_users, n_tasks):
                raise ValueError("initial assignment shape does not match the problem")
            users, tasks = nonzero_coordinates(initial.matrix)
            self._assign(users, tasks)
            if np.any(self.remaining < -1e-9):
                raise ValueError("initial assignment already exceeds capacities")
            covered = _touched(tasks, n_tasks)
            miss[covered] = _column_miss(self.accuracy, self.assigned, covered)
        miss.setflags(write=False)
        self._set_miss(miss)
        # The last active set a pass ran over (see :meth:`active_set`).
        self._active = None
        # ``(active-task key, masked p * miss)`` of the last pass's build,
        # until a pass over the same active tasks takes it.
        self.shared_gain = None

    def _assign(self, users: np.ndarray, tasks: np.ndarray) -> None:
        """Assign the ``(users, tasks)`` pairs and recompute the remaining
        capacity of the users they touch."""
        problem = self.problem
        self.assigned[users, tasks] = True
        self.avail[users, tasks] = False
        self.taken.update((users * problem.n_tasks + tasks).tolist())
        rows = _touched(users, problem.n_users)
        remaining = self.remaining
        remaining[rows] = problem.capacities[rows] - (
            self.assigned[rows] * problem.processing_times
        ).sum(axis=1)
        self._set_remaining(remaining)

    def _set_remaining(self, remaining: np.ndarray) -> None:
        """Keep ``remaining``, the fit bound ``remaining + 1e-12`` and the
        list forms a pass copies."""
        self.remaining = remaining
        self.fit = remaining + 1e-12
        self.remaining_list = remaining.tolist()
        self.fit_list = self.fit.tolist()

    def _set_miss(self, miss: np.ndarray) -> None:
        self.miss = miss
        self.miss_list = miss.tolist()

    def active_set(self, active_tasks: "np.ndarray | None") -> tuple:
        """``(key, columns, column_list, times, cheapest)`` of the tasks a
        pass may assign: ``key`` is ``None`` for all tasks (else the mask's
        bytes), ``columns`` their indices (also as a list), ``times`` their
        ``(1, n)`` row of ``t_j`` and ``cheapest`` their lowest cost.  Made
        once per active set, so both passes of a step share it."""
        n_tasks = self.problem.n_tasks
        key = None
        if active_tasks is not None:
            active_tasks = np.asarray(active_tasks, dtype=bool)
            if active_tasks.shape != (n_tasks,):
                raise ValueError("active_tasks must have one flag per task")
            if not active_tasks.all():
                key = active_tasks.tobytes()
        active = self._active
        if active is None or active[0] != key:
            times = self.problem.processing_times
            if key is None:
                columns, row = np.arange(n_tasks), times[None, :]
            else:
                columns = np.flatnonzero(active_tasks)
                row = times[None, columns]
            cheapest = float(self.problem.costs[columns].min()) if len(columns) else 0.0
            active = self._active = (key, columns, columns.tolist(), row, cheapest)
        return active

    def advance(self, outcome: GreedyOutcome) -> None:
        """Move to the end of ``outcome``, a pass that started from this state.

        Assigns its pairs and recomputes the remaining capacity of the users
        they touched; the coverage of the tasks they touched is the pass's
        own ``miss``.
        """
        if not len(outcome.added_pairs):
            return
        self.shared_gain = None
        users, tasks = outcome.added_pairs.T
        self._assign(users, tasks)
        self._set_miss(outcome.miss)


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
    p_f = state.accuracy
    key, columns, column_list, times_a, cheapest = state.active_set(active_tasks)

    # Initial build: one vectorised masked-argmax over the active columns
    # (later min-cost rounds leave only a few tasks active), the same
    # element-wise operations as the eager loop's per-task scan.  Before
    # the division by time the masked gain ``p * miss`` is the same for
    # both passes of a step: the first pass leaves it on the state and the
    # second takes it (``x / t`` of a masked ``0.0`` is ``0.0`` again).
    # So the build holds at most two full-size float arrays.
    shared = state.shared_gain
    if shared is not None and shared[0] == key:
        state.shared_gain = None
        gain = shared[1]
    else:
        if key is None:
            p_a, avail_a, miss_a = p_f, state.avail, state.miss
        else:
            p_a, avail_a, miss_a = p_f[:, columns], state.avail[:, columns], state.miss[columns]
        # ``gain`` is ``>= 0``, so multiplying by the feasibility mask zeroes
        # exactly the infeasible pairs; the mask is made in Fortran order,
        # as ``gain`` and ``avail`` are.
        gain = p_a * miss_a
        feasible = np.less_equal(times_a, state.fit[:, None], order="F")
        feasible &= avail_a
        gain *= feasible
        gain.setflags(write=False)
        state.shared_gain = (key, gain)
        del p_a, avail_a, feasible
    del shared
    if divide_by_time:
        gain = gain / times_a
    build_user = np.argmax(gain, axis=0)
    build_eff = gain[build_user, np.arange(len(columns))].tolist()
    del gain

    # From here on the loop reads and writes one scalar at a time, where
    # plain lists are several times cheaper than ndarrays (and Python
    # floats perform the same IEEE operations as NumPy's float64).  Each
    # task caches the user its heap entry was evaluated for (its ``p`` is
    # ``task_accuracy[task][user]``); the entry is fresh while the task's
    # time ``t`` fits that user.
    # Only active tasks with a positive gain enter the heap and an
    # unaffordable one leaves it for good, so the loop never reads the
    # cached user of any other.
    cached = np.zeros(n_tasks, dtype=np.intp)
    cached[columns] = build_user
    cached_user = cached.tolist()
    del cached, build_user
    task_times = state.task_times
    task_accuracy = state.task_accuracy
    costs = state.costs
    spent = 0.0
    heap = [(-value, task) for value, task in zip(build_eff, column_list) if value > 0.0]
    heapify(heap)

    # The pass's own copies of what its picks change: ``remaining`` (with
    # ``remaining + 1e-12`` in ``remaining_list`` for the fit test),
    # ``miss`` and ``taken``.  A pick writes only these lists and the set.
    remaining = state.remaining_list.copy()
    remaining_list = state.fit_list.copy()
    miss = state.miss_list.copy()
    taken = state.taken.copy()

    # Every user's gain on a task is ``p * (miss / t)`` for one task scalar,
    # so the task's user ranking by ``(-p, index)`` holds for the whole
    # pass, and every way a user leaves the feasible set (assignment, spent
    # capacity) is permanent: re-evaluation is a forward pointer over the
    # ranking.
    task_ranking = state.task_rankings
    pointer = [0] * n_tasks

    refreshes = 0
    blocked = 0
    max_refresh_delta = float("-inf")
    added: list = []
    # Cost only grows, so once the cheapest active task is unaffordable
    # every later pop would be blocked, or refreshed and then blocked: the
    # loop ends there.
    budget = float("inf") if cost_budget is None else cost_budget + 1e-12
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
            pair = user * n_tasks + task
            taken.add(pair)
            left = remaining[user] - t
            remaining[user] = left
            remaining_list[user] = left + 1e-12
            miss[task] *= 1.0 - task_accuracy[task][user]
            spent += costs[task]
            added.append(pair)
            if spent + cheapest > budget:
                break

        # Re-evaluate ``task``: its best feasible user and gain ``value``.
        users, ranked_p, run_end, n = task_ranking[task]
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
            value = ranked_p[k] * scale
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
                            best = user
                            break
                    k = run_end[k]
            cached_user[task] = best

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
    # ``added`` holds each pick as ``user * n_tasks + task``, its flat index
    # in the C-order ``assigned``.
    codes = np.array(added, dtype=np.intp)
    added_pairs = np.empty((len(added), 2), dtype=np.intp)
    np.divmod(codes, n_tasks, out=(added_pairs[:, 0], added_pairs[:, 1]))
    added_pairs.setflags(write=False)
    assigned = state.assigned.copy()
    miss_after = state.miss
    if added:
        assigned.reshape(-1)[codes] = True
        tasks = added_pairs[:, 1]
        miss_after = miss_after.copy()
        picked = _touched(tasks, n_tasks)
        miss_after[picked] = _column_miss(p_f, assigned, picked)
        miss_after.setflags(write=False)
    return GreedyOutcome(
        assignment=Assignment(matrix=assigned),
        added_pairs=added_pairs,
        objective=float((1.0 - miss_after).sum()),
        spent_cost=spent,
        stats=GreedyStats(
            picks=len(added),
            pops=len(added) + refreshes + blocked,
            evaluations=len(added) + refreshes,
            max_refresh_delta=max_refresh_delta,
        ),
        miss=miss_after,
    )


def _rankings(p: np.ndarray, eligible: np.ndarray) -> list:
    """The eligible users of each column of ``p`` by ``(-p, user)``.

    One ``(users, ranked_p, run_end, n)`` per column, as lists:
    ``run_end[k]`` is the first rank past rank ``k``'s run of equal ``p``.
    Every column ranks the same ``n`` eligible users, so the columns are
    sorted and cut in one go; a stable sort of the eligible rows, which
    are in ascending user order, breaks ties by user.
    """
    users = np.flatnonzero(eligible)
    ranked_p = p[users].T
    order = np.argsort(-ranked_p, axis=1, kind="stable")
    ranked_p = np.take_along_axis(ranked_p, order, axis=1)
    order = users[order]
    n_columns, n = order.shape
    # A rank's run ends at the first later rank whose ``p`` differs.
    run_end = np.full((n_columns, n), n)
    run_end[:, :-1] = np.where(ranked_p[:, 1:] != ranked_p[:, :-1], np.arange(1, n), n)
    run_end = np.minimum.accumulate(run_end[:, ::-1], axis=1)[:, ::-1]
    return [
        (users, ranked, ends, n)
        for users, ranked, ends in zip(order.tolist(), ranked_p.tolist(), run_end.tolist())
    ]


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

