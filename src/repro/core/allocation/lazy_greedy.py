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

- rankings are built lazily, when a task is first re-evaluated, and kept
  on the :class:`GreedyState` in a list indexed by task; tasks with equal
  accuracy columns (one expertise domain) share one sort, so each domain
  is sorted once per allocation however many passes run from the state;
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

**One start state per allocation.**  A pass starts from a
:class:`GreedyState`: the problem's fixed inputs (Fortran-order Eq. 11
accuracies, pair times, eligibility, rankings) and what the assignment so
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
``np.argmax`` over the per-task efficiency array — and both re-evaluation
paths compute every efficiency with the same element-wise operations in
the same order as the eager loop's ``best_for_task``, so every value and
every user tie-break is bit-identical too.
``tests/perf/test_allocation_equivalence.py`` fuzzes the kernel against
the frozen eager copy
(:func:`repro.perf.reference.reference_greedy_allocate`) across spatial
pair-times, eligibility masks, cost budgets, warm starts, tie-heavy
expertise and zero-capacity users, with blocks of larger per-task-time
instances for the pointer walk, warm starts of 50-300 prior pairs and a
hand-built rounding tie; it also fuzzes
:class:`~repro.core.allocation.min_cost.MinCostAllocator` against
:func:`repro.perf.reference.reference_min_cost_run`, which rebuilds every
pass from the running assignment.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappushpop
from dataclasses import dataclass

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment

__all__ = ["GreedyStats", "GreedyOutcome", "GreedyState", "lazy_greedy_allocate"]

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
    ``pair_times`` and their column-access layout ``times_f`` (a broadcast
    per-task time row -- stride 0 -- is already free to slice; per-pair
    times get a Fortran copy), ``eligible`` and the task ``costs``; with
    per-task times also the ``task_times``, the ``tie_floor`` of the tie
    scan and the user rankings the kernel resolves (a ranking depends on
    the problem's eligibility and accuracy, so a state never outlives its
    problem).  The values the assignment so far implies:

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
        times = problem.pair_times()
        remaining = problem.capacities - (assigned * times).sum(axis=1)
        if np.any(remaining < -1e-9):
            raise ValueError("initial assignment already exceeds capacities")
        self.problem = problem
        self.per_task_times = times.strides[0] == 0
        self.pair_times = times
        self.times_f = times if self.per_task_times else np.asfortranarray(times)
        self.accuracy = np.asfortranarray(problem.accuracy_matrix())
        self.eligible = problem.eligible_mask()
        self.costs = problem.costs.tolist()
        if self.per_task_times:
            # Per-task times only: each task's user ranking, resolved when a
            # pass first re-evaluates the task, and the sorts behind them,
            # one per distinct accuracy column (one per expertise domain).
            self.task_times = times[0].tolist()
            self.task_rankings: list = [None] * n_tasks
            self.rankings: dict = {}
            self.ranking_column = _equal_columns(self.accuracy)
            # A tie scan is skipped only while ``p * miss`` and the gain are
            # normal floats: ``p * miss >= tie_floor`` guarantees both, since
            # no time exceeds the largest.  Times so small that a gain
            # (``p * miss <= 1`` over ``t``) could overflow turn the skip off.
            self.tie_floor = float("inf")
            if min(self.task_times, default=1.0) >= _MIN_TIME:
                self.tie_floor = _MIN_NORMAL * max(1.0, max(self.task_times, default=1.0))
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
        if not outcome.added_pairs:
            return
        self.shared_gain = None
        n_users, n_tasks = self.problem.n_users, self.problem.n_tasks
        users, tasks = _pair_arrays(outcome.added_pairs)
        self.assigned[users, tasks] = True
        self.avail[users, tasks] = False
        self.taken.update((users * n_tasks + tasks).tolist())
        rows = _touched(users, n_users)
        times = self.pair_times[:1] if self.per_task_times else self.pair_times[rows]
        self.remaining[rows] = self.problem.capacities[rows] - (
            self.assigned[rows] * times
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
    n_users, n_tasks = problem.n_users, problem.n_tasks
    p_f, times_f, eligible = state.accuracy, state.times_f, state.eligible
    per_task_times = state.per_task_times

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
        times_a = times_f[:1] if per_task_times else times_f
    else:
        key, columns = active_tasks.tobytes(), np.flatnonzero(active_tasks)
        times_a = times_f[:1, columns] if per_task_times else times_f[:, columns]
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
    # task caches the user its heap entry was evaluated for, that user's
    # ``p`` and the pair's time ``t``: the entry is fresh while ``t`` fits
    # that user.  With per-task times ``cached_t`` is the state's list of
    # task times, never written.  Only active tasks enter the heap and an
    # unaffordable one leaves it for good, so the loop never re-evaluates
    # any other; the per-task lists are filled for those alone.
    cached_user = [0] * n_tasks
    cached_p = [0.0] * n_tasks
    for task, user, p_user in zip(
        heap_tasks, build_user.tolist(), p_f[build_user, build_tasks].tolist()
    ):
        cached_user[task] = user
        cached_p[task] = p_user
    if per_task_times:
        cached_t = state.task_times
    else:
        cached_t = [0.0] * n_tasks
        for task, t_user in zip(heap_tasks, times_f[build_user, build_tasks].tolist()):
            cached_t[task] = t_user
    miss = state.miss.tolist()
    costs = state.costs
    spent = 0.0
    heap = list(zip((-build_eff[live]).tolist(), heap_tasks))
    heapify(heap)

    # The pass's own copies of what its picks change: ``remaining`` (with
    # ``remaining_eps``, ``remaining + 1e-12``, mirrored in
    # ``remaining_list`` for scalar reads), ``miss``, ``taken`` and
    # ``avail``.  The scalar state is the live one: a pick writes only
    # lists and the set, and ``avail`` / ``remaining_eps`` take the picks
    # made since their last update (``added[synced:]``) just before a
    # vectorised scan reads them.  All of it is value-identical to the
    # frozen eager loop: boolean algebra is exact, and ``x * True`` /
    # ``x * False`` equal ``np.where``'s ``x`` / ``0.0`` for these finite
    # non-negative gains.
    avail = state.avail.copy(order="F")
    remaining = state.remaining.tolist()
    remaining_list = remaining_eps.tolist()
    taken = state.taken.copy()
    synced = 0

    if per_task_times:
        # Every user's gain on a task is ``p * (miss / t)`` for one task
        # scalar, so the task's user ranking by ``(-p, index)`` holds for
        # the whole pass, and every way a user leaves the feasible set
        # (assignment, spent capacity) is permanent: re-evaluation is a
        # forward pointer over the ranking.
        rankings, task_ranking = state.rankings, state.task_rankings
        ranking_column = state.ranking_column
        pointer = [0] * n_tasks
        tie_floor = state.tie_floor
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
                ranking = task_ranking[task] = _task_ranking(
                    rankings, p_f, eligible, ranking_column[task]
                )
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

    # The objective sums every task's coverage; only the columns this pass
    # picked into differ from the state's, and each is recomputed from the
    # matrix in ascending user order (the scalar ``miss`` multiplied in pick
    # order, which can differ in the last bits).
    assigned = state.assigned.copy()
    miss_after = state.miss
    if added:
        users, tasks = _pair_arrays(added)
        assigned[users, tasks] = True
        miss_after = miss_after.copy()
        picked = _touched(tasks, n_tasks)
        miss_after[picked] = _column_miss(p_f, assigned, picked)
        miss_after.setflags(write=False)
    return GreedyOutcome(
        assignment=Assignment(matrix=assigned),
        added_pairs=tuple(added),
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

    Returns ``(users, ranked_p, run_end, clear, n, order)``: ``run_end[k]`` is
    the first rank past rank ``k``'s run of equal ``p``, and ``clear[k]``
    says that the next run's ``p`` is below ``ranked_p[k] * (1 - 2**-40)``
    (or that there is none), a gap that rounding of normal floats cannot
    close.
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
        next_p = np.append(ranked_p, -np.inf)[run_end]
        clear = next_p < ranked_p * _TIE_MARGIN
        ranking = rankings[index] = (
            order.tolist(),
            ranked_p.tolist(),
            run_end.tolist(),
            clear.tolist(),
            len(order),
            order,
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


def _pair_arrays(pairs) -> tuple:
    """``(users, tasks)`` index arrays of a sequence of ``(user, task)`` pairs."""
    users, tasks = zip(*pairs)
    return np.array(users, dtype=np.intp), np.array(tasks, dtype=np.intp)


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


def _apply_picks(
    added: list, synced: int, avail: np.ndarray, remaining_eps: np.ndarray, remaining_list: list
) -> int:
    """Write the picks ``added[synced:]`` into the numpy copies of the
    assignment and capacity state; returns the new ``synced``."""
    for user, task in added[synced:]:
        avail[user, task] = False
        remaining_eps[user] = remaining_list[user]
    return len(added)
