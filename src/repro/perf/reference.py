"""Frozen pre-optimisation kernels, kept as equivalence/speedup yardsticks.

These are verbatim copies of the seed implementations that the performance
layer replaced:

- :func:`reference_linkage_sums` — the O(k²) Python double loop that built
  :class:`~repro.clustering.linkage.AverageLinkage`'s cluster-sum matrix,
- :func:`reference_labels_from_clusters` — the per-point label loop,
- :func:`reference_estimate_truth` — the dense §4.1 batch MLE (full
  ``(n_users, n_tasks)`` products every coordinate iteration) with its own
  copy of the Eq. 5 pass, so the live pass is never checked against itself,
- :func:`reference_greedy_allocate` — the eager Algorithm 1 greedy that
  re-evaluates every stale task after every pick (the loop the CELF
  lazy-greedy kernel in :mod:`repro.core.allocation.lazy_greedy`
  replaced; picks must stay bit-identical),
- :func:`reference_denominator_sums` — the §4.2 update's dense Eq. 8
  sums (``==`` the scatter-sum that replaced them for two or more users),
- :func:`reference_random_first_fit` — the warm-up fill's walk over the
  whole pair permutation (``==`` the per-user walk that stops early),
- :func:`reference_merge_until` — the §3.3.1 merge loop that rebuilt the
  whole average matrix for every merge (``==`` the loop that updates one
  row and column per merge),
- :func:`reference_min_cost_run` — the Algorithm 2 loop whose every
  greedy pass rebuilt its start state from the running assignment and
  whose rounds folded observations into a full-size matrix (``==`` the
  loop that carries one greedy state across its rounds),
- :func:`reference_sanitize` — the observation sanitizer whose outlier
  check scanned the whole batch once per distinct task (``==`` on values
  and report counters against the one grouped pass).
- :func:`reference_erf` — :func:`scipy.special.erf`, which Eq. 11 and
  ``Phi`` called before :func:`repro.stats.normal.erf` ported its Cephes
  kernel (``==`` bit for bit); scipy is imported on call.

They exist so that (a) ``tests/perf/test_equivalence.py`` can prove the
optimised kernels produce identical clusters and ``allclose`` truths, and
(b) :mod:`repro.perf.baseline` can record optimised-vs-reference speedups
in ``BENCH_core.json``.  Do not "fix" or optimise this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.expertise import DEFAULT_EXPERTISE, clamp_expertise, expertise_from_sums
from repro.core.truth import (
    ABSOLUTE_TOLERANCE,
    RELATIVE_TOLERANCE,
    SIGMA_FLOOR,
    TruthAnalysisResult,
)
from repro.truthdiscovery.base import ObservationMatrix

__all__ = [
    "reference_linkage_sums",
    "reference_labels_from_clusters",
    "reference_estimate_truth",
    "reference_greedy_allocate",
    "reference_denominator_sums",
    "reference_random_first_fit",
    "reference_merge_until",
    "reference_min_cost_run",
    "reference_sanitize",
    "reference_erf",
]


def reference_greedy_allocate(
    problem,
    initial=None,
    divide_by_time: bool = True,
    cost_budget: "float | None" = None,
    active_tasks: "np.ndarray | None" = None,
):
    """The seed Algorithm 1 greedy loop (see
    :func:`repro.core.allocation.lazy_greedy.lazy_greedy_allocate`).

    Eager evaluation: after every pick it immediately re-evaluates the
    chosen task and every task whose cached best user just lost capacity,
    then takes a full ``np.argmax`` over all tasks for the next pick.
    """
    from repro.core.allocation.base import allocation_objective
    from repro.core.allocation.lazy_greedy import GreedyOutcome

    n_users, n_tasks = problem.n_users, problem.n_tasks
    p = problem.accuracy_matrix()
    times = np.broadcast_to(problem.processing_times, (n_users, n_tasks))
    costs = problem.costs
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
    miss = np.prod(np.where(assigned, 1.0 - p, 1.0), axis=0)

    if active_tasks is None:
        active = np.ones(n_tasks, dtype=bool)
    else:
        active = np.asarray(active_tasks, dtype=bool)
        if active.shape != (n_tasks,):
            raise ValueError("active_tasks must have one flag per task")
        active = active.copy()

    spent = 0.0
    budget_blocked = np.zeros(n_tasks, dtype=bool)

    def best_for_task(task: int) -> "tuple[float, int]":
        if not active[task] or budget_blocked[task]:
            return (0.0, -1)
        feasible = (~assigned[:, task]) & eligible & (times[:, task] <= remaining + 1e-12)
        if not np.any(feasible):
            return (0.0, -1)
        gain = p[:, task] * miss[task]
        if divide_by_time:
            gain = gain / times[:, task]
        gain = np.where(feasible, gain, 0.0)
        user = int(np.argmax(gain))
        return (float(gain[user]), user)

    best_eff = np.zeros(n_tasks, dtype=float)
    best_user = np.full(n_tasks, -1, dtype=int)
    for task in range(n_tasks):
        best_eff[task], best_user[task] = best_for_task(task)

    added: list = []
    while True:
        task = int(np.argmax(best_eff))
        if best_eff[task] <= 0.0:
            break
        if cost_budget is not None and spent + costs[task] > cost_budget + 1e-12:
            # Cost only grows, so this task can never be afforded again.
            budget_blocked[task] = True
            best_eff[task], best_user[task] = 0.0, -1
            continue
        user = best_user[task]
        assigned[user, task] = True
        remaining[user] -= times[user, task]
        miss[task] *= 1.0 - p[user, task]
        spent += costs[task]
        added.append((user, task))
        # Stale entries: the chosen task (its coverage changed) and every
        # task whose cached best user was the one whose capacity shrank.
        stale = np.flatnonzero(best_user == user)
        best_eff[task], best_user[task] = best_for_task(task)
        for other in stale:
            if other != task:
                best_eff[other], best_user[other] = best_for_task(int(other))

    from repro.core.allocation.base import Assignment

    assignment = Assignment(matrix=assigned)
    return GreedyOutcome(
        assignment=assignment,
        added_pairs=tuple(added),
        objective=allocation_objective(problem, assignment),
        spent_cost=spent,
    )


def reference_linkage_sums(base: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """The seed ``AverageLinkage.__init__`` cluster-sum construction."""
    base = np.asarray(base, dtype=float)
    members = [list(group) for group in groups]
    k = len(members)
    sums = np.zeros((k, k), dtype=float)
    for a in range(k):
        rows = base[np.ix_(members[a], members[a])]
        sums[a, a] = rows.sum() / 2.0
        for b in range(a + 1, k):
            total = base[np.ix_(members[a], members[b])].sum()
            sums[a, b] = total
            sums[b, a] = total
    return sums


def reference_labels_from_clusters(clusters, n_points: int) -> np.ndarray:
    """The seed per-point labelling loop of the static clustering front-end."""
    labels = np.full(n_points, -1, dtype=int)
    for cluster_id, members in enumerate(clusters):
        for index in members:
            labels[index] = cluster_id
    if np.any(labels < 0):
        raise AssertionError("internal error: clustering did not cover all points")
    return labels


def reference_denominator_sums(
    observations: ObservationMatrix,
    inverse: np.ndarray,
    k: int,
    truths: np.ndarray,
    sigmas: np.ndarray,
) -> np.ndarray:
    """The seed ``_DomainBlock`` Eq. 8 sums over tasks sorted by domain column ``inverse``.

    NumPy reduces each domain's Fortran-ordered column slice column by
    column, in ascending task order, like the scatter-sum that replaced it.
    The one exception is a single user: the contiguous ``(1, n)`` slice is
    summed pairwise, which can move the last bits once a domain has 8 tasks.
    """
    order = np.argsort(inverse, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(inverse, minlength=k))))
    mask = observations.mask[:, order]
    values = observations.values[:, order]

    safe_truths = np.where(np.isnan(truths), 0.0, truths)[order]
    normalised_sq = np.where(mask, ((values - safe_truths) / sigmas[order]) ** 2, 0.0)
    sums = np.empty((normalised_sq.shape[0], len(bounds) - 1))
    for k, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
        sums[:, k] = normalised_sq[:, start:end].sum(axis=1)
    return sums


def _reference_update_expertise(
    observations: ObservationMatrix,
    truths: np.ndarray,
    sigmas: np.ndarray,
    domain_columns: np.ndarray,
    n_domains: int,
) -> np.ndarray:
    """The seed dense Eq. 6 pass (per-domain column scans every iteration)."""
    mask = observations.mask
    safe_truths = np.where(np.isnan(truths), 0.0, truths)
    normalised_sq = np.where(mask, ((observations.values - safe_truths) / sigmas) ** 2, 0.0)

    n_users = observations.n_users
    numerators = np.zeros((n_users, n_domains), dtype=float)
    denominators = np.zeros((n_users, n_domains), dtype=float)
    for k in range(n_domains):
        tasks = np.flatnonzero(domain_columns == k)
        if tasks.size == 0:
            continue
        numerators[:, k] = mask[:, tasks].sum(axis=1)
        denominators[:, k] = normalised_sq[:, tasks].sum(axis=1)
    return expertise_from_sums(numerators, denominators)


def _reference_update_truths(
    observations: ObservationMatrix, task_expertise: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """The Eq. 5 pass :func:`reference_estimate_truth` was checked with: the
    row-major ``np.nonzero`` entries, scatter-summed per task."""
    rows, cols = np.nonzero(observations.mask)
    values = observations.values[rows, cols]
    n_tasks = observations.n_tasks
    task_counts = np.bincount(cols, minlength=n_tasks)
    weights = task_expertise[rows, cols] ** 2
    weight_totals = np.bincount(cols, weights=weights, minlength=n_tasks)
    weighted_values = np.bincount(cols, weights=weights * values, minlength=n_tasks)
    observed = weight_totals > 0
    truths = np.where(observed, weighted_values / np.where(observed, weight_totals, 1.0), np.nan)
    safe_truths = np.where(np.isnan(truths), 0.0, truths)
    residuals = values - safe_truths[cols]
    weighted_square = np.bincount(cols, weights=weights * residuals**2, minlength=n_tasks)
    variance = np.where(task_counts > 0, weighted_square / np.maximum(task_counts, 1), 0.0)
    sigmas = np.maximum(np.sqrt(variance), SIGMA_FLOOR)
    return truths, sigmas


def _reference_truths_converged(new: np.ndarray, old: np.ndarray) -> bool:
    both = ~(np.isnan(new) | np.isnan(old))
    if not np.any(both):
        return True
    delta = np.abs(new[both] - old[both])
    scale = np.abs(old[both])
    relative_ok = delta <= RELATIVE_TOLERANCE * np.maximum(scale, 1e-12)
    absolute_ok = delta <= ABSOLUTE_TOLERANCE
    return bool(np.all(relative_ok | absolute_ok))


def reference_estimate_truth(
    observations: ObservationMatrix,
    task_domains,
    initial_expertise: "np.ndarray | None" = None,
    domain_ids: "tuple | None" = None,
    max_iterations: int = 100,
) -> TruthAnalysisResult:
    """The seed dense §4.1 batch MLE (see :func:`repro.core.truth.estimate_truth`)."""
    task_domains = np.asarray(task_domains)
    if task_domains.shape != (observations.n_tasks,):
        raise ValueError("task_domains must have one label per task")
    if observations.observation_count == 0:
        raise ValueError("observation matrix is empty")

    if domain_ids is None:
        domain_ids = tuple(sorted(set(task_domains.tolist())))
    column_of = {domain_id: k for k, domain_id in enumerate(domain_ids)}
    try:
        domain_columns = np.array([column_of[d] for d in task_domains.tolist()], dtype=int)
    except KeyError as missing:
        raise ValueError(f"task domain {missing} not present in domain_ids") from None
    n_domains = len(domain_ids)

    if initial_expertise is None:
        expertise = np.full((observations.n_users, n_domains), DEFAULT_EXPERTISE, dtype=float)
    else:
        expertise = clamp_expertise(np.asarray(initial_expertise, dtype=float).copy())
        if expertise.shape != (observations.n_users, n_domains):
            raise ValueError("initial_expertise has the wrong shape")

    truths = np.full(observations.n_tasks, np.nan)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        task_expertise = expertise[:, domain_columns]
        new_truths, sigmas = _reference_update_truths(observations, task_expertise)
        expertise = _reference_update_expertise(
            observations, new_truths, sigmas, domain_columns, n_domains
        )
        if iterations > 1 and _reference_truths_converged(new_truths, truths):
            truths = new_truths
            converged = True
            break
        truths = new_truths

    task_expertise = expertise[:, domain_columns]
    truths, sigmas = _reference_update_truths(observations, task_expertise)
    return TruthAnalysisResult(
        truths=truths,
        sigmas=sigmas,
        expertise=expertise,
        domain_ids=tuple(domain_ids),
        iterations=iterations,
        converged=converged,
    )


def reference_random_first_fit(problem, budget: np.ndarray, rng):
    """The warm-up fill's walk over every pair of one random permutation
    (see :func:`repro.core.allocation.baselines.random_first_fit`)."""
    from repro.core.allocation.base import Assignment

    n_users, n_tasks = problem.n_users, problem.n_tasks
    order = rng.permutation(n_users * n_tasks)
    users, tasks = np.divmod(order, n_tasks)
    times = problem.processing_times[tasks].tolist()
    eligible = problem.eligible_mask().tolist()
    remaining = np.asarray(budget, dtype=float).tolist()
    taken = []
    for k, (user, t) in enumerate(zip(users.tolist(), times)):
        if eligible[user] and t <= remaining[user] + 1e-12:
            remaining[user] -= t
            taken.append(k)
    matrix = np.zeros(n_users * n_tasks, dtype=bool)
    matrix[order[taken]] = True
    return Assignment(matrix=matrix.reshape(n_users, n_tasks))


def reference_merge_until(linkage, threshold: float) -> list:
    """The seed ``AverageLinkage.merge_until`` loop: one full
    ``closest_pair`` scan (a fresh average matrix) per merge."""
    log: list = []
    while linkage.cluster_count > 1:
        a, b, distance = linkage.closest_pair()
        if not distance < threshold:
            break
        kept = linkage.merge(a, b)
        absorbed = b if kept == a else a
        log.append((kept, absorbed, distance))
    return log


def reference_min_cost_run(allocator, problem, observe, estimate=None, greedy=None):
    """The Algorithm 2 loop of ``allocator`` (a
    :class:`~repro.core.allocation.min_cost.MinCostAllocator`), rebuilding
    every greedy pass from the running assignment.

    Each round runs ``greedy`` (default :func:`reference_greedy_allocate`;
    any function with its keywords) from ``initial=`` the assignment so
    far for the efficiency pass and, with the allocator's extra pass, the
    cardinality pass, scores both with ``allocation_objective`` (ties go to
    the efficiency pass), folds the round's observations through a
    full-size ``from_pairs`` matrix and re-checks the tasks that received
    usable data.  The quality check is the allocator's own
    ``_check_quality``.
    """
    from repro.core.allocation.base import Assignment, allocation_objective
    from repro.core.allocation.min_cost import MinCostOutcome, MinCostRound

    if greedy is None:
        greedy = reference_greedy_allocate
    n_users, n_tasks = problem.n_users, problem.n_tasks
    if estimate is None:
        estimate = allocator._default_estimator(problem)

    assignment = Assignment.empty(n_users, n_tasks)
    observations = ObservationMatrix(
        values=np.zeros((n_users, n_tasks)), mask=np.zeros((n_users, n_tasks), dtype=bool)
    )
    satisfied = np.zeros(n_tasks, dtype=bool)
    truths = np.full(n_tasks, np.nan)
    sigmas = np.full(n_tasks, np.nan)
    rounds: list = []
    total_cost = 0.0
    greedy_stats = None

    for _ in range(allocator._max_rounds):
        passes = [True, False] if allocator._extra_pass else [True]
        outcomes = [
            greedy(
                problem,
                initial=assignment,
                divide_by_time=divide_by_time,
                cost_budget=allocator._round_budget,
                active_tasks=~satisfied,
            )
            for divide_by_time in passes
        ]
        outcome = outcomes[0]
        stats = outcome.stats
        if len(outcomes) == 2:
            cardinality = outcomes[1]
            stats = cardinality.stats if stats is None else stats.merged(cardinality.stats)
            if allocation_objective(problem, cardinality.assignment) > allocation_objective(
                problem, outcome.assignment
            ):
                outcome = cardinality
        if stats is not None:
            greedy_stats = stats.merged(greedy_stats)
        if not len(outcome.added_pairs):
            break
        assignment = outcome.assignment
        total_cost += outcome.spent_cost

        users, tasks = np.asarray(outcome.added_pairs, dtype=np.intp).T
        new = ObservationMatrix.from_pairs(
            users, tasks, observe(list(outcome.added_pairs)), n_users, n_tasks
        )
        observations = ObservationMatrix(
            values=np.where(new.mask, new.values, observations.values),
            mask=observations.mask | new.mask,
        )
        truths, sigmas, task_expertise = estimate(observations)
        satisfied = allocator._check_quality(
            observations.mask,
            truths,
            sigmas,
            task_expertise,
            satisfied=satisfied,
            recheck=np.flatnonzero(new.mask.any(axis=0)),
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


def reference_sanitize(sanitizer, pairs, values) -> np.ndarray:
    """``ObservationSanitizer.sanitize`` of ``sanitizer`` (a
    :class:`~repro.reliability.sanitize.ObservationSanitizer`) with the
    outlier check as one loop over the distinct tasks, each scanning the
    whole batch for its members.  Counts into ``sanitizer.report``."""
    from repro.reliability.sanitize import _MAD_SCALE

    values = np.array(values, dtype=float)
    tasks = np.asarray(pairs).reshape(-1, 2)[:, 1]
    if values.shape != tasks.shape:
        raise ValueError("values must have one entry per pair")
    report = sanitizer.report
    report.pairs += len(tasks)

    nan_in = np.isnan(values)
    report.nan_payloads += int(nan_in.sum())

    inf_in = np.isinf(values)
    report.inf_payloads += int(inf_in.sum())
    values[inf_in] = np.nan

    if sanitizer._bounds is not None:
        low, high = sanitizer._bounds
        with np.errstate(invalid="ignore"):
            bad = (values < low) | (values > high)
        report.out_of_bounds += int(bad.sum())
        values[bad] = np.nan

    for task in np.unique(tasks):
        members = np.flatnonzero(tasks == task)
        finite = members[np.isfinite(values[members])]
        if finite.size < sanitizer._min_obs:
            continue
        sample = values[finite]
        median = float(np.median(sample))
        mad = float(np.median(np.abs(sample - median)))
        scale = max(_MAD_SCALE * mad, 1e-12)
        bad = finite[np.abs(sample - median) / scale > sanitizer._zscore]
        report.outliers += int(bad.size)
        values[bad] = np.nan

    report.accepted += int(np.isfinite(values).sum())
    return values


def reference_erf(x):
    """The seed error function: :func:`scipy.special.erf` on float64 ``x``."""
    from scipy import special

    return special.erf(np.asarray(x, dtype=float))
