"""The lazy-greedy (CELF) allocation kernel must be bit-identical to the
frozen eager reference.

Unlike the MLE equivalence checks (allclose — scatter-sums reorder
additions), the allocation kernel promises *exact* reproduction: the same
picks in the same order, the same assignment matrix, the same objective
and spent cost, on every instance.  The fuzz below therefore asserts
``==``, never ``allclose``, across 200 randomized instances covering the
adversarial structure the kernel's staleness reasoning must survive:

- tie-heavy expertise (few discrete levels shared across users/domains),
- per-task and per-pair (spatial) processing times, also tie-heavy,
- zero-capacity users and eligibility masks,
- cost budgets that block tasks mid-run (Algorithm 2's ``c^o``),
- warm initial assignments (min-cost rounds),
- inactive-task masks and both efficiency definitions
  (``divide_by_time`` on/off).

A second block of ``_random_instance`` draws realistic warm starts: 50-300
pairs of a prior greedy pass, with the tasks that pass left below a
coverage quantile active; both passes start from one ``GreedyState`` (the
second takes the masked gain the first built), and the state must come
out unchanged.

Per-task processing times (the paper's setting, and the only kind the
pipeline builds) take the kernel's ranked-pointer path, so a second fuzz
block draws only those, at sizes where pointer walks outgrow their bound
and jump, with capacity-1 saturation and shared domain columns; its two
passes per instance start from one ``GreedyState``.
Hand-built instances pin a jump past a warm-started user and the rounding
ties the pointer walk must break the way ``np.argmax`` does.

Three more blocks cover the single heap loop's shortcuts: per-task
instances with more than 128 users where a vectorised jump follows picks
(the numpy copies of the assignment and capacity state are brought up to
date only before such a scan), users whose ``p`` sits a rounding step
below a leader or at the tie-skip margin ``p * (1 - 2**-40)`` (plus
hand-built subnormal and overflowing gains, where that margin does not
hold), and spatial per-pair instances through the same loop.

The CELF invariant test asserts the submodularity precondition the kernel
relies on: re-evaluating a stale heap entry never *increases* its
efficiency (``max_refresh_delta <= 0``), so a stale cached value is always
an upper bound and a fresh top-of-heap entry is the true global argmax.
The slack-capacity test pins the freshness rule itself: an entry goes
stale only when its cached user no longer fits the task.

Algorithm 2 carries one ``GreedyState`` through its rounds.  Its fuzz
runs :class:`~repro.core.allocation.min_cost.MinCostAllocator` against
:func:`~repro.perf.reference.reference_min_cost_run`, which rebuilds every
pass from the running assignment, over dropouts (NaN payloads),
eligibility masks, a round budget below one task's cost, zero-capacity
users, per-pair times and the extra pass on and off: ``==`` on every
round and on the outcome with the frozen eager greedy, and on the merged
``GreedyStats`` with the live kernel rebuilt per pass.  After every round
the carried state must equal a fresh build and the full-matrix forms.

The warm-up fill (:func:`~repro.core.allocation.baselines.random_first_fit`)
walks each user's own pairs and stops early; its fuzz asserts ``==`` on
the matrix and on the generator's state against the frozen walk over the
whole permutation.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.allocation.base import AllocationProblem, Assignment
from repro.core.allocation.baselines import random_first_fit
from repro.core.allocation.lazy_greedy import GreedyState, lazy_greedy_allocate
from repro.core.allocation.min_cost import MinCostAllocator
from repro.perf.reference import (
    reference_greedy_allocate,
    reference_min_cost_run,
    reference_random_first_fit,
)


def _random_instance(rng, warm=False):
    """One randomized allocation instance plus greedy kwargs.

    ``warm`` draws the second block: larger instances warm-started from
    50-300 pairs of a prior greedy pass, with the tasks that pass left
    below a coverage quantile active, as in a later min-cost round.
    """
    if warm:
        return _warm_instance(rng)
    n_users = int(rng.integers(2, 12))
    n_tasks = int(rng.integers(2, 14))
    n_domains = int(rng.integers(1, 5))
    domains = rng.integers(0, n_domains, n_tasks)
    if rng.random() < 0.5:
        # Tie-heavy: a handful of discrete expertise levels, so many
        # (user, task) efficiencies collide exactly and the argmax
        # tie-break (lowest task, then lowest user) is exercised hard.
        levels = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n_users, n_domains))
    else:
        levels = rng.gamma(2.0, 1.5, (n_users, n_domains))
    expertise = levels[:, domains]

    roll = rng.random()
    if roll < 0.4:
        # Spatial per-pair times, quantized for more exact ties.
        times = rng.choice([0.5, 1.0, 1.5], size=(n_users, n_tasks))
    elif roll < 0.7:
        times = rng.uniform(0.3, 2.0, (n_users, n_tasks))
    else:
        times = rng.choice([0.5, 1.0, 2.0], size=n_tasks)

    capacities = rng.uniform(0.5, 4.0, n_users)
    capacities[rng.random(n_users) < 0.2] = 0.0

    costs = rng.choice([0.5, 1.0, 2.0], size=n_tasks) if rng.random() < 0.5 else None
    eligible = None
    if rng.random() < 0.3:
        eligible = rng.random(n_users) < 0.7
        if not eligible.any():
            eligible[int(rng.integers(n_users))] = True

    problem = AllocationProblem(
        expertise=expertise,
        processing_times=times,
        capacities=capacities,
        costs=costs,
        eligible=eligible,
    )

    kwargs = {"divide_by_time": bool(rng.random() < 0.7)}
    if rng.random() < 0.4:
        # Small enough to block tasks mid-run once cheap picks accumulate.
        kwargs["cost_budget"] = float(rng.uniform(0.5, n_tasks))
    if rng.random() < 0.3:
        kwargs["active_tasks"] = rng.random(n_tasks) < 0.7

    initial = None
    if rng.random() < 0.3:
        # Warm start: a few random feasible pairs, as min-cost rounds do.
        initial = Assignment.empty(n_users, n_tasks)
        pair_times = problem.pair_times()
        remaining = problem.capacities.copy()
        for _ in range(int(rng.integers(1, 6))):
            user = int(rng.integers(n_users))
            task = int(rng.integers(n_tasks))
            if not initial.matrix[user, task] and pair_times[user, task] <= remaining[user]:
                initial.matrix[user, task] = True
                remaining[user] -= pair_times[user, task]
    return problem, initial, kwargs


def _warm_instance(rng):
    n_users = int(rng.integers(20, 61))
    n_tasks = int(rng.integers(30, 121))
    n_domains = int(rng.integers(1, 7))
    domains = rng.integers(0, n_domains, n_tasks)
    if rng.random() < 0.3:
        levels = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n_users, n_domains))
    else:
        levels = rng.gamma(2.0, 1.5, (n_users, n_domains))
    if rng.random() < 0.3:
        times = rng.uniform(0.3, 2.0, (n_users, n_tasks))
    else:
        times = rng.uniform(0.5, 1.5, n_tasks)
    capacities = rng.uniform(4.0, 14.0, n_users)
    capacities[rng.random(n_users) < 0.1] = 0.0
    eligible = None
    if rng.random() < 0.3:
        eligible = rng.random(n_users) < 0.8
        eligible[int(rng.integers(n_users))] = True
    problem = AllocationProblem(
        expertise=levels[:, domains],
        processing_times=times,
        capacities=capacities,
        costs=rng.choice([0.5, 1.0, 2.0], size=n_tasks) if rng.random() < 0.4 else None,
        eligible=eligible,
    )
    prior = reference_greedy_allocate(problem, divide_by_time=bool(rng.random() < 0.7))
    initial = Assignment.empty(n_users, n_tasks)
    for user, task in prior.added_pairs[: int(rng.integers(50, 301))]:
        initial.matrix[user, task] = True
    miss = np.where(initial.matrix, 1.0 - problem.accuracy_matrix(), 1.0)
    coverage = 1.0 - np.prod(miss, axis=0)
    kwargs = {
        "divide_by_time": bool(rng.random() < 0.7),
        "active_tasks": coverage <= np.quantile(coverage, rng.uniform(0.2, 0.9)),
    }
    if rng.random() < 0.5:
        kwargs["cost_budget"] = float(rng.uniform(1.0, n_tasks))
    return problem, initial, kwargs


def _assert_matches_reference(problem, initial=None, state=None, **kwargs):
    """Same pairs in the same pick order (not merely the same set), the
    same matrix, objective and spent cost.  With a ``state`` (built from
    ``initial``) the pass starts from it, as the allocators' passes do."""
    if state is None:
        lazy = lazy_greedy_allocate(problem, initial=initial, **kwargs)
    else:
        lazy = lazy_greedy_allocate(problem, state=state, **kwargs)
    ref = reference_greedy_allocate(problem, initial=initial, **kwargs)
    assert lazy.added_pairs == ref.added_pairs
    assert np.array_equal(lazy.assignment.matrix, ref.assignment.matrix)
    assert lazy.objective == ref.objective
    assert lazy.spent_cost == ref.spent_cost


def _assert_same_state(state, fresh):
    """Every start value of ``state`` is ``==`` the one in ``fresh`` and
    the full-matrix form of the eager reference."""
    problem, assigned = state.problem, fresh.assigned
    assert np.array_equal(state.assigned, assigned)
    assert np.array_equal(state.remaining, fresh.remaining)
    assert np.array_equal(
        state.remaining, problem.capacities - (assigned * problem.pair_times()).sum(axis=1)
    )
    assert np.array_equal(state.miss, fresh.miss)
    assert np.array_equal(
        state.miss, np.prod(np.where(assigned, 1.0 - problem.accuracy_matrix(), 1.0), axis=0)
    )
    assert np.array_equal(state.avail, fresh.avail)
    assert np.array_equal(state.avail, ~assigned & problem.eligible_mask()[:, None])
    assert state.taken == fresh.taken == set(np.flatnonzero(assigned).tolist())


@pytest.mark.parametrize("block", range(8))
def test_lazy_greedy_matches_reference_fuzz(block):
    """200 randomized instances (8 blocks x 25): picks bit-identical."""
    rng = np.random.default_rng(1000 + block)
    for _ in range(25):
        problem, initial, kwargs = _random_instance(rng)
        _assert_matches_reference(problem, initial=initial, **kwargs)


@pytest.mark.parametrize("block", range(4))
def test_warm_started_passes_match_reference_fuzz(block):
    """40 warm-started instances (4 blocks x 10), 50-300 prior pairs and an
    active-task mask from the prior pass's coverage: both passes start from
    one ``GreedyState`` (the second takes the first's masked gain), picks
    bit-identical, and the state is left unchanged."""
    rng = np.random.default_rng(1500 + block)
    for _ in range(10):
        problem, initial, kwargs = _random_instance(rng, warm=True)
        assert 50 <= initial.matrix.sum() <= 300
        state = GreedyState(problem, initial)
        for divide_by_time in (kwargs["divide_by_time"], not kwargs["divide_by_time"]):
            kwargs["divide_by_time"] = divide_by_time
            _assert_matches_reference(problem, initial=initial, state=state, **kwargs)
        _assert_same_state(state, GreedyState(problem, initial))


def _per_task_instance(rng):
    """A larger instance with per-task times only (the ranked-pointer path)."""
    n_users = int(rng.integers(30, 201))
    # Capacity-1 saturation: each user fits about one task, and with more
    # tasks than users a task's leading users are spent long before it is
    # re-evaluated, so pointer walks outgrow their bound and jump.
    saturated = rng.random() < 0.5
    n_tasks = int(rng.integers(n_users, 2 * n_users)) if saturated else int(rng.integers(20, 121))
    n_domains = int(rng.integers(1, 9))
    domains = rng.integers(0, n_domains, n_tasks)
    if rng.random() < 0.3:
        levels = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n_users, n_domains))
        if rng.random() < 0.5:
            # Ulp-level nudges: users whose p differs by a rounding step,
            # whose gains then tie or not depending on miss and t.
            levels *= 1.0 + rng.integers(-2, 3, levels.shape) * 2.0**-52
    elif saturated:
        # Heavy-tailed, as in the capacity-1 benchmark kernel.
        levels = rng.gamma(2.0, 2.0, (n_users, n_domains))
    else:
        levels = rng.uniform(0.0, 3.0, (n_users, n_domains))
    # Domain columns shared across tasks (the ranking cache), occasionally
    # perturbed per task so that some tasks get a ranking of their own.
    expertise = levels[:, domains]
    if rng.random() < 0.2:
        expertise = expertise + rng.uniform(0.0, 0.1, expertise.shape)
    times = rng.uniform(0.5, 1.5, n_tasks)
    if saturated:
        capacities = np.ones(n_users)
    else:
        capacities = rng.uniform(0.5, 6.0, n_users)
        capacities[rng.random(n_users) < 0.1] = 0.0
    costs = rng.choice([0.5, 1.0, 2.0], size=n_tasks) if rng.random() < 0.5 else None
    eligible = None
    if rng.random() < 0.3:
        eligible = rng.random(n_users) < 0.7
        eligible[int(rng.integers(n_users))] = True
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=times,
        capacities=capacities,
        costs=costs,
        eligible=eligible,
    )
    kwargs = {"divide_by_time": bool(rng.random() < 0.6)}
    if rng.random() < 0.3:
        kwargs["cost_budget"] = float(rng.uniform(1.0, n_tasks))
    if rng.random() < 0.2:
        kwargs["active_tasks"] = rng.random(n_tasks) < 0.7
    initial = None
    if rng.random() < 0.3:
        initial = Assignment.empty(n_users, n_tasks)
        remaining = problem.capacities.copy()
        for _ in range(int(rng.integers(1, 20))):
            user = int(rng.integers(n_users))
            task = int(rng.integers(n_tasks))
            if not initial.matrix[user, task] and times[task] <= remaining[user]:
                initial.matrix[user, task] = True
                remaining[user] -= times[task]
    return problem, initial, kwargs


@pytest.mark.parametrize("block", range(4))
def test_ranked_pointer_path_matches_reference_fuzz(block):
    """60 per-task-time instances (4 blocks x 15), both greedy passes
    starting from one ``GreedyState`` (and so sharing its ``rankings``) as
    the allocators do: picks bit-identical, and the state unchanged."""
    rng = np.random.default_rng(2000 + block)
    for _ in range(15):
        problem, initial, kwargs = _per_task_instance(rng)
        state = GreedyState(problem, initial)
        for divide_by_time in (kwargs["divide_by_time"], not kwargs["divide_by_time"]):
            kwargs["divide_by_time"] = divide_by_time
            _assert_matches_reference(problem, initial=initial, state=state, **kwargs)
        _assert_same_state(state, GreedyState(problem, initial))


@pytest.mark.parametrize("seed", range(3))
def test_ranked_pointer_jumps_match_reference(seed):
    """Capacity-1 instances in the benchmark kernel's shape, where most
    re-evaluations find more spent users ahead than the walk bound."""
    rng = np.random.default_rng(3000 + seed)
    domains = rng.integers(0, 8, 400)
    problem = AllocationProblem(
        expertise=rng.gamma(2.0, 2.0, (200, 8))[:, domains],
        processing_times=rng.uniform(0.5, 1.5, 400),
        capacities=np.ones(200),
    )
    lazy = lazy_greedy_allocate(problem)
    assert lazy.added_pairs == reference_greedy_allocate(problem).added_pairs


def test_jump_skips_a_warm_started_user():
    """The vectorised jump must skip users already assigned to the task,
    not only users out of capacity."""
    expertise = np.linspace(3.0, 0.5, 200)[:, None]  # rank order == index order
    capacities = np.full(200, 5.0)
    capacities[:150] = 0.0  # more spent users ahead than the walk bound
    problem = AllocationProblem(
        expertise=expertise, processing_times=np.array([1.0]), capacities=capacities
    )
    initial = Assignment.empty(200, 1)
    initial.matrix[150, 0] = True  # time-feasible, but already on the task
    lazy = lazy_greedy_allocate(problem, initial=initial)
    assert lazy.added_pairs == reference_greedy_allocate(problem, initial=initial).added_pairs


def _rounding_tie(time, capacity_0=2.0, warm_start_0=False):
    """User 0's p is one rounding step below user 1's, and user 2 is the
    clear leader.  Returns the greedy kwargs and whether users 0 and 1
    have equal gains once user 2 has taken the task."""
    problem = AllocationProblem(
        expertise=np.array([[np.nextafter(1.0, 0.0)], [1.0], [3.0]]),
        processing_times=np.array([time]),
        capacities=np.array([capacity_0, 2.0, 2.0]),
    )
    initial = None
    p = problem.accuracy_matrix()[:, 0]
    miss = 1.0
    if warm_start_0:
        initial = Assignment.empty(3, 1)
        initial.matrix[0, 0] = True
        miss *= 1.0 - p[0]
    miss *= 1.0 - p[2]
    assert p[0] < p[1]
    tied = p[0] * miss / time == p[1] * miss / time
    return {"problem": problem, "initial": initial}, tied


def test_rounding_tie_breaks_to_lowest_user_index():
    """A smaller p can round to the leader's gain; np.argmax then takes
    the lower user index, which a tie-break in ranking order would miss."""
    kwargs, tied = _rounding_tie(0.9)
    assert tied
    ref = reference_greedy_allocate(**kwargs)
    assert ref.added_pairs == ((2, 0), (0, 0), (1, 0))
    p = kwargs["problem"].accuracy_matrix()[:, 0]
    ranking = [user for user in np.argsort(-p, kind="stable").tolist() if user != 2]
    assert ranking[0] == 1 != ref.added_pairs[1][0]
    assert lazy_greedy_allocate(**kwargs).added_pairs == ref.added_pairs


@pytest.mark.parametrize(
    "tie",
    [{"time": 0.9, "capacity_0": 0.5}, {"time": 0.8, "warm_start_0": True}],
    ids=["no-capacity", "already-assigned"],
)
def test_rounding_tie_skips_a_lower_index_that_cannot_take_the_task(tie):
    kwargs, tied = _rounding_tie(**tie)
    assert tied
    ref = reference_greedy_allocate(**kwargs)
    assert ref.added_pairs == ((2, 0), (1, 0))
    assert lazy_greedy_allocate(**kwargs).added_pairs == ref.added_pairs


@pytest.mark.parametrize("seed", range(6))
def test_long_walks_after_picks_match_reference(seed):
    """More than ``_WALK_LIMIT`` (128) users, of whom the most skilled
    135-149 have no capacity today: every task's first re-evaluation,
    right after its first pick, walks past them into the vectorised scan,
    which must see the picks made since the numpy copies of the assignment
    and capacity state were last updated (the pick just made included)."""
    rng = np.random.default_rng(5000 + seed)
    n_users = int(rng.integers(150, 221))
    n_tasks = int(rng.integers(40, 161))
    n_domains = int(rng.integers(1, 4))
    domains = rng.integers(0, n_domains, n_tasks)
    skill = rng.gamma(2.0, 2.0, n_users)
    expertise = (skill[:, None] * rng.uniform(0.99, 1.01, (n_users, n_domains)))[:, domains]
    capacities = rng.uniform(2.0, 16.0, n_users)
    capacities[np.argsort(-skill)[: int(rng.integers(135, 150))]] = 0.0
    times = rng.uniform(0.5, 1.5, n_tasks)
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=times,
        capacities=capacities,
        eligible=rng.random(n_users) < 0.95 if seed % 3 == 0 else None,
    )
    initial = None
    if seed >= 3:
        # A warm start puts users on tasks that a later scan must skip.
        initial = Assignment.empty(n_users, n_tasks)
        for user in rng.choice(n_users, size=20, replace=False):
            task = int(rng.integers(n_tasks))
            initial.matrix[user, task] = times[task] <= capacities[user]
    state = GreedyState(problem, initial)
    for divide_by_time in (True, False):
        _assert_matches_reference(
            problem, initial=initial, state=state, divide_by_time=divide_by_time
        )


@dataclass(frozen=True)
class _GivenAccuracy(AllocationProblem):
    """A problem whose Eq. 11 accuracies are given directly, so a test can
    place users' ``p`` a rounding step apart."""

    accuracy: "np.ndarray | None" = None

    def accuracy_matrix(self) -> np.ndarray:
        return self.accuracy


def _at_the_margin(leader: float) -> list:
    """``p`` values around the tie-skip margin below ``leader``."""
    margin = leader * (1.0 - 2.0**-40)
    return [
        leader,
        np.nextafter(leader, 0.0),  # one rounding step below the leader
        np.nextafter(np.nextafter(leader, 0.0), 0.0),
        margin,  # exactly at the margin: the tie scan runs
        np.nextafter(margin, 0.0),  # just past it: the scan is skipped
        np.nextafter(margin, 1.0),
    ]


@pytest.mark.parametrize("block", range(4))
def test_tie_skip_margin_matches_reference_fuzz(block):
    """40 per-task-time instances (4 blocks x 10) whose users' ``p`` sit
    one or two rounding steps below a domain's leader, exactly at the
    tie-skip margin ``p * (1 - 2**-40)`` or one step either side of it,
    in shuffled user order so that a rounding tie must break toward a
    lower user index than the ranking's."""
    rng = np.random.default_rng(6000 + block)
    for _ in range(10):
        n_users = int(rng.integers(8, 160))
        n_tasks = int(rng.integers(5, 60))
        n_domains = int(rng.integers(1, 4))
        columns = np.empty((n_users, n_domains))
        for domain in range(n_domains):
            values = [v for leader in rng.uniform(0.05, 0.95, 2) for v in _at_the_margin(leader)]
            columns[:, domain] = rng.choice(values, size=n_users)
        accuracy = columns[:, rng.integers(0, n_domains, n_tasks)]
        problem = _GivenAccuracy(
            expertise=np.ones((n_users, n_tasks)),
            processing_times=rng.uniform(0.3, 2.0, n_tasks),
            capacities=rng.uniform(0.5, 4.0, n_users),
            costs=rng.choice([0.5, 1.0], size=n_tasks) if rng.random() < 0.3 else None,
            accuracy=accuracy,
        )
        kwargs = {"divide_by_time": bool(rng.random() < 0.7)}
        if rng.random() < 0.3:
            kwargs["cost_budget"] = float(rng.uniform(1.0, n_tasks))
        _assert_matches_reference(problem, state=GreedyState(problem), **kwargs)


def test_tie_scan_runs_when_the_gain_is_subnormal():
    """Past the margin, ``p`` values still round to one gain once the
    task's coverage ``miss`` is subnormal.  User 0's ``p`` is just past
    the margin below the others'; after 21 picks ``miss`` is ``2**-1050``
    and user 0 ties user 22, so ``np.argmax`` takes user 0."""
    leader = 1.0 - 2.0**-50
    accuracy = np.full((23, 1), leader)
    accuracy[0, 0] = np.nextafter(leader * (1.0 - 2.0**-40), 0.0)
    problem = _GivenAccuracy(
        expertise=np.ones((23, 1)),
        processing_times=np.array([1.0]),
        capacities=np.ones(23),
        accuracy=accuracy,
    )
    ref = reference_greedy_allocate(problem)
    assert ref.added_pairs[:22] == tuple((user, 0) for user in [*range(1, 22), 0])
    _assert_matches_reference(problem)


def test_tie_scan_runs_when_gains_overflow():
    """A time so small that every gain overflows to ``inf``: all users
    tie, and after user 0's pick ``np.argmax`` takes user 1, whose ``p``
    is far below the ranking's leader, user 2."""
    problem = _GivenAccuracy(
        expertise=np.ones((3, 1)),
        processing_times=np.array([1e-310]),
        capacities=np.ones(3),
        accuracy=np.array([[0.3], [0.5], [0.9]]),
    )
    with np.errstate(over="ignore"):
        ref = reference_greedy_allocate(problem)
        assert ref.added_pairs == ((0, 0), (1, 0), (2, 0))
        _assert_matches_reference(problem)


def _per_pair_instance(rng):
    """A per-pair-time (spatial) instance at the pipeline's scale, with
    capacities that bind, so the masked-argmax branch of the loop runs
    after every pick and on many refreshes."""
    n_users = int(rng.integers(20, 80))
    n_tasks = int(rng.integers(20, 120))
    domains = rng.integers(0, int(rng.integers(1, 6)), n_tasks)
    expertise = rng.gamma(2.0, 2.0, (n_users, 6))[:, domains]
    if rng.random() < 0.3:
        expertise = np.round(expertise)  # tie-heavy
    times = rng.uniform(0.3, 2.0, (n_users, n_tasks))
    if rng.random() < 0.4:
        times = np.round(times * 2.0) / 2.0 + 0.5
    eligible = rng.random(n_users) < 0.8 if rng.random() < 0.3 else None
    if eligible is not None:
        eligible[int(rng.integers(n_users))] = True
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=times,
        capacities=rng.uniform(0.0, 6.0, n_users),
        costs=rng.choice([0.5, 1.0, 2.0], size=n_tasks) if rng.random() < 0.4 else None,
        eligible=eligible,
    )
    kwargs = {"divide_by_time": bool(rng.random() < 0.7)}
    if rng.random() < 0.3:
        kwargs["cost_budget"] = float(rng.uniform(1.0, n_tasks))
    if rng.random() < 0.2:
        kwargs["active_tasks"] = rng.random(n_tasks) < 0.6
    initial = None
    if rng.random() < 0.3:
        initial = Assignment.empty(n_users, n_tasks)
        remaining = problem.capacities.copy()
        for _ in range(int(rng.integers(1, 30))):
            user, task = int(rng.integers(n_users)), int(rng.integers(n_tasks))
            if not initial.matrix[user, task] and times[user, task] <= remaining[user]:
                initial.matrix[user, task] = True
                remaining[user] -= times[user, task]
    return problem, initial, kwargs


@pytest.mark.parametrize("block", range(3))
def test_per_pair_path_matches_reference_fuzz(block):
    """30 spatial instances (3 blocks x 10), each pass starting from a
    ``GreedyState`` as the allocators' passes do."""
    rng = np.random.default_rng(7000 + block)
    for _ in range(10):
        problem, initial, kwargs = _per_pair_instance(rng)
        state = GreedyState(problem, initial)
        _assert_matches_reference(problem, initial=initial, state=state, **kwargs)
        _assert_same_state(state, GreedyState(problem, initial))


def test_celf_invariant_refresh_never_increases():
    """Submodularity in floats: stale heap values are upper bounds."""
    rng = np.random.default_rng(77)
    for _ in range(40):
        problem, initial, kwargs = _random_instance(rng)
        stats = lazy_greedy_allocate(problem, initial=initial, **kwargs).stats
        assert stats.max_refresh_delta <= 0.0


def test_stats_accounting():
    """Every evaluation is pop-triggered; every pick consumes a fresh pop."""
    rng = np.random.default_rng(99)
    for _ in range(20):
        problem, initial, kwargs = _random_instance(rng)
        outcome = lazy_greedy_allocate(problem, initial=initial, **kwargs)
        stats = outcome.stats
        assert stats.picks == len(outcome.added_pairs)
        assert stats.picks <= stats.pops
        assert stats.evaluations <= stats.pops


@pytest.mark.parametrize("per_pair", [False, True], ids=["per-task-times", "per-pair-times"])
def test_slack_capacities_never_refresh(per_pair):
    """An entry is stale only when its cached user no longer fits.  With
    room for every task on every user no capacity binds, so every pop is
    a pick and the only evaluations are the ones right after a pick."""
    rng = np.random.default_rng(4000 + per_pair)
    n_users, n_tasks = 12, 40
    domains = rng.integers(0, 4, n_tasks)
    problem = AllocationProblem(
        expertise=rng.gamma(2.0, 2.0, (n_users, 4))[:, domains],
        processing_times=rng.uniform(0.5, 1.5, (n_users, n_tasks) if per_pair else n_tasks),
        capacities=np.full(n_users, 1.5 * n_tasks + 1.0),
    )
    lazy = lazy_greedy_allocate(problem)
    stats = lazy.stats
    assert stats.picks > n_tasks
    assert stats.pops == stats.evaluations == stats.picks
    assert lazy.added_pairs == reference_greedy_allocate(problem).added_pairs


def test_lazy_on_domain_structured_instance_is_lazy():
    """On the benchmark's domain structure the kernel must do far fewer
    re-evaluations than the eager loop's ~picks * tasks-per-domain."""
    rng = np.random.default_rng(121314)
    domains = rng.integers(0, 4, 400)
    expertise = rng.gamma(2.0, 2.0, (100, 4))[:, domains]
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=rng.uniform(0.5, 1.5, 400),
        capacities=np.full(100, 1.0),
    )
    outcome = lazy_greedy_allocate(problem)
    ref = reference_greedy_allocate(problem)
    assert outcome.added_pairs == ref.added_pairs
    eager_evaluations = outcome.stats.picks * 100  # ~tasks per domain
    assert outcome.stats.evaluations < eager_evaluations / 2


def _min_cost_instance(rng, index):
    """An Algorithm 2 instance, its allocator and a pure ``observe``.

    ``index`` (position in its block) switches the features on in turn so
    every block has each: per-pair (spatial) times, eligibility masks,
    dropouts (NaN payloads), a round budget below one task's cost, and the
    extra pass on and off; some users always have zero capacity.
    """
    n_users = int(rng.integers(4, 41))
    n_tasks = int(rng.integers(3, 61))
    n_domains = int(rng.integers(1, 5))
    domains = rng.integers(0, n_domains, n_tasks)
    if rng.random() < 0.3:
        levels = rng.choice([0.5, 1.0, 2.0, 3.0], size=(n_users, n_domains))
    else:
        levels = rng.gamma(2.0, 1.5, (n_users, n_domains))
    expertise = levels[:, domains]
    if index % 3 == 0:
        times = rng.uniform(0.3, 2.0, (n_users, n_tasks))
    else:
        times = rng.uniform(0.5, 1.5, n_tasks)
    capacities = rng.uniform(1.0, 8.0, n_users)
    capacities[rng.random(n_users) < 0.15] = 0.0
    capacities[int(rng.integers(n_users))] = 0.0
    eligible = None
    if index % 4 == 1:
        eligible = rng.random(n_users) < 0.7
        eligible[int(rng.integers(n_users))] = True
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=times,
        capacities=capacities,
        costs=rng.choice([0.5, 1.0, 2.0], size=n_tasks) if rng.random() < 0.4 else None,
        eligible=eligible,
    )
    if index % 8 == 7:
        round_budget = 0.5 * float(problem.costs.min())
    else:
        round_budget = float(rng.uniform(1.0, max(2.0, n_tasks / 2)))
    allocator = MinCostAllocator(
        round_budget=round_budget,
        error_limit=float(rng.uniform(0.3, 1.0)),
        confidence=float(rng.choice([0.8, 0.9, 0.95])),
        max_rounds=int(rng.integers(1, 13)),
        extra_pass=index % 2 == 0,
    )
    truths = rng.uniform(0.0, 20.0, n_tasks)
    sigmas = rng.uniform(0.5, 2.0, n_tasks)
    noise = rng.standard_normal((n_users, n_tasks)) * sigmas
    values = truths + noise / np.maximum(expertise, 0.05)
    if index % 3 != 1:
        values[rng.random((n_users, n_tasks)) < 0.2] = np.nan

    def observe(pairs):
        return [values[user, task] for user, task in pairs]

    return problem, allocator, observe


@pytest.mark.parametrize("block", range(4))
def test_min_cost_matches_rebuilt_passes_fuzz(block):
    """32 Algorithm 2 runs (4 blocks x 8) against the loop that rebuilds
    every pass from the running assignment: with the frozen eager greedy,
    every round's pairs, cost and satisfied count and the final assignment,
    truths, sigmas and cost are ``==``; with the live kernel rebuilt each
    pass, so are the merged ``GreedyStats``."""
    rng = np.random.default_rng(8000 + block)
    for index in range(8):
        problem, allocator, observe = _min_cost_instance(rng, index)
        live = allocator.run(problem, observe)
        eager = reference_min_cost_run(allocator, problem, observe)
        assert [
            (r.added_pairs, r.round_cost, r.satisfied_after) for r in live.rounds
        ] == [(r.added_pairs, r.round_cost, r.satisfied_after) for r in eager.rounds]
        assert np.array_equal(live.assignment.matrix, eager.assignment.matrix)
        assert np.array_equal(live.truths, eager.truths, equal_nan=True)
        assert np.array_equal(live.sigmas, eager.sigmas, equal_nan=True)
        assert np.array_equal(live.satisfied, eager.satisfied)
        assert np.array_equal(live.observations.values, eager.observations.values)
        assert np.array_equal(live.observations.mask, eager.observations.mask)
        assert live.total_cost == eager.total_cost
        rebuilt = reference_min_cost_run(allocator, problem, observe, greedy=lazy_greedy_allocate)
        assert live.greedy_stats == rebuilt.greedy_stats
        if index % 8 == 7:
            assert live.rounds == ()


@pytest.mark.parametrize("block", range(2))
def test_carried_state_equals_a_fresh_build(block, monkeypatch):
    """After every Algorithm 2 round the carried ``GreedyState`` is ``==``
    one built from scratch from that round's assignment."""
    advance = GreedyState.advance
    checked = []

    def checked_advance(state, outcome):
        advance(state, outcome)
        assert np.array_equal(state.assigned, outcome.assignment.matrix)
        _assert_same_state(state, GreedyState(state.problem, Assignment(state.assigned.copy())))
        checked.append(outcome)

    monkeypatch.setattr(GreedyState, "advance", checked_advance)
    rng = np.random.default_rng(9000 + block)
    for index in range(8):
        problem, allocator, observe = _min_cost_instance(rng, index)
        allocator.run(problem, observe)
    assert len(checked) > 8


def _fill_instance(rng):
    n_users = int(rng.integers(1, 30))
    n_tasks = int(rng.integers(1, 60))
    if rng.random() < 0.5:
        # Spatial per-pair times, quantized for budgets that land exactly.
        times = rng.choice([0.25, 0.5, 1.0, 1.5], size=(n_users, n_tasks))
    else:
        times = rng.uniform(0.2, 2.0, n_tasks)
    eligible = None
    if rng.random() < 0.4:
        eligible = rng.random(n_users) < 0.6
        if not eligible.any():
            eligible[int(rng.integers(n_users))] = True
    problem = AllocationProblem(
        expertise=np.ones((n_users, n_tasks)),
        processing_times=times,
        capacities=np.ones(n_users),
        eligible=eligible,
    )
    pair_times = problem.pair_times()
    budget = rng.uniform(0.0, 6.0, n_users)
    budget[rng.random(n_users) < 0.2] = 0.0
    # Budgets within 1e-12 of a sum of the user's own task times, so the
    # walk's ``t <= left + 1e-12`` test (and the early stop) sit on the edge.
    edge = rng.random(n_users) < 0.4
    for user in np.flatnonzero(edge):
        picks = rng.choice(n_tasks, size=int(rng.integers(1, min(n_tasks, 4) + 1)), replace=False)
        offset = rng.choice([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12])
        budget[user] = max(0.0, float(pair_times[user, picks].sum()) + offset)
    return problem, budget


@pytest.mark.parametrize("block", range(4))
def test_random_first_fit_matches_reference_fuzz(block):
    """200 randomized fills (4 blocks x 50): matrix and generator state ==."""
    rng = np.random.default_rng(3000 + block)
    for _ in range(50):
        problem, budget = _fill_instance(rng)
        seed = int(rng.integers(2**32))
        fast_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = random_first_fit(problem, budget, fast_rng)
        reference = reference_random_first_fit(problem, budget, reference_rng)
        assert np.array_equal(fast.matrix, reference.matrix)
        assert fast_rng.bit_generator.state == reference_rng.bit_generator.state


def test_random_first_fit_takes_a_pair_that_fits_within_tolerance():
    """A task longer than the budget by less than 1e-12 still fits; the
    early stop must not cut it off."""
    problem = AllocationProblem(
        expertise=np.ones((1, 3)),
        processing_times=np.array([1.0, 1.0 + 5e-13, 3.0]),
        capacities=np.ones(1),
    )
    for seed in range(6):
        fast = random_first_fit(problem, np.array([1.0]), np.random.default_rng(seed))
        reference = reference_random_first_fit(
            problem, np.array([1.0]), np.random.default_rng(seed)
        )
        assert np.array_equal(fast.matrix, reference.matrix)
        assert fast.matrix.sum() == 1


def test_random_first_fit_with_no_tasks():
    problem = AllocationProblem(
        expertise=np.ones((3, 0)), processing_times=np.ones(0), capacities=np.ones(3)
    )
    fast_rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
    fast = random_first_fit(problem, problem.capacities, fast_rng)
    reference = reference_random_first_fit(problem, problem.capacities, reference_rng)
    assert fast.matrix.shape == reference.matrix.shape == (3, 0)
    assert fast_rng.bit_generator.state == reference_rng.bit_generator.state
