"""Tests for the decayed incremental expertise update (Eqs. 7-9)."""

import dataclasses
import logging

import numpy as np
import pytest

import repro.core.update as update_module
from repro.core.expertise import DEFAULT_EXPERTISE, EXPERTISE_PRIOR_STRENGTH
from repro.core.pipeline import ETA2System
from repro.core.serialization import state_fingerprint, updater_from_dict, updater_to_dict
from repro.core.truth import TruthAnalysisResult, estimate_truth
from repro.core.update import ExpertiseUpdater, IncorporateResult
from repro.truthdiscovery.base import ObservationMatrix


def _batch(rng, expertise, domains, n_tasks, density=0.5):
    n_users = expertise.shape[0]
    truths = rng.uniform(0.0, 20.0, n_tasks)
    sigmas = rng.uniform(0.5, 5.0, n_tasks)
    mask = rng.random((n_users, n_tasks)) < density
    noise = rng.standard_normal((n_users, n_tasks))
    values = truths[None, :] + noise * sigmas[None, :] / expertise[:, domains]
    return ObservationMatrix(values=np.where(mask, values, 0.0), mask=mask), truths, sigmas


@pytest.fixture
def setup():
    rng = np.random.default_rng(0)
    true_expertise = rng.uniform(0.3, 3.0, (30, 3))
    return rng, true_expertise


def test_unknown_domain_reads_default():
    updater = ExpertiseUpdater(n_users=4, alpha=0.5)
    column = updater.expertise_column(99)
    assert np.all(column == DEFAULT_EXPERTISE)


def test_domain_expertise_is_the_eq9_block_of_the_tasks_domains(setup):
    """One column per distinct domain (sorted ids) and each task's index
    into it: the snapshot's Eq. 9 values where registered, the default
    elsewhere, and no domain registered."""
    rng, true_expertise = setup
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    domains = rng.integers(0, 3, 40)
    updater.incorporate(_batch(rng, true_expertise, domains, 40)[0], domains)
    updater.ensure_domain(4)
    snapshot = updater.expertise_matrix()
    state = updater_to_dict(updater)

    expertise, columns = updater.domain_expertise([7, 2, 4, 0, 2])
    assert expertise.shape == (30, 4)
    assert columns.tolist() == [3, 1, 2, 0, 1]
    for k, domain_id in enumerate([0, 2, 4]):
        assert np.array_equal(expertise[:, k], snapshot.column(domain_id))
    assert np.all(snapshot.column(4) == DEFAULT_EXPERTISE)
    assert np.all(expertise[:, 3] == DEFAULT_EXPERTISE)  # domain 7: not registered
    assert updater.domain_ids == [0, 1, 2, 4]
    assert updater_to_dict(updater) == state

    empty, columns = updater.domain_expertise([])
    assert empty.shape == (30, 0) and columns.shape == (0,)


def test_seed_from_batch_initialises_history(setup):
    rng, true_expertise = setup
    domains = rng.integers(0, 3, 60)
    obs, _, _ = _batch(rng, true_expertise, domains, 60)
    result = estimate_truth(obs, domains)
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    updater.seed_from_batch(obs, domains, result)
    assert updater.domain_ids == [0, 1, 2]
    matrix = updater.expertise_matrix()
    correlation = np.corrcoef(
        np.hstack([matrix.column(k) for k in range(3)]),
        true_expertise.T.ravel(),
    )[0, 1]
    assert correlation > 0.3


def test_incorporate_improves_expertise_over_steps(setup):
    rng, true_expertise = setup
    updater = ExpertiseUpdater(n_users=30, alpha=0.8)
    correlations = []
    for _ in range(4):
        domains = rng.integers(0, 3, 40)
        obs, _, _ = _batch(rng, true_expertise, domains, 40)
        updater.incorporate(obs, domains)
        matrix = updater.expertise_matrix()
        estimated = np.hstack([matrix.column(k) for k in range(3)])
        correlations.append(np.corrcoef(estimated, true_expertise.T.ravel())[0, 1])
    assert correlations[-1] > correlations[0]
    assert correlations[-1] > 0.5


def test_incorporate_estimates_new_task_truths(setup):
    rng, true_expertise = setup
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    domains = rng.integers(0, 3, 50)
    obs, truths, sigmas = _batch(rng, true_expertise, domains, 50)
    result = updater.incorporate(obs, domains)
    error = np.nanmean(np.abs(result.truths - truths) / sigmas)
    assert error < 0.5
    assert result.converged
    assert result.task_expertise.shape == (30, 50)
    expertise, columns = updater.domain_expertise(domains)
    assert np.array_equal(result.task_expertise, expertise[:, columns])


def test_preview_mode_leaves_state_untouched(setup):
    rng, true_expertise = setup
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    domains = rng.integers(0, 3, 30)
    obs, _, _ = _batch(rng, true_expertise, domains, 30)
    updater.incorporate(obs, domains)
    before = {d: updater.expertise_column(d).copy() for d in updater.domain_ids}
    domains2 = rng.integers(0, 3, 30)
    obs2, _, _ = _batch(rng, true_expertise, domains2, 30)
    updater.incorporate(obs2, domains2, commit=False)
    after = {d: updater.expertise_column(d) for d in updater.domain_ids}
    for domain_id in before:
        assert np.array_equal(before[domain_id], after[domain_id])


def test_decay_reduces_history_weight(setup):
    """With alpha = 0 only the newest step matters."""
    rng, true_expertise = setup
    fast = ExpertiseUpdater(n_users=30, alpha=0.0)
    domains = rng.integers(0, 3, 40)
    obs, _, _ = _batch(rng, true_expertise, domains, 40)
    fast.incorporate(obs, domains)
    first_counts = updater_to_dict(fast)["numerators"]
    first = {d: fast.expertise_column(d).copy() for d in fast.domain_ids}
    # Re-incorporating an identical batch with alpha = 0: the decayed
    # history vanishes, so the observation *counts* are reproduced exactly.
    # The expertise matches only approximately because the alternating
    # iteration starts from the learned values the second time and stops at
    # the paper's 5% truth-convergence criterion.
    fast.incorporate(obs, domains)
    assert updater_to_dict(fast)["numerators"] == first_counts
    for domain_id in first:
        assert np.allclose(first[domain_id], fast.expertise_column(domain_id), rtol=0.15)


def test_merge_domains_combines_sums(setup):
    rng, true_expertise = setup
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    domains = rng.integers(0, 2, 40)
    obs, _, _ = _batch(rng, true_expertise, domains, 40)
    updater.incorporate(obs, domains)
    before = updater_to_dict(updater)
    updater.merge_domains(0, 1)
    after = updater_to_dict(updater)
    assert updater.domain_ids == [0]
    for sums in ("numerators", "denominators"):
        assert list(after[sums]) == ["0"]
        assert np.array_equal(
            after[sums]["0"], np.add(before[sums]["0"], before[sums]["1"])
        )


def test_merge_validation():
    updater = ExpertiseUpdater(n_users=2)
    with pytest.raises(ValueError):
        updater.merge_domains(1, 1)
    # Merging an unseen domain is a no-op beyond registering `kept`.
    updater.merge_domains(0, 99)
    assert updater.domain_ids == [0]


def test_constructor_validation():
    with pytest.raises(ValueError):
        ExpertiseUpdater(n_users=0)
    with pytest.raises(ValueError):
        ExpertiseUpdater(n_users=2, alpha=1.5)


def test_incorporate_input_validation(setup):
    rng, true_expertise = setup
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    domains = rng.integers(0, 3, 10)
    obs, _, _ = _batch(rng, true_expertise, domains, 10)
    with pytest.raises(ValueError):
        updater.incorporate(obs, domains[:-1])
    wrong_users = ObservationMatrix(values=np.zeros((5, 10)), mask=np.ones((5, 10), bool))
    with pytest.raises(ValueError):
        updater.incorporate(wrong_users, domains)


def test_zero_max_iterations_rejected_before_state_changes(setup):
    rng, true_expertise = setup
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    domains = rng.integers(0, 2, 20)
    obs, _, _ = _batch(rng, true_expertise, domains, 20)
    updater.incorporate(obs, domains)
    before = updater_to_dict(updater)
    new_domains = np.full(20, 5)
    for max_iterations in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            updater.incorporate(obs, new_domains, max_iterations=max_iterations)
    assert updater.domain_ids == [0, 1]
    assert updater_to_dict(updater) == before


def _brute_force_sums(observations, domains, truths, sigmas):
    """Eq. 7-8 fresh sums per domain, each added term by term in task order.

    An explicit loop per (user, domain) over the domain's observed tasks in
    ascending order, so the order it pins does not rest on how NumPy lays
    out or reduces an array.
    """
    mask = observations.mask
    safe_truths = np.where(np.isnan(truths), 0.0, truths)
    normalised_sq = ((observations.values - safe_truths) / sigmas) ** 2
    sums = {}
    for domain_id in np.unique(domains).tolist():
        tasks = np.flatnonzero(domains == domain_id)
        counts, denominators = np.zeros(mask.shape[0]), np.zeros(mask.shape[0])
        for user in range(mask.shape[0]):
            count, denominator = 0.0, 0.0
            for task in tasks.tolist():
                if mask[user, task]:
                    count += 1.0
                    denominator += float(normalised_sq[user, task])
            counts[user], denominators[user] = count, denominator
        sums[domain_id] = (counts, denominators)
    return sums


def _assert_committed_sums(updater, before, fresh, alpha):
    """Each domain's sums are ``alpha * before + fresh`` (idle domains keep theirs)."""
    state = updater_to_dict(updater)
    zeros = np.zeros(updater.n_users)
    for domain_id in updater.domain_ids:
        key = str(domain_id)
        prev_n = np.asarray(before["numerators"].get(key, zeros))
        prev_d = np.asarray(before["denominators"].get(key, zeros))
        if domain_id in fresh:
            fresh_n, fresh_d = fresh[domain_id]
            want_n, want_d = alpha * prev_n + fresh_n, alpha * prev_d + fresh_d
        else:
            want_n, want_d = prev_n, prev_d
        assert state["numerators"][key] == want_n.tolist()
        assert state["denominators"][key] == want_d.tolist()


def test_running_sums_match_brute_force_exactly(setup):
    """Warm-up seed, a merge and a committed step reproduce Eqs. 7-8 with ``==``.

    Pins the summation order of the N/D sums (not just their value): each
    (user, domain) sum adds its terms one at a time in ascending task order,
    as the scatter-sum over the row-major observed entries does.  The golden
    fingerprints depend on every last bit of them.
    """
    rng, true_expertise = setup
    alpha = 0.6
    system = ETA2System(n_users=30, capacities=np.full(30, 8.0), alpha=alpha, seed=0)
    updater = system._updater

    warm_domains = rng.integers(0, 4, 150)
    warm, _, _ = _batch(rng, true_expertise[:, [0, 1, 2, 0]], warm_domains, 150, density=0.3)
    batch = estimate_truth(warm, warm_domains)
    updater.seed_from_batch(warm, warm_domains, batch)
    expected = _brute_force_sums(warm, warm_domains, batch.truths, batch.sigmas)
    state = updater_to_dict(updater)
    assert state["numerators"] == {str(d): n.tolist() for d, (n, _) in expected.items()}
    assert state["denominators"] == {str(d): ds.tolist() for d, (_, ds) in expected.items()}

    updater.merge_domains(0, 3)
    merged = updater_to_dict(updater)
    assert updater.domain_ids == [0, 1, 2]

    # The step touches two known domains and a new one; domain 1 is idle.
    day_domains = rng.choice([0, 2, 7], 200)
    day, _, _ = _batch(rng, true_expertise[:, [0, 0, 2, 0, 0, 0, 0, 1]], day_domains, 200)
    preview = updater.incorporate(day, day_domains, commit=False)
    assert updater.domain_ids == [0, 1, 2, 7]  # a preview registers new domains
    result = updater.incorporate(day, day_domains)
    assert np.array_equal(result.truths, preview.truths, equal_nan=True)
    fresh = _brute_force_sums(day, day_domains, result.truths, result.sigmas)
    _assert_committed_sums(updater, merged, fresh, alpha)

    fingerprint = state_fingerprint(system)
    later, _, _ = _batch(rng, true_expertise[:, [0, 0, 2, 0, 0, 0, 0, 1]], day_domains, 200)
    updater.incorporate(later, day_domains, commit=False)
    assert state_fingerprint(system) == fingerprint


@pytest.mark.parametrize("n_users", [1, 30], ids=["one-user", "thirty-users"])
def test_sums_of_a_domain_with_more_than_128_tasks_add_in_task_order(n_users):
    """A seed and a committed step whose main domain has more than 128 tasks.

    NumPy sums a contiguous row pairwise (eight partial sums, then blocks
    of 128), so any layout that hands it one would break this.  A one-user
    updater's sums were such rows before the Eq. 8 scatter-sum: they were
    pairwise and changed in their last bits when they became sequential,
    like every other updater's.
    """
    rng = np.random.default_rng(3)
    alpha = 0.5
    true_expertise = rng.uniform(0.3, 3.0, (n_users, 10))
    updater = ExpertiseUpdater(n_users=n_users, alpha=alpha)

    warm_domains = rng.permutation(np.repeat([4, 9], [300, 20]))
    warm, truths, sigmas = _batch(rng, true_expertise, warm_domains, 320, density=0.7)
    batch = TruthAnalysisResult(
        truths=truths,
        sigmas=sigmas,
        expertise=np.ones((n_users, 2)),
        domain_ids=(4, 9),
        iterations=1,
        converged=True,
    )
    updater.seed_from_batch(warm, warm_domains, batch)
    fresh = _brute_force_sums(warm, warm_domains, truths, sigmas)
    _assert_committed_sums(updater, {"numerators": {}, "denominators": {}}, fresh, alpha)

    seeded = updater_to_dict(updater)
    day_domains = rng.permutation(np.repeat([4, 6], [200, 30]))
    day, _, _ = _batch(rng, true_expertise, day_domains, 230, density=0.7)
    result = updater.incorporate(day, day_domains)
    fresh = _brute_force_sums(day, day_domains, result.truths, result.sigmas)
    _assert_committed_sums(updater, seeded, fresh, alpha)


def test_seed_from_batch_rejects_misfit_inputs_before_state_changes(setup):
    rng, true_expertise = setup
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    domains = rng.integers(0, 3, 6)
    obs, _, _ = _batch(rng, true_expertise, domains, 6)
    result = estimate_truth(obs, domains)
    updater.seed_from_batch(obs, domains, result)
    before_ids, before = updater.domain_ids, updater_to_dict(updater)

    seven_labels = np.array([0, 1, 2, 0, 1, 2, 9])
    five_users = ObservationMatrix(values=np.zeros((5, 6)), mask=np.ones((5, 6), bool))
    short = dataclasses.replace(result, truths=result.truths[:-1])
    for observations, labels, batch in (
        (obs, seven_labels, result),
        (five_users, np.full(6, 9), result),
        (obs, np.full(6, 9), short),
        (obs, np.full(6, 9), dataclasses.replace(result, sigmas=result.sigmas[:-1])),
    ):
        with pytest.raises(ValueError):
            updater.seed_from_batch(observations, labels, batch)
    assert updater.domain_ids == before_ids
    assert updater_to_dict(updater) == before


class _EventLog:
    """A minimal enabled tracer recording every event it is handed."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event_type, **fields):
        self.events.append((event_type, sorted(fields.items())))


@pytest.fixture
def solve_count(monkeypatch):
    """How many Section 4.2 solves the updater has run (a one-item list)."""
    count = [0]
    original = update_module._solve

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(update_module, "_solve", counting)
    return count


@pytest.fixture
def days_used(monkeypatch):
    """Every day-constants object the updaters hand their solves, in order."""
    used = []
    original = ExpertiseUpdater._day_for

    def recording(self, task_domains):
        used.append(original(self, task_domains))
        return used[-1]

    monkeypatch.setattr(ExpertiseUpdater, "_day_for", recording)
    return used


@pytest.fixture
def day(setup):
    """A seeded updater's inputs: warm-up batch and result, and one day.

    The day has ~15 % junk values and one domain (3) the warm-up never saw.
    """
    rng, true_expertise = setup
    warm_domains = rng.integers(0, 3, 60)
    warm, _, _ = _batch(rng, true_expertise, warm_domains, 60)
    day_domains = rng.integers(0, 4, 40)
    observations, truths, sigmas = _batch(
        rng, true_expertise[:, [0, 1, 2, 0]], day_domains, 40
    )
    junk = observations.mask & (rng.random(observations.mask.shape) < 0.15)
    values = np.where(junk, truths + 8.0 * sigmas, observations.values)
    observations = ObservationMatrix(values=values, mask=observations.mask)
    return warm, warm_domains, estimate_truth(warm, warm_domains), observations, day_domains


def _seeded(warm, warm_domains, batch):
    updater = ExpertiseUpdater(n_users=30, alpha=0.5)
    updater.seed_from_batch(warm, warm_domains, batch)
    return updater


def _recorded_commit(updater, observations, domains, caplog, **options):
    """Commit with a tracer; the result, its events and its warning records."""
    log = _EventLog()
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        result = updater.incorporate(observations, domains, tracer=log, **options)
    warnings = [(record.levelno, record.getMessage()) for record in caplog.records]
    return result, log.events, warnings


def _assert_same_result(left: IncorporateResult, right: IncorporateResult):
    for field in dataclasses.fields(IncorporateResult):
        a, b = getattr(left, field.name), getattr(right, field.name)
        if isinstance(a, np.ndarray) or isinstance(a, float):
            assert np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize(
    "options, converged",
    [({}, True), ({"max_iterations": 1}, False)],
    ids=["plain", "non-converged"],
)
def test_commit_of_the_previewed_matrix_reuses_the_preview(
    day, caplog, solve_count, options, converged
):
    """Preview then commit of one matrix == a fresh updater's direct commit:
    the same sums (``==``), result fields, ``mle.*`` events and warnings,
    from a single solve."""
    warm, warm_domains, batch, observations, domains = day
    fresh = _seeded(warm, warm_domains, batch)
    expected, expected_events, expected_warnings = _recorded_commit(
        fresh, observations, domains, caplog, **options
    )
    assert expected.converged == converged
    assert any(event == "mle.iteration" for event, _ in expected_events)
    assert bool(expected_warnings) == (not converged)

    updater = _seeded(warm, warm_domains, batch)
    solve_count[0] = 0
    updater.incorporate(observations, domains, commit=False, **options)
    # Equal domain labels in a new array still match.
    result, events, warnings = _recorded_commit(
        updater, observations, domains.copy(), caplog, **options
    )
    assert solve_count[0] == 1
    assert updater_to_dict(updater) == updater_to_dict(fresh)
    _assert_same_result(result, expected)
    assert repr(events) == repr(expected_events)  # NaN deltas compare by repr
    assert warnings == expected_warnings
    # The commit consumed the preview: committing again solves again.
    updater.incorporate(observations, domains, **options)
    assert solve_count[0] == 2


def _change_matrix(updater, observations, domains):
    copy = ObservationMatrix(values=observations.values.copy(), mask=observations.mask.copy())
    return copy, domains, {}


def _change_domains(updater, observations, domains):
    changed = domains.copy()
    changed[0] = (changed[0] + 1) % 3
    return observations, changed, {}


def _change_iterations(updater, observations, domains):
    return observations, domains, {"max_iterations": 1}


def _merge(updater, observations, domains):
    updater.merge_domains(0, 1)
    return observations, domains, {}


def _new_domain(updater, observations, domains):
    updater.ensure_domain(9)
    return observations, domains, {}


def _known_domain(updater, observations, domains):
    updater.ensure_domain(0)  # already registered: no change, the preview stays
    return observations, domains, {}


def _commit(updater, observations, domains):
    updater.incorporate(observations, domains)
    return observations, domains, {}


def _reseed(updater, observations, domains):
    # The day's own tasks, so only the dropped constants tell the sums changed.
    updater.seed_from_batch(observations, domains, estimate_truth(observations, domains))
    return observations, domains, {}


@pytest.mark.parametrize(
    "between, reused, fresh_day",
    [
        (_change_matrix, False, False),
        (_change_domains, False, True),
        (_change_iterations, False, False),
        (_merge, False, True),
        (_new_domain, False, True),
        (_reseed, False, True),
        (_commit, False, True),
        (_known_domain, True, False),
    ],
    ids=[
        "other-matrix",
        "other-domains",
        "other-iterations",
        "merge",
        "new-domain",
        "seed",
        "commit",
        "known-domain",
    ],
)
def test_commit_solves_again_when_anything_changed_since_the_preview(
    day, solve_count, days_used, between, reused, fresh_day
):
    """A changed input or a mutated updater discards the preview; either way
    the commit equals the same sequence run without the preview, and the
    same commit on an updater restored from the state the change left.
    Other domains and every change to the sums or columns also drop the
    day's constants, so the commit starts from constants built after the
    change; another matrix or iteration cap over the same tasks keeps
    them."""
    warm, warm_domains, batch, observations, domains = day
    plain = _seeded(warm, warm_domains, batch)
    commit_obs, commit_domains, options = between(plain, observations, domains)
    expected = plain.incorporate(commit_obs, commit_domains, **options)

    updater = _seeded(warm, warm_domains, batch)
    updater.incorporate(observations, domains, commit=False)
    preview_day = days_used[-1]
    solve_count[0] = 0
    commit_obs, commit_domains, options = between(updater, observations, domains)
    restored = updater_from_dict(updater_to_dict(updater))
    result = updater.incorporate(commit_obs, commit_domains, **options)
    assert solve_count[0] == (0 if reused else 1)
    assert (days_used[-1] is not preview_day) == fresh_day
    assert updater_to_dict(updater) == updater_to_dict(plain)
    _assert_same_result(result, expected)
    _assert_same_result(result, restored.incorporate(commit_obs, commit_domains, **options))
    assert updater_to_dict(updater) == updater_to_dict(restored)


@pytest.mark.parametrize(
    "options", [{}, {"max_iterations": 1}], ids=["plain", "non-converged"]
)
def test_preview_sequence_equals_fresh_previews(day, solve_count, days_used, options):
    """Algorithm 2's rounds on one updater: the matrix grows by
    ``with_pairs`` each round and every round is previewed.  Each preview
    is ``==``, field by field, to the same preview on a freshly seeded
    updater, and so is the day's commit (result and sums); the day's
    constants are built once for all of them."""
    warm, warm_domains, batch, observations, domains = day
    users, tasks = np.nonzero(observations.mask)
    rounds = np.array_split(np.random.default_rng(3).permutation(users.size), 4)
    n_users, n_tasks = observations.mask.shape
    matrix = ObservationMatrix(
        values=np.zeros((n_users, n_tasks)), mask=np.zeros((n_users, n_tasks), dtype=bool)
    )
    updater = _seeded(warm, warm_domains, batch)
    solve_count[0] = 0
    for picked in rounds:
        matrix = matrix.with_pairs(
            users[picked], tasks[picked], observations.values[users[picked], tasks[picked]]
        )
        result = updater.incorporate(matrix, domains, commit=False, **options)
        sequence_day = days_used[-1]
        expected = _seeded(warm, warm_domains, batch).incorporate(
            matrix, domains, commit=False, **options
        )
        _assert_same_result(result, expected)
    assert solve_count[0] == 2 * len(rounds)
    assert np.array_equal(matrix.mask, observations.mask)

    committed = updater.incorporate(matrix, domains, **options)
    fresh = _seeded(warm, warm_domains, batch)
    _assert_same_result(committed, fresh.incorporate(matrix, domains, **options))
    assert updater_to_dict(updater) == updater_to_dict(fresh)
    assert solve_count[0] == 2 * len(rounds) + 1  # the commit reused the last preview
    assert sum(used is sequence_day for used in days_used) == len(rounds) + 1
