"""Tests for the ETA2System closed loop (Figure 1)."""

import numpy as np
import pytest

from repro.core.pipeline import (
    ETA2System,
    IncomingTask,
    _shared_default_embedding,
    default_embedding,
)
from repro.semantics.embeddings.cooccurrence import PPMISVDEmbedding
from repro.semantics.embeddings.corpus import generate_topical_corpus
from repro.semantics.vocab import DOMAIN_VOCABULARIES


def _known_domain_tasks(rng, count, n_domains=3):
    return [
        IncomingTask(
            processing_time=float(rng.uniform(0.5, 1.5)),
            domain=int(rng.integers(n_domains)),
        )
        for _ in range(count)
    ]


def _text_tasks(rng, count):
    from repro.datasets.templates import generate_question

    tasks = []
    for _ in range(count):
        domain = DOMAIN_VOCABULARIES[int(rng.integers(len(DOMAIN_VOCABULARIES)))]
        question, _, _ = generate_question(domain, rng)
        tasks.append(IncomingTask(processing_time=float(rng.uniform(0.5, 1.5)), description=question))
    return tasks


class _SyntheticWorld:
    """A tiny ground-truth world for driving the pipeline in tests."""

    def __init__(self, n_users, n_domains, seed=0):
        self.rng = np.random.default_rng(seed)
        self.expertise = self.rng.uniform(0.3, 3.0, (n_users, n_domains))
        self.truths = {}

    def observe_factory(self, tasks):
        truths = self.rng.uniform(0.0, 20.0, len(tasks))
        sigmas = self.rng.uniform(0.5, 2.0, len(tasks))
        domains = np.array([task.domain for task in tasks])

        def observe(pairs):
            return [
                truths[task]
                + self.rng.standard_normal() * sigmas[task] / self.expertise[user, domains[task]]
                for user, task in pairs
            ]

        return observe, truths, sigmas


@pytest.fixture
def system():
    rng = np.random.default_rng(1)
    capacities = rng.uniform(6.0, 10.0, 20)
    return ETA2System(n_users=20, capacities=capacities, gamma=0.3, alpha=0.5, seed=3)


def test_requires_warmup_before_step(system):
    rng = np.random.default_rng(2)
    tasks = _known_domain_tasks(rng, 5)
    with pytest.raises(RuntimeError):
        system.step(tasks, lambda pairs: [0.0] * len(pairs))


def test_warmup_then_steps_with_known_domains(system):
    rng = np.random.default_rng(3)
    world = _SyntheticWorld(20, 3, seed=4)

    tasks = _known_domain_tasks(rng, 20)
    observe, truths, sigmas = world.observe_factory(tasks)
    warm = system.warmup(tasks, observe)
    assert system.is_warmed_up
    assert warm.task_domains.shape == (20,)
    warm_error = np.nanmean(np.abs(warm.truths - truths) / sigmas)

    errors = [warm_error]
    for _ in range(3):
        tasks = _known_domain_tasks(rng, 20)
        observe, truths, sigmas = world.observe_factory(tasks)
        step = system.step(tasks, observe)
        errors.append(float(np.nanmean(np.abs(step.truths - truths) / sigmas)))
    assert errors[-1] < errors[0]
    assert len(system.iteration_log) == 4


def test_double_warmup_rejected(system):
    rng = np.random.default_rng(5)
    world = _SyntheticWorld(20, 3, seed=6)
    tasks = _known_domain_tasks(rng, 10)
    observe, _, _ = world.observe_factory(tasks)
    system.warmup(tasks, observe)
    with pytest.raises(RuntimeError):
        system.warmup(tasks, observe)


def test_text_tasks_are_clustered(system):
    rng = np.random.default_rng(7)
    tasks = _text_tasks(rng, 24)
    observe = lambda pairs: [float(rng.normal(10.0, 1.0)) for _ in pairs]
    result = system.warmup(tasks, observe)
    assert result.task_domains.shape == (24,)
    assert len(result.new_domains) >= 2  # several topical domains appear
    # Follow-up step classifies new text tasks into existing domains.
    more = _text_tasks(rng, 12)
    step = system.step(more, observe)
    assert step.task_domains.shape == (12,)


def test_mixed_batch_rejected(system):
    rng = np.random.default_rng(8)
    tasks = _known_domain_tasks(rng, 2) + _text_tasks(rng, 2)
    with pytest.raises(ValueError):
        system.warmup(tasks, lambda pairs: [0.0] * len(pairs))


def test_min_cost_mode_runs_and_reports_cost():
    rng = np.random.default_rng(9)
    capacities = rng.uniform(8.0, 12.0, 15)
    system = ETA2System(
        n_users=15,
        capacities=capacities,
        allocator="min-cost",
        min_cost_round_budget=30.0,
        seed=10,
    )
    world = _SyntheticWorld(15, 3, seed=11)
    tasks = _known_domain_tasks(rng, 15)
    observe, _, _ = world.observe_factory(tasks)
    system.warmup(tasks, observe)
    tasks = _known_domain_tasks(rng, 15)
    observe, _, _ = world.observe_factory(tasks)
    result = system.step(tasks, observe)
    assert result.allocation_cost > 0
    assert result.pair_count == result.observations.observation_count


@pytest.mark.parametrize("extra_pass", [True, False])
def test_min_cost_rounds_follow_extra_greedy_pass(monkeypatch, extra_pass):
    # ETA2System(extra_greedy_pass=...) drives ETA2-mc's rounds too: off
    # means one (efficiency) greedy pass per round, on adds the cardinality
    # pass to every round.
    from repro.core.allocation import max_quality

    passes = []
    greedy = max_quality.lazy_greedy_allocate

    def counting_greedy(*args, **kwargs):
        passes.append(kwargs["divide_by_time"])
        return greedy(*args, **kwargs)

    monkeypatch.setattr(max_quality, "lazy_greedy_allocate", counting_greedy)
    rng = np.random.default_rng(9)
    system = ETA2System(
        n_users=15,
        capacities=rng.uniform(8.0, 12.0, 15),
        allocator="min-cost",
        min_cost_round_budget=30.0,
        extra_greedy_pass=extra_pass,
        seed=10,
    )
    world = _SyntheticWorld(15, 3, seed=11)
    tasks = _known_domain_tasks(rng, 15)
    system.warmup(tasks, world.observe_factory(tasks)[0])
    tasks = _known_domain_tasks(rng, 15)
    system.step(tasks, world.observe_factory(tasks)[0])
    efficiency = passes.count(True)
    assert efficiency > 1
    assert passes.count(False) == (efficiency if extra_pass else 0)


def test_incoming_task_validation():
    with pytest.raises(ValueError):
        IncomingTask(processing_time=0.0, domain=0)
    with pytest.raises(ValueError):
        IncomingTask(processing_time=1.0)  # neither description nor domain
    with pytest.raises(ValueError):
        IncomingTask(processing_time=1.0, description="x", domain=1)  # both
    with pytest.raises(ValueError):
        IncomingTask(processing_time=1.0, domain=0, cost=-1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ETA2System(n_users=2, capacities=[1.0])  # wrong length
    with pytest.raises(ValueError):
        ETA2System(n_users=1, capacities=[1.0], allocator="nope")


def test_default_embedding_is_deterministic():
    a = default_embedding(dim=16, seed=0)
    b = default_embedding(dim=16, seed=0)
    assert np.array_equal(a.vector("decibel"), b.vector("decibel"))


def test_default_embedding_is_shared_per_dim_and_seed():
    shared = default_embedding(32, 0)
    assert default_embedding(dim=32, seed=0) is shared
    assert default_embedding(seed=np.int64(0)) is shared
    assert default_embedding(np.int64(32), 0) is shared
    assert default_embedding(16, 0) is not shared
    assert default_embedding(32, 1) is not shared
    with pytest.raises(TypeError):
        default_embedding(32.7, 0)


@pytest.mark.parametrize("make_seed", [lambda: None, lambda: np.random.default_rng(5)], ids=["none", "generator"])
def test_default_embedding_without_integer_seed_trains_fresh(make_seed):
    shared = default_embedding(16, 0)
    cached = _shared_default_embedding.cache_info().currsize
    assert default_embedding(16, make_seed()) is not shared
    assert _shared_default_embedding.cache_info().currsize == cached


def test_default_embedding_consumes_generator_as_before():
    rng, expected_rng = np.random.default_rng(5), np.random.default_rng(5)
    model = default_embedding(16, rng)
    expected = PPMISVDEmbedding(generate_topical_corpus(seed=expected_rng).sentences, dim=16)
    assert np.array_equal(model.vector("decibel"), expected.vector("decibel"))
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("word", ["decibel", "no-such-word"], ids=["trained", "oov"])
def test_shared_default_embedding_is_read_only(word):
    model = default_embedding()
    assert model.has_word(word) == (word == "decibel")
    with pytest.raises(ValueError):
        model.vector(word)[0] = 1.0


def test_shared_default_embedding_matches_fresh_training():
    corpus = generate_topical_corpus(seed=0)
    fresh = PPMISVDEmbedding(corpus.sentences, dim=32)
    shared = default_embedding()
    words = {word for sentence in corpus.sentences for word in sentence}
    assert shared.vocabulary_size == fresh.vocabulary_size == len(words)
    for word in words:
        assert np.array_equal(shared.vector(word), fresh.vector(word))


def test_expertise_matrix_grows_with_domains(system):
    rng = np.random.default_rng(12)
    world = _SyntheticWorld(20, 4, seed=13)
    tasks = _known_domain_tasks(rng, 16, n_domains=4)
    observe, _, _ = world.observe_factory(tasks)
    system.warmup(tasks, observe)
    matrix = system.expertise_matrix()
    assert set(matrix.domain_ids) <= {0, 1, 2, 3}
    assert matrix.n_users == 20
