"""Microbenchmarks: wall-clock scaling of the core algorithmic kernels.

Unlike the figure benchmarks (one-shot, correctness-asserting), these time
the hot kernels across input sizes with repeated rounds — the numbers a
systems reviewer would ask for.  Rough complexity targets:

- batch MLE: O(iterations x observed entries) since the sparse rewrite,
- Algorithm 1 greedy: O(K (m + n)) pair selections,
- average-linkage clustering: O(merges x clusters^2) vectorised,
- SGNS training: O(epochs x pairs x dim).

Setting ``REPRO_BENCH_QUICK=1`` shrinks every size for CI smoke runs (the
committed full-size record lives in ``BENCH_core.json``; see
``repro.perf.baseline``).
"""

import os

import numpy as np
import pytest

from repro.clustering import hierarchical_clustering
from repro.clustering.dynamic import DynamicHierarchicalClustering
from repro.clustering.linkage import AverageLinkage
from repro.core.allocation import AllocationProblem, greedy_allocate
from repro.core.truth import estimate_truth
from repro.semantics.embeddings import PPMISVDEmbedding, generate_topical_corpus
from repro.truthdiscovery.base import ObservationMatrix

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _mle_inputs(n_users, n_tasks, seed=0):
    rng = np.random.default_rng(seed)
    expertise = rng.uniform(0.3, 3.0, (n_users, 8))
    domains = rng.integers(0, 8, n_tasks)
    truths = rng.uniform(0, 20, n_tasks)
    sigmas = rng.uniform(0.5, 5.0, n_tasks)
    mask = rng.random((n_users, n_tasks)) < 0.2
    for task in range(n_tasks):
        if not mask[:, task].any():
            mask[rng.integers(n_users), task] = True
    values = truths[None, :] + rng.standard_normal((n_users, n_tasks)) * sigmas[None, :] / expertise[
        :, domains
    ]
    return ObservationMatrix(values=np.where(mask, values, 0.0), mask=mask), domains


@pytest.mark.parametrize("n_tasks", [100, 300] if QUICK else [200, 1000])
def test_mle_scaling(benchmark, n_tasks):
    observations, domains = _mle_inputs(100, n_tasks)
    result = benchmark(lambda: estimate_truth(observations, domains))
    assert result.converged


@pytest.mark.parametrize("n_tasks", [100, 300] if QUICK else [200, 1000])
def test_greedy_allocation_scaling(benchmark, n_tasks):
    rng = np.random.default_rng(1)
    problem = AllocationProblem(
        expertise=rng.uniform(0.1, 3.0, (100, n_tasks)),
        processing_times=rng.uniform(0.5, 1.5, n_tasks),
        capacities=rng.uniform(8.0, 16.0, 100),
    )
    outcome = benchmark(lambda: greedy_allocate(problem))
    assert outcome.assignment.respects_capacities(problem)


@pytest.mark.parametrize("n_points", [50, 150] if QUICK else [100, 400])
def test_clustering_scaling(benchmark, n_points):
    rng = np.random.default_rng(2)
    centers = rng.uniform(-10, 10, (8, 4))
    points = np.vstack(
        [rng.normal(centers[i % 8], 0.3, size=(1, 4)) for i in range(n_points)]
    )
    diff = points[:, None, :] - points[None, :, :]
    distances = np.sqrt((diff**2).sum(-1))
    result = benchmark(lambda: hierarchical_clustering(distances, gamma=0.3))
    assert result.cluster_count >= 1


@pytest.mark.parametrize("k", [160] if QUICK else [500])
def test_linkage_construction_scaling(benchmark, k):
    """Sum-matrix construction from singleton groups (the vectorised kernel)."""
    rng = np.random.default_rng(6)
    points = rng.random((k, 3))
    base = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    np.fill_diagonal(base, 0.0)
    groups = [[i] for i in range(k)]
    engine = benchmark(lambda: AverageLinkage(base, groups))
    assert engine.cluster_count == k


def test_dynamic_add_time(benchmark):
    """Warm-up fit plus incremental arrival batches (grow-only cache path)."""
    rng = np.random.default_rng(7)
    warmup_size, batches, batch_size = (120, 4, 10) if QUICK else (400, 8, 25)
    warmup = rng.normal(0.0, 1.0, (warmup_size, 64))
    arrivals = [rng.normal(0.0, 1.0, (batch_size, 64)) for _ in range(batches)]

    def run():
        clustering = DynamicHierarchicalClustering(gamma=0.5)
        clustering.fit(warmup)
        for batch in arrivals:
            clustering.add(batch)
        return clustering

    clustering = benchmark(run)
    assert clustering.point_count == warmup_size + batches * batch_size


def test_ppmi_training_time(benchmark):
    corpus = generate_topical_corpus(sentences_per_domain=50 if QUICK else 200, seed=3)
    model = benchmark(lambda: PPMISVDEmbedding(corpus.sentences, dim=32))
    assert model.vocabulary_size > 100


def test_incremental_update_time(benchmark):
    from repro.core.update import ExpertiseUpdater

    observations, domains = _mle_inputs(100, 300, seed=4)
    updater = ExpertiseUpdater(n_users=100, alpha=0.5)
    updater.incorporate(observations, domains)
    new_obs, new_domains = _mle_inputs(100, 200, seed=5)

    def step():
        updater.incorporate(new_obs, new_domains, commit=False)

    benchmark(step)
