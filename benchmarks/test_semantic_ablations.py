"""Semantic-pipeline ablations: distance metric and phrase composition.

Measures clustering purity on the survey dataset under (a) Eq. 2's squared
Euclidean distance vs the cosine alternative, and (b) plain additive phrase
composition vs IDF-weighted composition — each at its best gamma, since
metrics set their own distance scales.
"""

from collections import Counter

import numpy as np
import pytest

from repro.clustering import DynamicHierarchicalClustering
from repro.datasets import survey_dataset
from repro.semantics.distance import semantics_for_descriptions
from repro.semantics.embeddings import PPMISVDEmbedding, generate_topical_corpus
from repro.semantics.weighting import IdfWeights, WeightedEmbedding


def _purity(labels, true):
    return sum(
        Counter(true[labels == d].tolist()).most_common(1)[0][1] for d in set(labels.tolist())
    ) / len(labels)


def _best_purity(vectors, true, metric, n_true_domains):
    best = 0.0
    for gamma in (0.1, 0.2, 0.3, 0.4):
        clustering = DynamicHierarchicalClustering(gamma=gamma, metric=metric)
        labels = clustering.fit(vectors).all_labels
        if len(set(labels.tolist())) > 3 * n_true_domains:
            continue  # over-fragmented
        best = max(best, _purity(labels, true))
    return best


@pytest.mark.parametrize("composition", ["additive", "idf"])
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_semantic_ablation(metric, composition):
    def run():
        corpus = generate_topical_corpus(sentences_per_domain=120, seed=9)
        model = PPMISVDEmbedding(corpus.sentences, dim=24)
        if composition == "idf":
            model = WeightedEmbedding(model, IdfWeights(corpus.sentences))
        dataset = survey_dataset(seed=21)
        semantics = semantics_for_descriptions(dataset.descriptions(), model)
        vectors = np.vstack([s.concatenated for s in semantics])
        true = dataset.world().true_domains()
        return _best_purity(vectors, true, metric, dataset.n_true_domains)

    purity = run()
    print(f"\n{metric}+{composition} clustering purity: {purity:.3f}")
    # Every configuration must separate the topical domains cleanly; the
    # paper's pipeline is not fragile to these two design choices.
    assert purity > 0.9
