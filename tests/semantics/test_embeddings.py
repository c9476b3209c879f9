"""Tests for the embedding backends and their shared interface."""

import numpy as np
import pytest

from repro.semantics.embeddings import (
    HashingEmbedding,
    PPMISVDEmbedding,
    SkipGramEmbedding,
    generate_topical_corpus,
)
from repro.semantics.embeddings.cooccurrence import build_cooccurrence, ppmi_matrix
from repro.semantics.embeddings import hashing
from repro.semantics.embeddings.hashing import stable_word_seed


@pytest.fixture(scope="module")
def corpus():
    return generate_topical_corpus(sentences_per_domain=60, seed=3)


@pytest.fixture(scope="module")
def ppmi_model(corpus):
    return PPMISVDEmbedding(corpus.sentences, dim=16)


def _domain_separation(model):
    """Within-domain vs cross-domain distance for two word pairs."""
    # 'decibel'/'pollution' are environment words; 'coupon'/'cashier' retail.
    same1 = np.linalg.norm(model.vector("decibel") - model.vector("pollution"))
    same2 = np.linalg.norm(model.vector("coupon") - model.vector("cashier"))
    cross = np.linalg.norm(model.vector("decibel") - model.vector("coupon"))
    return (same1 + same2) / 2.0, cross


class TestHashing:
    def test_deterministic_across_instances(self):
        a = HashingEmbedding(dim=8).vector("noise")
        b = HashingEmbedding(dim=8).vector("noise")
        assert np.array_equal(a, b)

    def test_different_words_differ(self):
        model = HashingEmbedding(dim=8)
        assert not np.array_equal(model.vector("noise"), model.vector("level"))

    def test_salt_changes_vectors(self):
        a = HashingEmbedding(dim=8, salt=0).vector("noise")
        b = HashingEmbedding(dim=8, salt=1).vector("noise")
        assert not np.array_equal(a, b)

    def test_vectors_read_only(self):
        vec = HashingEmbedding(dim=8).vector("noise")
        with pytest.raises(ValueError):
            vec[0] = 1.0

    def test_memo_is_bounded_and_later_words_are_unchanged(self, monkeypatch):
        monkeypatch.setattr(hashing, "MEMO_WORDS", 2)
        model = HashingEmbedding(dim=8)
        words = ["noise", "level", "decibel", "street"]
        vectors = [model.vector(w) for w in words]
        assert len(model._cache) == 2
        for word, vec in zip(words, vectors):
            assert np.array_equal(model.vector(word), vec)
            assert np.array_equal(HashingEmbedding(dim=8).vector(word), vec)

    def test_stable_word_seed_is_stable(self):
        assert stable_word_seed("abc") == stable_word_seed("abc")
        assert stable_word_seed("abc") != stable_word_seed("abd")

    def test_has_word_always_true(self):
        assert HashingEmbedding(dim=8).has_word("zzzz-unseen")

    def test_validation(self):
        with pytest.raises(ValueError):
            HashingEmbedding(dim=0)
        with pytest.raises(ValueError):
            HashingEmbedding(dim=4, scale=0.0)


class TestPhraseComposition:
    def test_additive_model(self):
        model = HashingEmbedding(dim=8)
        combined = model.phrase_vector(["noise", "level"])
        assert np.allclose(combined, model.vector("noise") + model.vector("level"))

    def test_string_phrase_split(self):
        model = HashingEmbedding(dim=8)
        assert np.allclose(model.phrase_vector("noise level"), model.phrase_vector(["noise", "level"]))

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            HashingEmbedding(dim=8).phrase_vector([])

    def test_phrase_vectors_matrix(self):
        model = HashingEmbedding(dim=8)
        matrix = model.phrase_vectors([["a"], ["b", "c"]])
        assert matrix.shape == (2, 8)
        empty = model.phrase_vectors([])
        assert empty.shape == (0, 8)


class TestCooccurrence:
    def test_counts_symmetric(self, corpus):
        vocab = corpus.vocabulary()[:50]
        counts = build_cooccurrence(corpus.sentences, vocab, window=3)
        assert np.allclose(counts, counts.T)
        assert counts.sum() > 0

    def test_window_validation(self, corpus):
        with pytest.raises(ValueError):
            build_cooccurrence(corpus.sentences, corpus.vocabulary(), window=0)

    def test_ppmi_non_negative_and_finite(self, corpus):
        vocab = corpus.vocabulary()[:50]
        counts = build_cooccurrence(corpus.sentences, vocab)
        ppmi = ppmi_matrix(counts)
        assert np.all(ppmi >= 0)
        assert np.all(np.isfinite(ppmi))

    def test_ppmi_validation(self):
        with pytest.raises(ValueError):
            ppmi_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ppmi_matrix(np.zeros((3, 3)))

    def test_model_separates_domains(self, ppmi_model):
        same, cross = _domain_separation(ppmi_model)
        assert cross > 1.5 * same
        assert ppmi_model.vocabulary_size > 100

    def test_oov_fallback_is_deterministic_and_small(self, ppmi_model):
        vec1 = ppmi_model.vector("completely-unseen-word")
        vec2 = ppmi_model.vector("completely-unseen-word")
        assert np.array_equal(vec1, vec2)
        assert not ppmi_model.has_word("completely-unseen-word")
        seen_norm = np.linalg.norm(ppmi_model.vector("decibel"))
        assert np.linalg.norm(vec1) < seen_norm

    def test_dim_exceeding_vocab_rejected(self):
        with pytest.raises(ValueError):
            PPMISVDEmbedding([("a", "b")], dim=10)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            PPMISVDEmbedding([], dim=2)


class TestSkipGram:
    def test_model_separates_domains(self, corpus):
        model = SkipGramEmbedding(corpus.sentences, dim=16, epochs=5, seed=7)
        same, cross = _domain_separation(model)
        assert cross > 1.2 * same

    def test_seeded_training_is_reproducible(self, corpus):
        a = SkipGramEmbedding(corpus.sentences, dim=8, epochs=1, seed=5)
        b = SkipGramEmbedding(corpus.sentences, dim=8, epochs=1, seed=5)
        assert np.array_equal(a.vector("decibel"), b.vector("decibel"))

    def test_min_count_filters_vocabulary(self, corpus):
        model = SkipGramEmbedding(corpus.sentences, dim=8, epochs=1, min_count=40, seed=1)
        assert model.vocabulary_size < len(corpus.vocabulary())

    def test_parameter_validation(self, corpus):
        for kwargs in (
            {"window": 0},
            {"negatives": 0},
            {"epochs": 0},
            {"learning_rate": 0.0},
        ):
            with pytest.raises(ValueError):
                SkipGramEmbedding(corpus.sentences, dim=4, seed=0, **kwargs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            SkipGramEmbedding([], dim=4)
