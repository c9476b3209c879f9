"""Deterministic hash-based embeddings.

Each word maps to a fixed pseudo-random Gaussian vector derived from a stable
hash of its characters.  Distinct words are nearly orthogonal in expectation,
so the model carries no learned similarity — but it is fast, dependency-free
and fully deterministic across processes (unlike Python's builtin ``hash``,
which is salted).  The trained backends also use it as their out-of-vocabulary
fallback so that unseen words perturb distances instead of crashing.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.semantics.embeddings.base import EmbeddingModel

__all__ = ["HashingEmbedding", "stable_word_seed"]

#: Words whose vectors one model memoises (~0.4 KB each at dim 32).  A model
#: can live for a whole process (the shared default embedding's fallback), so
#: later words are recomputed (~30 us) rather than held forever.
MEMO_WORDS = 4096


def stable_word_seed(word: str, salt: int = 0) -> int:
    """A process-stable 64-bit seed for ``word``."""
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8, salt=salt.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


class HashingEmbedding(EmbeddingModel):
    """Deterministic Gaussian vectors keyed by a stable word hash."""

    def __init__(self, dim: int = 32, scale: float = 1.0, salt: int = 0):
        super().__init__(dim)
        if scale <= 0:
            raise ValueError("scale must be positive")
        self._scale = float(scale)
        self._salt = int(salt)
        self._cache: dict[str, np.ndarray] = {}

    def vector(self, word: str) -> np.ndarray:
        cached = self._cache.get(word)
        if cached is None:
            rng = np.random.default_rng(stable_word_seed(word, self._salt))
            cached = rng.standard_normal(self.dim) * (self._scale / np.sqrt(self.dim))
            cached.setflags(write=False)
            if len(self._cache) < MEMO_WORDS:
                self._cache[word] = cached
        return cached
