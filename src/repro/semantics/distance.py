"""Task-to-task semantic distance (Eq. 2).

Each task is represented by the embeddings of its Query and Target terms.
The distance between tasks *i* and *j* is::

    E(i, j) = 1/2 * ( ||V_Q^i - V_Q^j||^2 + ||V_T^i - V_T^j||^2 )

i.e. the squared Euclidean distance on the concatenated ``[V_Q, V_T]``
vector, halved.  :func:`concatenated_distance_matrix` computes it for a whole
matrix of concatenated vectors in one vectorised Gram-matrix computation;
the warm-up and dynamic clustering call it on every batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.semantics.embeddings.base import EmbeddingModel
from repro.semantics.pairword import PairWord, extract_pair_word

__all__ = [
    "TaskSemantics",
    "concatenated_distance_matrix",
    "pair_distance",
    "pairwise_distance_matrix",
    "semantics_for_descriptions",
]


@dataclass(frozen=True)
class TaskSemantics:
    """The semantic representation of one task description."""

    pair: PairWord
    query_vector: np.ndarray
    target_vector: np.ndarray

    @property
    def concatenated(self) -> np.ndarray:
        return np.concatenate([self.query_vector, self.target_vector])


def task_semantics(description: str, model: EmbeddingModel) -> TaskSemantics:
    """Extract the pair-word terms of ``description`` and embed them."""
    pair = extract_pair_word(description)
    return TaskSemantics(
        pair=pair,
        query_vector=model.phrase_vector(pair.query),
        target_vector=model.phrase_vector(pair.target),
    )


def semantics_for_descriptions(descriptions: Sequence[str], model: EmbeddingModel) -> list[TaskSemantics]:
    """Vector representations for a batch of task descriptions."""
    return [task_semantics(description, model) for description in descriptions]


def pair_distance(a: TaskSemantics, b: TaskSemantics, metric: str = "euclidean") -> float:
    """Distance between two tasks.

    ``metric="euclidean"`` is the paper's Eq. 2 (half the summed squared
    Euclidean distances of the query and target vectors).
    ``metric="cosine"`` averages the cosine *distances* of the two term
    pairs — scale-invariant, useful when embedding norms vary wildly (e.g.
    IDF-weighted composition of phrases of different lengths).
    """
    if metric == "euclidean":
        dq = a.query_vector - b.query_vector
        dt = a.target_vector - b.target_vector
        return 0.5 * (float(dq @ dq) + float(dt @ dt))
    if metric == "cosine":
        return 0.5 * (
            _cosine_distance(a.query_vector, b.query_vector)
            + _cosine_distance(a.target_vector, b.target_vector)
        )
    raise ValueError(f"unknown metric {metric!r} (use 'euclidean' or 'cosine')")


def _cosine_distance(x: np.ndarray, y: np.ndarray) -> float:
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        # A zero vector carries no direction; maximally uninformative.
        return 1.0
    return 1.0 - float(x @ y) / (nx * ny)


def pairwise_distance_matrix(items: Sequence[TaskSemantics], metric: str = "euclidean") -> np.ndarray:
    """Symmetric matrix of task distances for a batch of tasks (zero diagonal)."""
    if not items:
        return np.zeros((0, 0), dtype=float)
    points = np.vstack([item.concatenated for item in items])
    distances = concatenated_distance_matrix(points, metric)
    np.fill_diagonal(distances, 0.0)
    return distances


def concatenated_distance_matrix(points: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Distances between every pair of rows of concatenated ``[V_Q, V_T]`` vectors.

    The one Eq. 2 body.  The euclidean case uses the Gram-matrix identity
    ``||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y`` and applies the 1/2 factor
    once at the end; negative round-off is clamped to zero.  The cosine
    case averages the query- and target-side cosine distances (see
    :func:`pair_distance`).  The diagonal is left as computed.
    """
    if metric == "euclidean":
        norms = np.einsum("ij,ij->i", points, points)
        squared = norms[:, None] + norms[None, :] - 2.0 * (points @ points.T)
        np.maximum(squared, 0.0, out=squared)
        return 0.5 * squared
    if metric == "cosine":
        split = points.shape[1] // 2
        return 0.5 * (_cosine_matrix(points[:, :split]) + _cosine_matrix(points[:, split:]))
    raise ValueError(f"unknown metric {metric!r} (use 'euclidean' or 'cosine')")


def _cosine_matrix(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    # Two separate unit matrices take the general matrix product;
    # ``unit @ unit.T`` would take numpy's symmetric kernel and move the
    # last bits of the clustering distances.
    similarity = (vectors / safe[:, None]) @ (vectors / safe[:, None]).T
    # Zero vectors: no direction -> maximal distance to everything.
    zero = norms == 0
    similarity[zero, :] = 0.0
    similarity[:, zero] = 0.0
    np.clip(similarity, -1.0, 1.0, out=similarity)
    return 1.0 - similarity
