"""Dynamic hierarchical clustering (Section 3.3.2).

After the warm-up fit, newly created tasks arrive every time step.  Each new
task starts as a singleton cluster next to the ``M`` existing domain
clusters, and the same average-linkage merge loop runs over the ``M + m'``
clusters.  Three outcomes are possible for the pre-existing domains, all of
which this module detects and reports:

- a new task joins an existing domain (the common case),
- a set of new tasks forms a brand-new domain,
- new tasks bridge two existing domains, which therefore merge — per §4.2 the
  lower-numbered domain ``k1`` absorbs ``k2`` and ``k2`` is deleted.

The reference distance ``d_star`` ("the longest distance between all existing
tasks ... a fixed value") is frozen at warm-up by default; pass
``refresh_d_star=True`` to recompute it as tasks accumulate.

Each batch recomputes the full pairwise distance matrix over every task seen
so far.  Caching the old block and computing only the new rows measured no
faster end to end, so the simpler path is the only one.

Points are represented by their concatenated pair-word vectors ``[V_Q, V_T]``;
Eq. 2's distance is exactly half the squared Euclidean distance between
concatenated vectors (:func:`repro.semantics.distance.concatenated_distance_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clustering.linkage import AverageLinkage
from repro.semantics.distance import concatenated_distance_matrix

__all__ = ["DomainMerge", "DynamicClusteringResult", "DynamicHierarchicalClustering"]


@dataclass(frozen=True)
class DomainMerge:
    """Domain ``deleted`` was absorbed into domain ``kept``."""

    kept: int
    deleted: int


@dataclass(frozen=True)
class DynamicClusteringResult:
    """Outcome of one warm-up fit or one incremental update."""

    added_labels: np.ndarray
    new_domains: tuple
    merges: tuple
    all_labels: np.ndarray

    @property
    def domain_count(self) -> int:
        return len(set(self.all_labels.tolist()))


class DynamicHierarchicalClustering:
    """Stateful task-to-domain clustering across time steps."""

    def __init__(
        self,
        gamma: float,
        refresh_d_star: bool = False,
        metric: str = "euclidean",
    ):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if metric not in ("euclidean", "cosine"):
            raise ValueError("metric must be 'euclidean' or 'cosine'")
        self._gamma = float(gamma)
        self._refresh_d_star = bool(refresh_d_star)
        self._metric = metric
        self._points = np.zeros((0, 0), dtype=float)
        self._base = np.zeros((0, 0), dtype=float)
        self._domains: dict = {}
        self._next_domain_id = 0
        self._d_star: "float | None" = None

    @property
    def gamma(self) -> float:
        return self._gamma

    @property
    def d_star(self) -> "float | None":
        return self._d_star

    @property
    def is_fitted(self) -> bool:
        return self.point_count > 0

    @property
    def point_count(self) -> int:
        return self._points.shape[0]

    @property
    def domain_ids(self) -> list:
        return sorted(self._domains)

    def labels(self) -> np.ndarray:
        """Domain id of every point seen so far."""
        labels = np.full(self.point_count, -1, dtype=int)
        if self._domains:
            indices = np.concatenate(
                [np.asarray(members, dtype=int) for members in self._domains.values()]
            )
            ids = np.repeat(
                np.fromiter(self._domains, dtype=int, count=len(self._domains)),
                [len(members) for members in self._domains.values()],
            )
            labels[indices] = ids
        return labels

    def members(self, domain_id: int) -> list:
        """Point indices belonging to ``domain_id``."""
        return list(self._domains[domain_id])

    def fit(self, vectors: "np.ndarray | Sequence") -> DynamicClusteringResult:
        """Warm-up fit over the initial batch of tasks."""
        if self.is_fitted:
            raise RuntimeError("already fitted; use add() for new tasks")
        points = np.array(vectors, dtype=float, ndmin=2)
        if points.shape[0] == 0:
            raise ValueError("warm-up batch must contain at least one task")
        self._set_points(points)
        self._d_star = float(self._base.max())
        return self._recluster(groups=[[i] for i in range(points.shape[0])], existing_of_group={})

    def add(self, vectors: "np.ndarray | Sequence") -> DynamicClusteringResult:
        """Incremental update with one time step's new tasks."""
        if not self.is_fitted:
            raise RuntimeError("call fit() with the warm-up tasks first")
        new_points = np.atleast_2d(np.asarray(vectors, dtype=float))
        if new_points.shape[0] == 0:
            return DynamicClusteringResult(
                added_labels=np.zeros(0, dtype=int),
                new_domains=(),
                merges=(),
                all_labels=self.labels(),
            )
        if new_points.shape[1] != self._points.shape[1]:
            raise ValueError("new task vectors have a different dimensionality")

        old_count = self.point_count
        self._set_points(np.vstack([self._points, new_points]))
        if self._refresh_d_star:
            self._d_star = float(self._base.max())

        groups = []
        existing_of_group: dict = {}
        for domain_id in sorted(self._domains):
            existing_of_group[len(groups)] = domain_id
            groups.append(list(self._domains[domain_id]))
        for offset in range(new_points.shape[0]):
            groups.append([old_count + offset])
        return self._recluster(groups=groups, existing_of_group=existing_of_group, added_from=old_count)

    def _set_points(self, points: np.ndarray) -> None:
        """Store every task vector seen so far and their distance matrix."""
        base = concatenated_distance_matrix(points, self._metric)
        np.fill_diagonal(base, 0.0)
        self._points = points
        self._base = base

    def _recluster(self, groups, existing_of_group: dict, added_from: int = 0) -> DynamicClusteringResult:
        threshold = self._gamma * self._d_star
        engine = AverageLinkage(self._base, groups)
        slot_members_before = {slot: set(groups[slot]) for slot in range(len(groups))}
        engine.merge_until(threshold)

        # Classify each final cluster by the pre-existing domains it contains.
        final_members = engine.members()
        domains: dict = {}
        new_domain_ids: list = []
        merges: list = []
        for members in final_members:
            member_set = set(members)
            inherited = sorted(
                existing_of_group[slot]
                for slot, points in slot_members_before.items()
                if slot in existing_of_group and points <= member_set
            )
            if not inherited:
                domain_id = self._next_domain_id
                self._next_domain_id += 1
                new_domain_ids.append(domain_id)
            else:
                domain_id = inherited[0]
                merges.extend(DomainMerge(kept=domain_id, deleted=other) for other in inherited[1:])
            domains[domain_id] = sorted(members)
        self._domains = domains
        self._next_domain_id = max(self._next_domain_id, max(domains) + 1)

        all_labels = self.labels()
        return DynamicClusteringResult(
            added_labels=all_labels[added_from:],
            new_domains=tuple(new_domain_ids),
            merges=tuple(merges),
            all_labels=all_labels,
        )
