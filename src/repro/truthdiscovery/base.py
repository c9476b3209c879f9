"""Shared data structures and interface for truth-discovery methods."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = ["ObservationMatrix", "TruthEstimate", "TruthDiscovery", "nonzero_coordinates"]


def nonzero_coordinates(mask: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``np.nonzero`` of a 2-D mask from one flat scan: the rows and columns
    of its True entries as intp arrays, in row-major order.

    The flat scan plus one ``divmod`` returns the same arrays as the 2-D
    ``np.nonzero`` several times faster at the sizes a day's matrices have.
    """
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


@dataclass(frozen=True)
class ObservationMatrix:
    """A sparse user x task observation matrix.

    ``values[i, j]`` is user *i*'s observation of task *j*, meaningful only
    where ``mask[i, j]`` is True (the paper's ``w_ij = 1``).

    The matrix owns the two arrays it keeps and marks them read-only, as
    holders key work on the matrix object (the updater's kept preview); a
    caller that wants to keep writing hands over a copy.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.shape != mask.shape or values.ndim != 2:
            raise ValueError("values and mask must be 2-D arrays of the same shape")
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_pairs(cls, users, tasks, values, n_users: int, n_tasks: int) -> "ObservationMatrix":
        """Fold one value per ``(users[k], tasks[k])`` pair into a matrix.

        The one collection rule of the Section 2.4 model: a finite value
        marks its pair observed (``w_ij = 1``); a non-finite one (a dropout
        or a corrupt payload) leaves it unobserved, so it can never reach a
        truth analysis whose weighting would amplify it.  A pair listed
        twice keeps its last entry, a non-finite one included, so replaying
        the same ordered stream always rebuilds the same matrix.  A pair
        outside ``n_users x n_tasks`` raises ``ValueError``.
        """
        users, tasks, values = _kept_pairs(users, tasks, values, n_users, n_tasks)
        matrix = np.zeros((n_users, n_tasks), dtype=float)
        mask = np.zeros((n_users, n_tasks), dtype=bool)
        matrix[users, tasks] = values
        mask[users, tasks] = True
        return cls(values=matrix, mask=mask)

    def with_pairs(self, users, tasks, values) -> "ObservationMatrix":
        """A new matrix: this one with the pairs folded in by :meth:`from_pairs`' rule.

        A pair whose kept entry is finite is written (over an earlier
        observation too); every other pair keeps its state here.  The
        result owns new arrays, so this matrix never changes.  Raises
        ``ValueError`` as :meth:`from_pairs` does.
        """
        n_users, n_tasks = self.values.shape
        users, tasks, values = _kept_pairs(users, tasks, values, n_users, n_tasks)
        matrix = self.values.copy()
        mask = self.mask.copy()
        matrix[users, tasks] = values
        mask[users, tasks] = True
        return type(self)(values=matrix, mask=mask)

    @classmethod
    def from_triples(
        cls, triples: Iterable, n_users: int, n_tasks: int
    ) -> "ObservationMatrix":
        """Build from ``(user, task, value)`` triples (see :meth:`from_pairs`)."""
        users, tasks, values = np.array(list(triples), dtype=float).reshape(-1, 3).T
        return cls.from_pairs(users, tasks, values, n_users, n_tasks)

    @property
    def n_users(self) -> int:
        return self.values.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.values.shape[1]

    @property
    def observation_count(self) -> int:
        return int(self.mask.sum())

    def observations_for_task(self, task: int) -> "tuple[np.ndarray, np.ndarray]":
        """``(user_indices, values)`` of the observations for ``task``."""
        users = np.flatnonzero(self.mask[:, task])
        return users, self.values[users, task]

    def tasks_of_user(self, user: int) -> np.ndarray:
        return np.flatnonzero(self.mask[user, :])

    def task_means(self) -> np.ndarray:
        """Unweighted per-task observation means (nan for unobserved tasks)."""
        counts = self.mask.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts > 0, (self.values * self.mask).sum(axis=0) / counts, np.nan)
        return means

    def task_spreads(self, floor: float = 1e-9) -> np.ndarray:
        """Per-task observation standard deviations, floored away from zero.

        Used as the agreement scale of the numeric baselines; tasks with one
        observation (or identical observations) get the floor so Gaussian
        kernels stay defined.
        """
        counts = self.mask.sum(axis=0)
        means = self.task_means()
        centred = np.where(self.mask, self.values - np.where(np.isnan(means), 0.0, means), 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            variance = np.where(counts > 0, (centred**2).sum(axis=0) / np.maximum(counts, 1), 0.0)
        spread = np.sqrt(variance)
        return np.maximum(spread, floor)

    def restricted_to_tasks(self, tasks: np.ndarray) -> "ObservationMatrix":
        """A copy containing only the given task columns."""
        tasks = np.asarray(tasks, dtype=int)
        return ObservationMatrix(values=self.values[:, tasks], mask=self.mask[:, tasks])


def _kept_pairs(users, tasks, values, n_users: int, n_tasks: int) -> tuple:
    """The ``(users, tasks, values)`` a fold writes: each pair's last entry,
    where it is finite.  Raises ``ValueError`` for mismatched lengths or a
    pair outside ``n_users x n_tasks``."""
    users = np.asarray(users, dtype=np.intp)
    tasks = np.asarray(tasks, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    if users.ndim != 1 or tasks.shape != users.shape:
        raise ValueError("users and tasks must be 1-D arrays of the same length")
    if values.shape != users.shape:
        raise ValueError("observe() must return one value per pair")
    outside = (users < 0) | (users >= n_users) | (tasks < 0) | (tasks >= n_tasks)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(
            f"pair ({users[k]}, {tasks[k]}) lies outside the {n_users} x {n_tasks} matrix"
        )
    # Fancy assignment leaves the winner of a repeated index unspecified:
    # keep each pair's last entry explicitly (first in the reversed order).
    flat = users * n_tasks + tasks
    _, first_reversed = np.unique(flat[::-1], return_index=True)
    keep = flat.size - 1 - first_reversed
    keep = keep[np.isfinite(values[keep])]
    return users[keep], tasks[keep], values[keep]


@dataclass(frozen=True)
class TruthEstimate:
    """Output of a truth-discovery method."""

    truths: np.ndarray
    reliabilities: np.ndarray
    iterations: int = 0
    converged: bool = True
    extras: dict = field(default_factory=dict)


class TruthDiscovery(abc.ABC):
    """Interface every truth-discovery method implements."""

    #: Human-readable name used in experiment reports.
    name: str = "truth-discovery"

    @abc.abstractmethod
    def estimate(self, observations: ObservationMatrix) -> TruthEstimate:
        """Estimate per-task truths (and per-user reliabilities)."""

    @staticmethod
    def _require_observations(observations: ObservationMatrix) -> None:
        if observations.observation_count == 0:
            raise ValueError("observation matrix is empty")
