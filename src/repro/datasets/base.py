"""Common dataset container and shared experimental-setting generators."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.rng import ensure_rng
from repro.simulation.entities import TaskTable, UserSpec
from repro.simulation.world import World

__all__ = ["CrowdsourcingDataset", "uniform_capacities", "evenly_distributed_days"]


def uniform_capacities(n_users: int, tau: float, rng, half_width: float = 4.0) -> np.ndarray:
    """Per-user processing capability ``T_i ~ U[tau - 4, tau + 4]`` (Section 6.2)."""
    if tau <= half_width:
        # Keep capacities positive for small-tau sweeps (Fig. 6 goes low).
        low = max(tau - half_width, 0.5)
    else:
        low = tau - half_width
    rng = ensure_rng(rng)
    return rng.uniform(low, tau + half_width, size=n_users)


def evenly_distributed_days(n_tasks: int, n_days: int, rng) -> np.ndarray:
    """Random day label per task with near-equal counts per day (Section 6.2)."""
    if n_days < 1:
        raise ValueError("n_days must be at least 1")
    rng = ensure_rng(rng)
    base = np.repeat(np.arange(n_days), int(np.ceil(n_tasks / n_days)))[:n_tasks]
    rng.shuffle(base)
    return base


@dataclass(frozen=True, eq=False)
class CrowdsourcingDataset:
    """A full evaluation dataset: users (hidden expertise matrix, capacity
    vector), tasks (one :class:`TaskTable`), and hidden ground truth."""

    name: str
    tasks: TaskTable
    expertise: np.ndarray
    capacities: np.ndarray
    n_true_domains: int
    #: True when the algorithms may read tasks' domain labels directly (the
    #: synthetic dataset of Section 6.1.3); False when they must cluster the
    #: textual descriptions.
    domains_known: bool

    def __post_init__(self):
        expertise = np.array(self.expertise, dtype=float)
        capacities = np.array(self.capacities, dtype=float)
        if not len(expertise):
            raise ValueError("dataset has no users")
        if not len(self.tasks):
            raise ValueError("dataset has no tasks")
        domains = self.tasks.true_domain
        if np.any((domains < 0) | (domains >= self.n_true_domains)):
            raise ValueError("task has an out-of-range true domain")
        if expertise.ndim != 2 or expertise.shape[1] != self.n_true_domains:
            raise ValueError("user expertise vector length mismatch")
        if capacities.shape != (len(expertise),):
            raise ValueError("capacities must have one entry per user")
        if np.any(capacities < 0):
            raise ValueError("capacity must be non-negative")
        if np.any(expertise < 0):
            raise ValueError("expertise must be non-negative")
        descriptions = self.tasks.descriptions
        if not self.domains_known and (descriptions is None or None in descriptions):
            raise ValueError("text datasets must give every task a description")
        for name, column in (("expertise", expertise), ("capacities", capacities)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def n_users(self) -> int:
        return len(self.capacities)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def user(self, i: int) -> UserSpec:
        """User *i* as a row record."""
        expertise = tuple(self.expertise[i].tolist())
        return UserSpec(user_id=i, expertise=expertise, capacity=float(self.capacities[i]))

    def world(
        self,
        bias_fraction: float = 0.0,
        drift_rate: float = 0.0,
        adversaries: "dict | None" = None,
        seed=None,
    ) -> World:
        """A :class:`World` sampling observations from this dataset."""
        return World(self.tasks, self.expertise, bias_fraction, drift_rate, adversaries, seed)

    def descriptions(self) -> list:
        return list(self.tasks.descriptions or [None] * self.n_tasks)

    def with_capacities(self, capacities: np.ndarray) -> "CrowdsourcingDataset":
        """A copy with replaced per-user capacities (for tau sweeps)."""
        return replace(self, capacities=capacities)
