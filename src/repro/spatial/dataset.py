"""Spatial synthetic dataset: the paper's synthetic recipe plus locations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.expertise import MIN_EXPERTISE
from repro.rng import ensure_rng
from repro.spatial.geometry import travel_time_matrix

__all__ = ["SpatialDataset", "spatial_synthetic_dataset"]


@dataclass(frozen=True)
class SpatialDataset:
    """Users with home locations, tasks with city locations.

    All the hidden ground truth of the synthetic dataset (Section 6.1.3)
    plus planar coordinates in a ``city_size x city_size`` square.
    """

    name: str
    user_locations: np.ndarray
    task_locations: np.ndarray
    true_expertise: np.ndarray
    task_domains: np.ndarray
    true_values: np.ndarray
    base_numbers: np.ndarray
    sensing_times: np.ndarray
    capacities: np.ndarray
    city_size: float

    def __post_init__(self):
        n_users = self.user_locations.shape[0]
        n_tasks = self.task_locations.shape[0]
        if self.true_expertise.shape[0] != n_users or self.capacities.shape != (n_users,):
            raise ValueError("user arrays disagree on the user count")
        for array in (self.task_domains, self.true_values, self.base_numbers, self.sensing_times):
            if array.shape != (n_tasks,):
                raise ValueError("task arrays disagree on the task count")

    @property
    def n_users(self) -> int:
        return self.user_locations.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.task_locations.shape[0]

    @property
    def n_domains(self) -> int:
        return self.true_expertise.shape[1]

    def pair_times(self, speed: float) -> np.ndarray:
        """True per-pair processing times: sensing plus round-trip travel."""
        travel = travel_time_matrix(self.user_locations, self.task_locations, speed)
        return self.sensing_times[None, :] + travel

    def task_expertise(self) -> np.ndarray:
        """Hidden ``u_{i, d_j}`` matrix, floored for the observation model."""
        return np.maximum(self.true_expertise[:, self.task_domains], MIN_EXPERTISE)

    def observe_pairs(self, pairs, rng) -> np.ndarray:
        """Honest observations for an ``(n, 2)`` array of ``(user, task)``
        rows (Section 2.4 model).

        One array call to ``Generator.normal`` yields the same values and
        leaves the generator in the same state as one call per pair.
        """
        users, tasks = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        expertise = np.maximum(self.true_expertise[users, self.task_domains[tasks]], MIN_EXPERTISE)
        stds = self.base_numbers[tasks] / expertise
        return ensure_rng(rng).normal(self.true_values[tasks], stds)


def spatial_synthetic_dataset(
    n_users: int = 60,
    n_tasks: int = 150,
    n_domains: int = 8,
    city_size: float = 10.0,
    tau: float = 12.0,
    expertise_range: "tuple[float, float]" = (0.0, 3.0),
    truth_range: "tuple[float, float]" = (0.0, 20.0),
    base_number_range: "tuple[float, float]" = (0.5, 5.0),
    sensing_time_range: "tuple[float, float]" = (0.5, 1.5),
    seed=None,
) -> SpatialDataset:
    """The Section 6.1.3 synthetic recipe with uniform city locations."""
    if n_users < 1 or n_tasks < 1 or n_domains < 1:
        raise ValueError("n_users, n_tasks and n_domains must be positive")
    if city_size <= 0:
        raise ValueError("city_size must be positive")
    rng = ensure_rng(seed)
    from repro.datasets.base import uniform_capacities

    return SpatialDataset(
        name="spatial-synthetic",
        user_locations=rng.uniform(0.0, city_size, size=(n_users, 2)),
        task_locations=rng.uniform(0.0, city_size, size=(n_tasks, 2)),
        true_expertise=rng.uniform(*expertise_range, size=(n_users, n_domains)),
        task_domains=rng.integers(0, n_domains, size=n_tasks),
        true_values=rng.uniform(*truth_range, size=n_tasks),
        base_numbers=rng.uniform(*base_number_range, size=n_tasks),
        sensing_times=rng.uniform(*sensing_time_range, size=n_tasks),
        capacities=uniform_capacities(n_users, tau, rng),
        city_size=float(city_size),
    )
