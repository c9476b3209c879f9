"""Allocation problem instances, assignments, and the max-quality objective.

The max-quality optimisation problem (Eq. 14)::

    max   sum_j [ 1 - prod_i (1 - p_ij)^{s_ij} ]
    s.t.  sum_j t_j * s_ij <= T_i   for every user i
          s_ij in {0, 1}

with ``p_ij = Phi(eps * u_ij) - Phi(-eps * u_ij)`` (Eq. 11), the probability
that user *i*'s observation lands within ``eps`` base numbers of the truth.

A note on the capacity constraint: the paper writes it strictly
(``< T_i``, Eq. 13) but Algorithm 1's efficiency rule assigns whenever
``t_j <= T'_i`` (Definition 1), which fills capacity exactly.  We follow the
algorithm (non-strict ``<=``); with continuous random processing times the
two differ with probability zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.stats.normal import symmetric_tail_probability
from repro.truthdiscovery.base import ObservationMatrix

__all__ = [
    "DEFAULT_EPSILON",
    "AllocationProblem",
    "Assignment",
    "accuracy_probabilities",
    "allocation_objective",
]

#: The paper sets the accuracy threshold eps to 0.1.
DEFAULT_EPSILON = 0.1


def accuracy_probabilities(expertise: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Eq. 11: ``p_ij = Phi(eps * u_ij) - Phi(-eps * u_ij)`` element-wise."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    expertise = np.asarray(expertise, dtype=float)
    if np.any(expertise < 0):
        raise ValueError("expertise must be non-negative")
    return symmetric_tail_probability(epsilon * expertise)


def expertise_for_accuracy(accuracy: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Inverse of :func:`accuracy_probabilities`.

    Maps a direct per-pair success probability (e.g. a categorical model's
    accuracy) to the expertise value whose Eq. 11 probability equals it, so
    probability-native models can drive the max-quality allocator unchanged.
    Accuracies are clipped marginally inside (0, 1) to keep the quantile
    finite.
    """
    from repro.stats.normal import standard_normal_quantile

    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    accuracy = np.clip(np.asarray(accuracy, dtype=float), 1e-9, 1.0 - 1e-9)
    return standard_normal_quantile((1.0 + accuracy) / 2.0) / epsilon


@dataclass(frozen=True)
class AllocationProblem:
    """One time step's allocation instance.

    Attributes
    ----------
    expertise:
        ``(n_users, n_tasks)`` matrix ``u_{i, d_j}`` — each user's expertise
        in each task's domain.
    processing_times:
        ``t_j`` per task (the paper's model), **or** a ``(n_users,
        n_tasks)`` matrix ``t_ij`` of per-pair times — the spatial
        extension, where a task costs each user its sensing time plus the
        travel to the task's location.
    capacities:
        ``T_i`` per user.
    epsilon:
        Accuracy threshold of Eq. 11.
    costs:
        ``c_j`` per task — the payment for recruiting one user for task j
        (used by min-cost; defaults to one unit per the paper's Section
        6.4.3 setting).
    eligible:
        Optional per-user boolean mask; ``False`` users (e.g. quarantined
        by the reputation tracker) receive no assignments from any
        allocator.  ``None`` means everyone is eligible.  An explicit
        boolean mask — not infinite processing times — because
        ``False * inf`` is NaN under IEEE rules and would silently poison
        workload arithmetic.
    """

    expertise: np.ndarray
    processing_times: np.ndarray
    capacities: np.ndarray
    epsilon: float = DEFAULT_EPSILON
    costs: "np.ndarray | None" = None
    eligible: "np.ndarray | None" = None

    def __post_init__(self):
        expertise = np.asarray(self.expertise, dtype=float)
        times = np.asarray(self.processing_times, dtype=float)
        capacities = np.asarray(self.capacities, dtype=float)
        if expertise.ndim != 2:
            raise ValueError("expertise must be a (n_users, n_tasks) matrix")
        n_users, n_tasks = expertise.shape
        if times.shape not in ((n_tasks,), (n_users, n_tasks)):
            raise ValueError(
                "processing_times must have one entry per task or be a (n_users, n_tasks) matrix"
            )
        if capacities.shape != (n_users,):
            raise ValueError("capacities must have one entry per user")
        # NaN slips through every ordered comparison below and would leave
        # the greedy's argmax and feasibility tests silently degenerate.
        for name, values in (
            ("expertise", expertise),
            ("processing times", times),
            ("capacities", capacities),
        ):
            if np.isnan(values).any():
                raise ValueError(f"{name} must not contain NaN")
        if np.any(times <= 0):
            raise ValueError("processing times must be positive")
        if np.any(capacities < 0):
            raise ValueError("capacities must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        costs = self.costs
        if costs is None:
            costs = np.ones(n_tasks, dtype=float)
        else:
            costs = np.asarray(costs, dtype=float)
            if costs.shape != (n_tasks,):
                raise ValueError("costs must have one entry per task")
            if np.isnan(costs).any():
                raise ValueError("costs must not contain NaN")
            if np.any(costs < 0):
                raise ValueError("costs must be non-negative")
        eligible = self.eligible
        if eligible is not None:
            eligible = np.asarray(eligible, dtype=bool)
            if eligible.shape != (n_users,):
                raise ValueError("eligible must have one entry per user")
            if not np.any(eligible):
                raise ValueError("at least one user must be eligible")
        object.__setattr__(self, "expertise", expertise)
        object.__setattr__(self, "processing_times", times)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "eligible", eligible)

    @property
    def n_users(self) -> int:
        return self.expertise.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.expertise.shape[1]

    @property
    def has_pair_times(self) -> bool:
        """True when processing times are per (user, task) pair."""
        return self.processing_times.ndim == 2

    def pair_times(self) -> np.ndarray:
        """Processing times as a ``(n_users, n_tasks)`` matrix.

        Broadcasts the paper's per-task ``t_j`` across users; the spatial
        extension's ``t_ij`` passes through unchanged.
        """
        if self.has_pair_times:
            return self.processing_times
        return np.broadcast_to(self.processing_times[None, :], (self.n_users, self.n_tasks))

    def eligible_mask(self) -> np.ndarray:
        """Per-user eligibility as a concrete boolean array (all-True default)."""
        if self.eligible is None:
            return np.ones(self.n_users, dtype=bool)
        return self.eligible

    def accuracy_matrix(self) -> np.ndarray:
        """The ``p_ij`` matrix of Eq. 11."""
        return accuracy_probabilities(self.expertise, self.epsilon)


@dataclass
class Assignment:
    """A boolean ``s_ij`` matrix with bookkeeping helpers."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError("assignment must be a 2-D boolean matrix")
        self.matrix = matrix

    @classmethod
    def empty(cls, n_users: int, n_tasks: int) -> "Assignment":
        return cls(matrix=np.zeros((n_users, n_tasks), dtype=bool))

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.matrix.shape[1]

    @property
    def pair_count(self) -> int:
        return int(self.matrix.sum())

    def pairs(self) -> list:
        """Assigned ``(user, task)`` pairs."""
        users, tasks = np.nonzero(self.matrix)
        return list(zip(users.tolist(), tasks.tolist()))

    def collect(self, observe: Callable) -> ObservationMatrix:
        """Ask ``observe(pairs)`` for every assigned pair and fold the replies.

        ``pairs`` come in :meth:`pairs` order and the reply must hold one
        value per pair.  A non-finite value is a *dropout* (an assigned user
        that never delivered) or a corrupt payload: its pair stays
        unobserved, though the capacity it consumed is already spent — see
        :meth:`ObservationMatrix.from_pairs`.  ``observe`` is not called
        for an empty assignment.
        """
        users, tasks = np.nonzero(self.matrix)
        values = observe(list(zip(users.tolist(), tasks.tolist()))) if users.size else ()
        return ObservationMatrix.from_pairs(users, tasks, values, *self.matrix.shape)

    def users_of_task(self, task: int) -> np.ndarray:
        return np.flatnonzero(self.matrix[:, task])

    def tasks_of_user(self, user: int) -> np.ndarray:
        return np.flatnonzero(self.matrix[user, :])

    def workloads(self, processing_times: np.ndarray) -> np.ndarray:
        """Total assigned processing time per user.

        Accepts the paper's per-task vector or the spatial extension's
        per-pair matrix.
        """
        processing_times = np.asarray(processing_times, dtype=float)
        if processing_times.ndim == 2:
            return (self.matrix * processing_times).sum(axis=1)
        return self.matrix @ processing_times

    def respects_capacities(self, problem: AllocationProblem) -> bool:
        return bool(np.all(self.workloads(problem.processing_times) <= problem.capacities + 1e-9))

    def total_cost(self, costs: np.ndarray) -> float:
        """Eq. 18's recruiting cost ``sum_ij s_ij * c_j``."""
        return float(self.matrix.sum(axis=0) @ np.asarray(costs, dtype=float))

    def union(self, other: "Assignment") -> "Assignment":
        if other.matrix.shape != self.matrix.shape:
            raise ValueError("assignments have different shapes")
        return Assignment(matrix=self.matrix | other.matrix)


def allocation_objective(
    problem: AllocationProblem,
    assignment: Assignment,
    accuracy: "np.ndarray | None" = None,
) -> float:
    """Eq. 12: ``sum_j [1 - prod_{i assigned} (1 - p_ij)]``.

    ``accuracy`` accepts a precomputed ``problem.accuracy_matrix()`` so
    callers scoring several assignments against one problem (the greedy
    passes, the exact solver's enumeration) pay for the ``erf`` once.
    """
    if assignment.matrix.shape != (problem.n_users, problem.n_tasks):
        raise ValueError("assignment shape does not match the problem")
    p = problem.accuracy_matrix() if accuracy is None else accuracy
    # Each task's miss product runs down its column in ascending user order;
    # unassigned factors are exactly 1.0.
    miss = np.prod(np.where(assignment.matrix, 1.0 - p, 1.0), axis=0)
    return float(np.sum(1.0 - miss))
