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
from repro.truthdiscovery.base import ObservationMatrix, nonzero_coordinates

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
        ``(n_users, n_domains)`` block ``u_i^k`` — each user's expertise in
        each domain the tasks draw on.
    processing_times:
        ``t_j`` per task, the same for every user (Eq. 13).
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
    domain_columns:
        Each task's column ``d_j`` in ``expertise``, so task ``j`` reads
        ``u_i^{d_j} = expertise[i, domain_columns[j]]``.  ``None`` gives
        every task its own column (``expertise`` is then ``(n_users,
        n_tasks)``).  Eq. 11 runs once per column and the greedy ranks
        each column's users once, shared by its tasks.

    A problem is a value: its arrays are not changed after construction.
    """

    expertise: np.ndarray
    processing_times: np.ndarray
    capacities: np.ndarray
    epsilon: float = DEFAULT_EPSILON
    costs: "np.ndarray | None" = None
    eligible: "np.ndarray | None" = None
    domain_columns: "np.ndarray | None" = None

    def __post_init__(self):
        expertise = np.asarray(self.expertise, dtype=float)
        times = np.asarray(self.processing_times, dtype=float)
        capacities = np.asarray(self.capacities, dtype=float)
        if expertise.ndim != 2:
            raise ValueError("expertise must be a (n_users, n_domains) matrix")
        n_users, n_columns = expertise.shape
        if self.domain_columns is None:
            domain_columns = np.arange(n_columns)
        else:
            domain_columns = np.asarray(self.domain_columns)
            if domain_columns.ndim != 1 or domain_columns.dtype.kind not in "iu":
                raise ValueError("domain_columns must be a 1-D integer array")
            if np.any((domain_columns < 0) | (domain_columns >= n_columns)):
                raise ValueError("domain_columns must index the expertise columns")
        n_tasks = len(domain_columns)
        if times.shape != (n_tasks,):
            raise ValueError("processing_times must have one entry per task")
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
        object.__setattr__(self, "domain_columns", domain_columns)

    @property
    def n_users(self) -> int:
        return self.expertise.shape[0]

    @property
    def n_tasks(self) -> int:
        return len(self.domain_columns)

    def eligible_mask(self) -> np.ndarray:
        """Per-user eligibility as a concrete boolean array (all-True default)."""
        if self.eligible is None:
            return np.ones(self.n_users, dtype=bool)
        return self.eligible

    def accuracy_matrix(self) -> np.ndarray:
        """The ``(n_users, n_tasks)`` ``p_ij`` matrix of Eq. 11: one ``erf``
        per expertise column, gathered to the tasks by
        :attr:`domain_columns`.  It is ``==`` the element-wise form over the
        gathered ``u_i^{d_j}``."""
        return accuracy_probabilities(self.expertise, self.epsilon)[:, self.domain_columns]


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

    def pairs(self) -> np.ndarray:
        """Assigned pairs as an ``(n, 2)`` intp array of ``(user, task)``
        rows, in row-major (``np.argwhere``) order."""
        return np.column_stack(nonzero_coordinates(self.matrix))

    def collect(self, observe: Callable) -> ObservationMatrix:
        """Ask ``observe(pairs)`` for every assigned pair and fold the replies.

        ``pairs`` is :meth:`pairs`, and the reply must be a sequence of one
        float per row.  A non-finite value is a *dropout* (an assigned user
        that never delivered) or a corrupt payload: its pair stays
        unobserved, though the capacity it consumed is already spent — see
        :meth:`ObservationMatrix.from_pairs`.  ``observe`` is not called
        for an empty assignment.
        """
        pairs = self.pairs()
        values = observe(pairs) if len(pairs) else ()
        users, tasks = pairs.T
        return ObservationMatrix.from_pairs(users, tasks, values, *self.matrix.shape)

    def users_of_task(self, task: int) -> np.ndarray:
        return np.flatnonzero(self.matrix[:, task])

    def tasks_of_user(self, user: int) -> np.ndarray:
        return np.flatnonzero(self.matrix[user, :])

    def workloads(self, processing_times: np.ndarray) -> np.ndarray:
        """Total assigned processing time per user, ``sum_j s_ij * t_j``."""
        return self.matrix @ np.asarray(processing_times, dtype=float)

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
