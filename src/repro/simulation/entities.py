"""Tasks and users of the simulated crowdsourcing system: the columnar
:class:`TaskTable`, and the row records built from it (and from a dataset's
user arrays) on demand for code that reads one task or user at a time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TaskSpec", "TaskTable", "UserSpec"]


@dataclass(frozen=True)
class TaskSpec:
    """One sensing task.

    ``true_domain`` is the *generator's* domain label — hidden from the
    algorithms for text datasets (which must cluster descriptions), exposed
    for the synthetic dataset (whose domains are pre-known per Section
    6.1.3).  ``true_value``/``base_number`` are the ground truth used to
    sample observations and score estimates.
    """

    task_id: int
    true_value: float
    base_number: float
    processing_time: float
    cost: float = 1.0
    description: "str | None" = None
    true_domain: int = 0

    def __post_init__(self):
        if self.base_number <= 0:
            raise ValueError("base_number must be positive")
        if self.processing_time <= 0:
            raise ValueError("processing_time must be positive")
        if self.cost < 0:
            raise ValueError("cost must be non-negative")


@dataclass(frozen=True)
class UserSpec:
    """One mobile user.

    ``expertise`` is the hidden per-domain expertise vector used by the
    world to sample this user's observation noise; algorithms never see it
    (except the Fig. 11 evaluation, which compares estimates against it).
    """

    user_id: int
    expertise: tuple
    capacity: float

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if any(u < 0 for u in self.expertise):
            raise ValueError("expertise must be non-negative")


_COLUMNS = ("true_value", "base_number", "processing_time", "cost", "true_domain")


@dataclass(frozen=True, eq=False)
class TaskTable:
    """The fields of :class:`TaskSpec` as read-only columns, checked alike.

    ``descriptions`` is None when no task has one.  ``table[j]`` builds row
    *j* as a :class:`TaskSpec` (``task_id=j``); :meth:`take` selects rows.
    """

    true_value: np.ndarray
    base_number: np.ndarray
    processing_time: np.ndarray
    cost: np.ndarray
    true_domain: np.ndarray
    descriptions: "tuple | None" = None

    def __post_init__(self):
        for name in _COLUMNS:
            dtype = np.intp if name == "true_domain" else float
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != np.shape(self.true_value) or column.ndim != 1:
                raise ValueError("task columns must be 1-D with one entry per task")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.descriptions is not None:
            object.__setattr__(self, "descriptions", tuple(self.descriptions))
            if len(self.descriptions) != len(self):
                raise ValueError("task columns must be 1-D with one entry per task")
        if np.any(self.base_number <= 0):
            raise ValueError("base_number must be positive")
        if np.any(self.processing_time <= 0):
            raise ValueError("processing_time must be positive")
        if np.any(self.cost < 0):
            raise ValueError("cost must be non-negative")

    def __len__(self) -> int:
        return self.true_value.shape[0]

    def __getitem__(self, j) -> TaskSpec:
        j = range(len(self))[j]
        values = (float(getattr(self, name)[j]) for name in _COLUMNS[:4])
        description = None if self.descriptions is None else self.descriptions[j]
        return TaskSpec(j, *values, description, int(self.true_domain[j]))

    def take(self, indices) -> "TaskTable":
        """The rows ``indices`` (an integer array), in that order."""
        descriptions = self.descriptions
        if descriptions is not None:
            descriptions = tuple(descriptions[j] for j in np.asarray(indices).tolist())
        return TaskTable(*(getattr(self, name)[indices] for name in _COLUMNS), descriptions)
