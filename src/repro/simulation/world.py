"""The ground-truth world: observation sampling per the Section 2.4 model.

If task *j* (truth ``mu_j``, base number ``sigma_j``) is allocated to user
*i* whose hidden expertise in the task's true domain is ``u``, the observed
value is a draw from ``N(mu_j, (sigma_j / u)^2)``.

For the Fig. 8 robustness experiment a ``bias_fraction`` of observations is
instead drawn from a *uniform* distribution with the same mean and standard
deviation (``mu +- sqrt(3) * sigma/u``), violating the normality assumption
while keeping the first two moments.

``drift_rate`` extends the paper's model with non-stationary expertise: on
every :meth:`World.advance_day` call each user's per-domain expertise takes
a clipped Gaussian random-walk step.  The paper's decay factor ``alpha``
(Eqs. 7-8) exists precisely to track such drift — the drift ablation
benchmark measures that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.expertise import MIN_EXPERTISE
from repro.rng import ensure_rng
from repro.simulation.entities import TaskSpec, UserSpec

__all__ = ["World"]

_SQRT3 = float(np.sqrt(3.0))


class World:
    """Samples observations from the hidden ground truth."""

    #: Drifted expertise never leaves this range (the synthetic generator's
    #: U[0, 3] support).
    DRIFT_BOUNDS = (0.0, 3.0)

    def __init__(
        self,
        users: Sequence[UserSpec],
        tasks: Sequence[TaskSpec],
        bias_fraction: float = 0.0,
        drift_rate: float = 0.0,
        adversaries: "dict | None" = None,
        seed=None,
    ):
        if not users:
            raise ValueError("world needs at least one user")
        if not tasks:
            raise ValueError("world needs at least one task")
        if not 0.0 <= bias_fraction <= 1.0:
            raise ValueError("bias_fraction must lie in [0, 1]")
        if drift_rate < 0.0:
            raise ValueError("drift_rate must be non-negative")
        self._users = tuple(users)
        self._tasks = tuple(tasks)
        self._bias_fraction = float(bias_fraction)
        self._drift_rate = float(drift_rate)
        self._adversaries = dict(adversaries) if adversaries else {}
        for user in self._adversaries:
            if not 0 <= user < len(self._users):
                raise ValueError(f"adversary index {user} out of range")
        self._rng = ensure_rng(seed)
        self._expertise = np.array([user.expertise for user in self._users], dtype=float)
        self._true_values = np.array([task.true_value for task in self._tasks], dtype=float)
        self._base_numbers = np.array([task.base_number for task in self._tasks], dtype=float)
        self._true_domains = np.array([task.true_domain for task in self._tasks], dtype=np.intp)

    @property
    def n_users(self) -> int:
        return len(self._users)

    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    @property
    def users(self) -> tuple:
        return self._users

    @property
    def tasks(self) -> tuple:
        return self._tasks

    def pair_expertise(self, users, tasks) -> np.ndarray:
        """Hidden expertise of each user in its task's true domain, floored.

        ``users`` and ``tasks`` are index arrays (or scalars) of equal shape.
        """
        return np.maximum(self._expertise[users, self._true_domains[tasks]], MIN_EXPERTISE)

    def user_expertise_for_task(self, user: int, task: int) -> float:
        """Hidden expertise of ``user`` in ``task``'s true domain, floored."""
        return float(self.pair_expertise(user, task))

    def advance_day(self) -> None:
        """Apply one day of expertise drift (no-op at ``drift_rate = 0``)."""
        if self._drift_rate == 0.0:
            return
        step = self._rng.normal(0.0, self._drift_rate, size=self._expertise.shape)
        low, high = self.DRIFT_BOUNDS
        self._expertise = np.clip(self._expertise + step, low, high)

    def observation_std(self, user: int, task: int) -> float:
        """The model's ``sigma_j / u_ij`` for this pair."""
        return float(self._base_numbers[task] / self.pair_expertise(user, task))

    @property
    def adversary_users(self) -> list:
        """Indices of adversarial users (sorted)."""
        return sorted(self._adversaries)

    def observe(self, user: int, task: int) -> float:
        """Sample one observation for the pair (see :meth:`observe_pairs`)."""
        return self.observe_pairs([(user, task)])[0]

    def observe_pairs(self, pairs: Sequence) -> list:
        """Observations for a batch of ``(user, task)`` pairs, in order.

        Each pair draws from the normal model, or from the uniform one with
        probability ``bias_fraction``; adversarial users' behaviours
        override the honest model entirely.  Every ``sigma_j / u_ij`` is
        computed at once.  Without bias or adversaries every pair is one
        normal draw, and one array call to ``Generator.normal`` yields the
        same values and leaves the generator in the same state as the
        per-pair calls; otherwise the draws stay one pair at a time because
        the bias roll and the adversaries interleave with them on one
        generator.
        """
        users, tasks = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        stds = self._base_numbers[tasks] / self.pair_expertise(users, tasks)
        rng = self._rng
        if self._bias_fraction == 0.0 and not self._adversaries:
            return rng.normal(self._true_values[tasks], stds).tolist()
        values = []
        for user, task, std in zip(users.tolist(), tasks.tolist(), stds.tolist()):
            task_spec = self._tasks[task]
            behaviour = self._adversaries.get(user)
            if behaviour is not None:
                value = behaviour(task_spec, std, rng)
            elif self._bias_fraction > 0.0 and rng.random() < self._bias_fraction:
                mu, half_width = task_spec.true_value, _SQRT3 * std
                value = rng.uniform(mu - half_width, mu + half_width)
            else:
                value = rng.normal(task_spec.true_value, std)
            values.append(float(value))
        return values

    def true_values(self) -> np.ndarray:
        return self._true_values.copy()

    def base_numbers(self) -> np.ndarray:
        return self._base_numbers.copy()

    def true_domains(self) -> np.ndarray:
        return self._true_domains.copy()

    def processing_times(self) -> np.ndarray:
        return np.array([task.processing_time for task in self._tasks], dtype=float)

    def costs(self) -> np.ndarray:
        return np.array([task.cost for task in self._tasks], dtype=float)

    def capacities(self) -> np.ndarray:
        return np.array([user.capacity for user in self._users], dtype=float)

    def true_expertise_matrix(self) -> np.ndarray:
        """Hidden ``(n_users, n_true_domains)`` expertise matrix.

        Reflects any drift applied so far (a copy; mutating it does not
        affect the world).
        """
        return self._expertise.copy()
