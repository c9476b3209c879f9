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

import numpy as np

from repro.core.expertise import MIN_EXPERTISE
from repro.rng import ensure_rng
from repro.simulation.entities import TaskTable

__all__ = ["World"]

_SQRT3 = float(np.sqrt(3.0))


class World:
    """Samples observations from the hidden ground truth (a task table and
    the ``(n_users, n_true_domains)`` hidden expertise matrix)."""

    #: Drifted expertise never leaves this range (the synthetic generator's
    #: U[0, 3] support).
    DRIFT_BOUNDS = (0.0, 3.0)

    def __init__(
        self,
        tasks: TaskTable,
        expertise: np.ndarray,
        bias_fraction: float = 0.0,
        drift_rate: float = 0.0,
        adversaries: "dict | None" = None,
        seed=None,
    ):
        expertise = np.array(expertise, dtype=float)
        if expertise.ndim != 2 or not expertise.shape[0]:
            raise ValueError("world needs at least one user")
        if not len(tasks):
            raise ValueError("world needs at least one task")
        if not 0.0 <= bias_fraction <= 1.0:
            raise ValueError("bias_fraction must lie in [0, 1]")
        if drift_rate < 0.0:
            raise ValueError("drift_rate must be non-negative")
        self._tasks = tasks
        self._bias_fraction = float(bias_fraction)
        self._drift_rate = float(drift_rate)
        self._adversaries = dict(adversaries) if adversaries else {}
        for user in self._adversaries:
            if not 0 <= user < expertise.shape[0]:
                raise ValueError(f"adversary index {user} out of range")
        self._rng = ensure_rng(seed)
        self._expertise = expertise

    @property
    def n_users(self) -> int:
        return self._expertise.shape[0]

    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    def pair_expertise(self, users, tasks) -> np.ndarray:
        """Hidden expertise of each user in its task's true domain, floored.

        ``users`` and ``tasks`` are index arrays (or scalars) of equal shape.
        """
        return np.maximum(self._expertise[users, self._tasks.true_domain[tasks]], MIN_EXPERTISE)

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
        return float(self._tasks.base_number[task] / self.pair_expertise(user, task))

    @property
    def adversary_users(self) -> list:
        """Indices of adversarial users (sorted)."""
        return sorted(self._adversaries)

    def observe(self, user: int, task: int) -> float:
        """Sample one observation for the pair (see :meth:`observe_pairs`)."""
        return self.observe_pairs([(user, task)])[0]

    def observe_pairs(self, pairs) -> np.ndarray:
        """Observations for a batch of ``(user, task)`` pairs, in order.

        Each pair draws from the normal model, or from the uniform one with
        probability ``bias_fraction``; adversarial users' behaviours
        override the honest model entirely (they get the task's row record).
        ``pairs`` is an ``(n, 2)`` array of ``(user, task)`` rows and the
        result a float array.  Every ``sigma_j / u_ij`` is computed at once.
        Without bias or adversaries every pair is one normal draw, and one
        array call to ``Generator.normal`` yields the same values and leaves
        the generator in the same state as the per-pair calls; otherwise the
        draws stay one pair at a time because the bias roll and the
        adversaries interleave with them on one generator.
        """
        users, tasks = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        stds = self._tasks.base_number[tasks] / self.pair_expertise(users, tasks)
        mus, rng = self._tasks.true_value[tasks], self._rng
        if self._bias_fraction == 0.0 and not self._adversaries:
            return rng.normal(mus, stds)
        values = []
        for user, task, mu, std in zip(users.tolist(), tasks.tolist(), mus.tolist(), stds.tolist()):
            behaviour = self._adversaries.get(user)
            if behaviour is not None:
                value = behaviour(self._tasks[task], std, rng)
            elif self._bias_fraction > 0.0 and rng.random() < self._bias_fraction:
                half_width = _SQRT3 * std
                value = rng.uniform(mu - half_width, mu + half_width)
            else:
                value = rng.normal(mu, std)
            values.append(value)
        return np.array(values, dtype=float)

    def true_values(self) -> np.ndarray:
        return self._tasks.true_value.copy()

    def base_numbers(self) -> np.ndarray:
        return self._tasks.base_number.copy()

    def true_domains(self) -> np.ndarray:
        return self._tasks.true_domain.copy()

    def true_expertise_matrix(self) -> np.ndarray:
        """Hidden ``(n_users, n_true_domains)`` expertise matrix.

        Reflects any drift applied so far (a copy; mutating it does not
        affect the world).
        """
        return self._expertise.copy()
