"""Dynamic update of user expertise across time steps (Section 4.2).

Eq. 6's expertise estimate is a ratio of two sums; the updater keeps both
running sums per (user, domain)::

    N(u_i^k)  — the (decayed) count of observations user i made in domain k
    D(u_i^k)  — the (decayed) sum of normalised squared errors there

When a new time step's tasks are finished (Eqs. 7-8)::

    N^{T+t} = alpha * N^T + sum_j I(d_j = k) w_ij
    D^{T+t} = alpha * D^T + sum_j I(d_j = k) w_ij (x_ij - mu_j)^2 / sigma_j^2

and expertise is refreshed as ``u = sqrt(N / D)`` (Eq. 9).  Because the new
tasks' ``mu_j`` and ``sigma_j`` are unknown a priori, they are estimated from
the *current* expertise (Eq. 5), which changes the expertise, which changes
the estimates — so the same alternating iteration runs until the truth
estimates converge.  Domain merges add the absorbed domain's sums into the
surviving domain, exactly the "recalculated according to Eq. 6 and Eq. 9"
step the paper describes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.expertise import DEFAULT_EXPERTISE, ExpertiseMatrix, expertise_from_sums
from repro.core.robust import RobustConfig, weighted_median_truths
from repro.core.truth import (
    SIGMA_FLOOR,
    TruthAnalysisResult,
    _truth_delta,
    _truths_converged,
    update_truths_for_expertise,
)
from repro.truthdiscovery.base import ObservationMatrix

__all__ = ["ExpertiseUpdater", "IncorporateResult"]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class IncorporateResult:
    """Truths/sigmas of one time step's new tasks plus convergence info.

    ``expertise`` maps each involved domain id to the post-update per-user
    expertise column, so callers (e.g. the min-cost quality check) can read
    the refreshed values without re-deriving them from the updater.
    """

    truths: np.ndarray
    sigmas: np.ndarray
    iterations: int
    converged: bool
    expertise: dict
    #: Largest per-task relative truth change at the last inner iteration
    #: (NaN when only one iteration ran).
    final_delta: float = float("nan")
    #: True when the weighted-median fallback replaced a diverged iterate.
    used_fallback: bool = False


class ExpertiseUpdater:
    """Running ``N``/``D`` sums per (user, domain) with decay ``alpha``."""

    def __init__(self, n_users: int, alpha: float = 0.5):
        if n_users <= 0:
            raise ValueError("n_users must be positive")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        self._n_users = int(n_users)
        self._alpha = float(alpha)
        self._numerators: dict = {}
        self._denominators: dict = {}

    @property
    def n_users(self) -> int:
        return self._n_users

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def domain_ids(self) -> list:
        return sorted(self._numerators)

    def ensure_domain(self, domain_id: int) -> None:
        """Register ``domain_id`` with empty history (no-op if present)."""
        if domain_id not in self._numerators:
            self._numerators[domain_id] = np.zeros(self._n_users, dtype=float)
            self._denominators[domain_id] = np.zeros(self._n_users, dtype=float)

    def merge_domains(self, kept: int, deleted: int) -> None:
        """Absorb domain ``deleted`` into ``kept`` (Section 4.2, case two)."""
        if kept == deleted:
            raise ValueError("cannot merge a domain with itself")
        self.ensure_domain(kept)
        if deleted in self._numerators:
            self._numerators[kept] += self._numerators.pop(deleted)
            self._denominators[kept] += self._denominators.pop(deleted)

    def expertise_column(self, domain_id: int) -> np.ndarray:
        """Current ``u_i^k`` for one domain (Eq. 9), defaults where unseen."""
        numerator = self._numerators.get(domain_id)
        if numerator is None:
            return np.full(self._n_users, DEFAULT_EXPERTISE)
        return expertise_from_sums(numerator, self._denominators[domain_id])

    def expertise_matrix(self) -> ExpertiseMatrix:
        """Snapshot of all domains as an :class:`ExpertiseMatrix`."""
        matrix = ExpertiseMatrix(self._n_users)
        for domain_id in self.domain_ids:
            matrix.add_domain(domain_id)
            matrix.set_column(domain_id, self.expertise_column(domain_id))
        return matrix

    def seed_from_batch(
        self,
        observations: ObservationMatrix,
        task_domains: np.ndarray,
        result: TruthAnalysisResult,
    ) -> None:
        """Initialise the running sums from a warm-up batch MLE result.

        The warm-up contributes undecayed history: its counts and normalised
        errors become the initial ``N``/``D``.
        """
        fresh_n, fresh_d = self._batch_sums(observations, task_domains, result.truths, result.sigmas)
        for domain_id in fresh_n:
            self.ensure_domain(domain_id)
            self._numerators[domain_id] += fresh_n[domain_id]
            self._denominators[domain_id] += fresh_d[domain_id]

    def incorporate(
        self,
        observations: ObservationMatrix,
        task_domains: np.ndarray,
        max_iterations: int = 100,
        commit: bool = True,
        robust: "RobustConfig | None" = None,
        tracer=None,
    ) -> IncorporateResult:
        """Fold one time step's new observations into the expertise state.

        Runs the Section 4.2 alternating iteration: estimate the new tasks'
        truths and base numbers from the current expertise (Eq. 5), refresh
        the decayed sums (Eqs. 7-8) and the expertise (Eq. 9), and repeat
        until the truth estimates converge.  The decay is applied once per
        call (per time step), not once per inner iteration.

        With ``commit=False`` the running sums are left untouched — a
        *preview* used by the min-cost allocator, which re-estimates after
        every recruiting round but must only commit the day's final data.

        ``robust`` enables the Huber/trimmed Eq. 5 reweighting, iteration
        damping, and weighted-median fallback (see
        :class:`~repro.core.robust.RobustConfig`); the Eq. 7-8 sums stay
        unweighted so misbehaving users keep earning low expertise.

        ``tracer`` (an enabled :class:`~repro.observability.RunTracer`)
        receives per-iteration ``mle.iteration`` deltas and the
        convergence verdict; committed previews only — the allocator's
        ``commit=False`` probes pass no tracer, keeping traces about the
        day's actual update.
        """
        task_domains = np.asarray(task_domains)
        if task_domains.shape != (observations.n_tasks,):
            raise ValueError("task_domains must have one label per task")
        if observations.n_users != self._n_users:
            raise ValueError("observation matrix has the wrong number of users")

        distinct = sorted(set(task_domains.tolist()))
        for domain_id in distinct:
            self.ensure_domain(domain_id)

        # Snapshots at time T; the decayed base stays fixed across iterations.
        base_n = {d: self._alpha * self._numerators[d] for d in distinct}
        base_d = {d: self._alpha * self._denominators[d] for d in distinct}

        damping = 1.0 if robust is None else robust.damping
        traced = tracer is not None and tracer.enabled

        expertise = {d: self.expertise_column(d) for d in distinct}
        truths = np.full(observations.n_tasks, np.nan)
        sigmas = np.full(observations.n_tasks, np.nan)
        converged = False
        final_delta = float("nan")
        iterations = 0
        new_n: dict = {}
        new_d: dict = {}
        for iterations in range(1, max_iterations + 1):
            task_expertise = np.vstack([expertise[d] for d in task_domains.tolist()]).T
            new_truths, sigmas = update_truths_for_expertise(
                observations, task_expertise, robust=robust
            )
            if damping < 1.0 and iterations > 1:
                both = ~(np.isnan(new_truths) | np.isnan(truths))
                new_truths = np.where(
                    both, damping * new_truths + (1.0 - damping) * truths, new_truths
                )
            fresh_n, fresh_d = self._batch_sums(observations, task_domains, new_truths, sigmas)
            new_n = {d: base_n[d] + fresh_n.get(d, 0.0) for d in distinct}
            new_d = {d: base_d[d] + fresh_d.get(d, 0.0) for d in distinct}
            expertise = {
                d: self._column_from_sums(new_n[d], new_d[d]) for d in distinct
            }
            if iterations > 1:
                final_delta = _truth_delta(new_truths, truths)
                if traced:
                    tracer.emit("mle.iteration", iteration=iterations, delta=final_delta)
                if _truths_converged(new_truths, truths):
                    truths = new_truths
                    converged = True
                    break
            elif traced:
                tracer.emit("mle.iteration", iteration=iterations, delta=None)
            truths = new_truths

        if traced and converged:
            tracer.emit("mle.converged", iterations=iterations, final_delta=final_delta)

        used_fallback = False
        if robust is not None and robust.fallback and not converged:
            observed = observations.mask.any(axis=0)
            diverged = (
                bool(np.any(~np.isfinite(truths[observed])))
                or not np.isfinite(final_delta)
                or final_delta > robust.fallback_delta
            )
            if diverged:
                truths, sigmas = self._fallback_truths(observations, task_domains, expertise)
                fresh_n, fresh_d = self._batch_sums(observations, task_domains, truths, sigmas)
                new_n = {d: base_n[d] + fresh_n.get(d, 0.0) for d in distinct}
                new_d = {d: base_d[d] + fresh_d.get(d, 0.0) for d in distinct}
                expertise = {
                    d: self._column_from_sums(new_n[d], new_d[d]) for d in distinct
                }
                used_fallback = True
                if traced:
                    tracer.emit(
                        "mle.fallback",
                        final_delta=final_delta,
                        fallback_delta=robust.fallback_delta,
                        n_tasks=observations.n_tasks,
                    )

        if not converged and commit:
            if traced:
                tracer.emit(
                    "mle.non_convergence",
                    iterations=iterations,
                    final_delta=final_delta,
                    n_tasks=observations.n_tasks,
                    n_observations=observations.observation_count,
                )
            _LOG.warning(
                "expertise update did not converge within %d iterations "
                "(final relative change %.4g, %d tasks, %d observations); "
                "committing the %s",
                max_iterations,
                final_delta,
                observations.n_tasks,
                observations.observation_count,
                "weighted-median fallback" if used_fallback else "last iterate",
            )
        if commit:
            for domain_id in distinct:
                self._numerators[domain_id] = new_n[domain_id]
                self._denominators[domain_id] = new_d[domain_id]
        return IncorporateResult(
            truths=truths,
            sigmas=sigmas,
            iterations=iterations,
            converged=converged,
            expertise={d: expertise[d].copy() for d in distinct},
            final_delta=final_delta,
            used_fallback=used_fallback,
        )

    @staticmethod
    def _column_from_sums(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
        return expertise_from_sums(numerator, denominator)

    def _batch_sums(
        self,
        observations: ObservationMatrix,
        task_domains: np.ndarray,
        truths: np.ndarray,
        sigmas: np.ndarray,
    ) -> "tuple[dict, dict]":
        """Per-domain observation counts and normalised squared error sums."""
        mask = observations.mask
        safe_truths = np.where(np.isnan(truths), 0.0, truths)
        normalised_sq = np.where(mask, ((observations.values - safe_truths) / sigmas) ** 2, 0.0)
        fresh_n: dict = {}
        fresh_d: dict = {}
        for domain_id in sorted(set(np.asarray(task_domains).tolist())):
            tasks = np.flatnonzero(np.asarray(task_domains) == domain_id)
            fresh_n[domain_id] = mask[:, tasks].sum(axis=1).astype(float)
            fresh_d[domain_id] = normalised_sq[:, tasks].sum(axis=1)
        return fresh_n, fresh_d

    def _fallback_truths(
        self,
        observations: ObservationMatrix,
        task_domains: np.ndarray,
        expertise: dict,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Guaranteed-finite weighted-median truths for a diverged update."""
        task_expertise = np.vstack(
            [expertise[d] for d in np.asarray(task_domains).tolist()]
        ).T
        rows, cols = np.nonzero(observations.mask)
        return weighted_median_truths(
            rows,
            cols,
            observations.values[rows, cols],
            task_expertise[rows, cols],
            observations.n_tasks,
            SIGMA_FLOOR,
        )
