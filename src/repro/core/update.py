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

from dataclasses import dataclass

import numpy as np

from repro.core.expertise import ExpertiseMatrix, expertise_from_sums
from repro.core.truth import (
    TruthAnalysisResult,
    _check_solve_inputs,
    _emit_sweeps,
    _report_non_convergence,
    _solve,
    _SparseObservations,
)
from repro.truthdiscovery.base import ObservationMatrix

__all__ = ["ExpertiseUpdater", "IncorporateResult"]


@dataclass(frozen=True)
class IncorporateResult:
    """Truths/sigmas of one time step's new tasks plus convergence info.

    ``task_expertise`` is the post-update ``(n_users, n_tasks)`` matrix
    ``u_{i, d_j}`` for the step's tasks, so callers (e.g. the min-cost
    quality check) can read the refreshed values without re-deriving them
    from the updater.
    """

    truths: np.ndarray
    sigmas: np.ndarray
    iterations: int
    converged: bool
    task_expertise: np.ndarray
    #: Largest per-task relative truth change at the last inner iteration
    #: (NaN when only one iteration ran).
    final_delta: float = float("nan")


@dataclass(frozen=True)
class _Pending:
    """One solved update, held until it is committed or superseded.

    A preview keeps it so that a commit of the same data stores its sums
    instead of solving again (Algorithm 2 previews every round, then the
    pipeline commits the last round's matrix).  The key is the matrix
    *object* plus the tasks' domains and the solve settings: an
    :class:`ObservationMatrix` and its arrays are read-only.
    """

    observations: ObservationMatrix
    task_domains: np.ndarray
    max_iterations: int
    columns: np.ndarray
    new_n: np.ndarray
    new_d: np.ndarray
    deltas: list
    n_observations: int
    result: IncorporateResult

    def matches(self, observations, task_domains, max_iterations) -> bool:
        return (
            observations is self.observations
            and max_iterations == self.max_iterations
            and np.array_equal(task_domains, self.task_domains)
        )

    def report(self, commit: bool, tracer) -> None:
        """The solve's ``mle.*`` events and warnings, fresh or reused alike."""
        result = self.result
        _emit_sweeps(self.deltas, result.converged, tracer)
        if commit and not result.converged:
            _report_non_convergence(
                len(self.task_domains),
                self.n_observations,
                result.iterations,
                result.final_delta,
                tracer,
            )


class ExpertiseUpdater:
    """Running ``N``/``D`` sums per (user, domain) with decay ``alpha``.

    The sums are two ``(n_users, n_domains)`` arrays; ``_columns`` maps each
    domain id to its column (in column order: new domains are appended and
    a merge deletes the absorbed column).  ``_pending`` is the last
    uncommitted solve; every change to the sums or columns drops it.
    """

    def __init__(self, n_users: int, alpha: float = 0.5):
        if n_users <= 0:
            raise ValueError("n_users must be positive")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        self._n_users = int(n_users)
        self._alpha = float(alpha)
        self._columns: dict = {}
        self._numerators = np.zeros((self._n_users, 0))
        self._denominators = np.zeros((self._n_users, 0))
        self._pending: "_Pending | None" = None

    @property
    def n_users(self) -> int:
        return self._n_users

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def domain_ids(self) -> list:
        return sorted(self._columns)

    def ensure_domain(self, domain_id: int) -> None:
        """Register ``domain_id`` with empty history (no-op if present)."""
        if domain_id not in self._columns:
            self._pending = None
            self._columns[domain_id] = self._numerators.shape[1]
            empty = np.zeros((self._n_users, 1))
            self._numerators = np.hstack([self._numerators, empty])
            self._denominators = np.hstack([self._denominators, empty])

    def merge_domains(self, kept: int, deleted: int) -> None:
        """Absorb domain ``deleted`` into ``kept`` (Section 4.2, case two)."""
        if kept == deleted:
            raise ValueError("cannot merge a domain with itself")
        self.ensure_domain(kept)
        if deleted not in self._columns:
            return
        self._pending = None
        target, source = self._columns[kept], self._columns.pop(deleted)
        self._numerators[:, target] += self._numerators[:, source]
        self._denominators[:, target] += self._denominators[:, source]
        self._numerators = np.delete(self._numerators, source, axis=1)
        self._denominators = np.delete(self._denominators, source, axis=1)
        for domain_id, column in self._columns.items():
            if column > source:
                self._columns[domain_id] = column - 1

    def expertise_column(self, domain_id: int) -> np.ndarray:
        """Current ``u_i^k`` for one domain (Eq. 9), defaults where unseen."""
        return self.task_expertise([domain_id])[:, 0]

    def expertise_matrix(self) -> ExpertiseMatrix:
        """Snapshot of all domains as an :class:`ExpertiseMatrix` (Eq. 9)."""
        values = expertise_from_sums(self._numerators, self._denominators)
        return ExpertiseMatrix(values, list(self._columns))

    def task_expertise(self, task_domains) -> np.ndarray:
        """The ``(n_users, n_tasks)`` matrix ``u_{i, d_j}``; unseen domains default."""
        return self.expertise_matrix().for_tasks(task_domains)

    def _domain_block(
        self, observations: ObservationMatrix, task_domains: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, _SparseObservations]":
        """Register the tasks' domains; their columns, each task's index into them, the layout."""
        distinct, inverse = np.unique(task_domains, return_inverse=True)
        domain_ids = distinct.tolist()
        for domain_id in domain_ids:
            self.ensure_domain(domain_id)
        columns = np.array([self._columns[d] for d in domain_ids], dtype=np.intp)
        return columns, inverse, _SparseObservations(observations, inverse, len(columns))

    def _check_inputs(self, observations, task_domains, max_iterations: int) -> np.ndarray:
        """``task_domains`` as an array once the inputs fit this updater."""
        task_domains = _check_solve_inputs(observations, task_domains, max_iterations)
        if observations.n_users != self._n_users:
            raise ValueError("observation matrix has the wrong number of users")
        return task_domains

    def seed_from_batch(
        self,
        observations: ObservationMatrix,
        task_domains: np.ndarray,
        result: TruthAnalysisResult,
    ) -> None:
        """Initialise the running sums from a warm-up batch MLE result.

        The warm-up contributes undecayed history: its counts and normalised
        errors become the initial ``N``/``D``.  Inputs that do not fit are
        rejected before any domain is registered.
        """
        task_domains = self._check_inputs(observations, task_domains, 1)
        shape = (observations.n_tasks,)
        if np.shape(result.truths) != shape or np.shape(result.sigmas) != shape:
            raise ValueError("result must have one truth and one sigma per task")
        columns, _, sparse = self._domain_block(observations, task_domains)
        self._pending = None
        self._numerators[:, columns] += sparse.count_sums
        self._denominators[:, columns] += sparse.denominator_sums(result.truths, result.sigmas)

    def incorporate(
        self,
        observations: ObservationMatrix,
        task_domains: np.ndarray,
        max_iterations: int = 100,
        commit: bool = True,
        tracer=None,
    ) -> IncorporateResult:
        """Fold one time step's new observations into the expertise state.

        Runs the Section 4.2 alternating iteration
        (:func:`repro.core.truth._solve`): estimate the new tasks' truths
        and base numbers from the current expertise (Eq. 5), refresh the
        decayed sums (Eqs. 7-8) and the expertise (Eq. 9), and repeat until
        the truth estimates converge.  The decay is applied once per
        call (per time step), not once per inner iteration.

        With ``commit=False`` the running sums are left untouched — a
        *preview* used by the min-cost allocator, which re-estimates after
        every recruiting round but must only commit the day's final data.
        (Domains seen for the first time are still registered, with empty
        history.)  The updater keeps the last preview: a call with the same
        ``observations`` object, equal ``task_domains`` and
        ``max_iterations``, and no change to the sums in between, returns
        and commits that solve instead of running it again.  Its outputs,
        events and warnings are those of a fresh solve.

        ``tracer`` (an enabled :class:`~repro.observability.RunTracer`)
        receives per-iteration ``mle.iteration`` deltas and the
        convergence verdict; committed previews only — the allocator's
        ``commit=False`` probes pass no tracer, keeping traces about the
        day's actual update.
        """
        task_domains = self._check_inputs(observations, task_domains, max_iterations)
        pending = self._pending
        if pending is None or not pending.matches(observations, task_domains, max_iterations):
            pending = self._solve_step(observations, task_domains, max_iterations)
        pending.report(commit, tracer)
        if commit:
            self._numerators[:, pending.columns] = pending.new_n
            self._denominators[:, pending.columns] = pending.new_d
            self._pending = None
        else:
            self._pending = pending
        return pending.result

    def _solve_step(self, observations, task_domains, max_iterations) -> _Pending:
        """Run the Section 4.2 iteration against the current sums (no commit)."""
        columns, inverse, sparse = self._domain_block(observations, task_domains)
        # Snapshots at time T; the decayed base stays fixed across iterations
        # and the fresh Eq. 7 counts do not depend on the iterate.
        new_n = self._alpha * self._numerators[:, columns] + sparse.count_sums
        base_d = self._alpha * self._denominators[:, columns]
        new_d = base_d

        def refresh(truths: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
            # Eqs. 8-9; the last sums are the ones a commit stores.
            nonlocal new_d
            new_d = base_d + sparse.denominator_sums(truths, sigmas)
            return expertise_from_sums(new_n, new_d)

        expertise = expertise_from_sums(
            self._numerators[:, columns], self._denominators[:, columns]
        )
        truths, sigmas, expertise, deltas, converged, final_delta = _solve(
            sparse, expertise, refresh, max_iterations
        )
        return _Pending(
            observations=observations,
            task_domains=task_domains.copy(),
            max_iterations=max_iterations,
            columns=columns,
            new_n=new_n,
            new_d=new_d,
            deltas=deltas,
            n_observations=sparse.cols.size,
            result=IncorporateResult(
                truths=truths,
                sigmas=sigmas,
                iterations=len(deltas),
                converged=converged,
                task_expertise=expertise[:, inverse],
                final_delta=final_delta,
            ),
        )
