"""Expertise-aware truth analysis: the batch MLE of Section 4.1.

The statistical model: if ``w_ij = 1``, observation ``x_ij`` is a draw from
``N(mu_j, (sigma_j / u_i^{d_j})^2)``.  Setting the log-likelihood derivatives
to zero yields the coordinate equations (Eqs. 5-6)::

    mu_j     = sum_i w_ij u_ij^2 x_ij / sum_i w_ij u_ij^2
    sigma_j^2 = sum_i w_ij u_ij^2 (x_ij - mu_j)^2 / sum_i w_ij
    (u_i^k)^2 = sum_j I(d_j = k) w_ij
                / sum_j I(d_j = k) w_ij (x_ij - mu_j)^2 / sigma_j^2

iterated from ``u = 1`` until every task's truth estimate changes by less
than 5 % between consecutive iterations (the paper's convergence criterion;
an absolute tolerance guards truths near zero).  The iteration count is
recorded — Figure 12 plots its CDF.  The Section 4.2 daily update in
:mod:`repro.core.update` runs the same iteration (:func:`_solve`) with an
Eqs. 7-9 expertise refresh in place of Eq. 6.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.expertise import DEFAULT_EXPERTISE, expertise_from_own_sums
from repro.truthdiscovery.base import ObservationMatrix, nonzero_coordinates

__all__ = ["TruthAnalysisResult", "estimate_truth", "update_truths_for_expertise", "SIGMA_FLOOR"]

_LOG = logging.getLogger(__name__)

#: Base numbers are floored away from zero: a task whose observations happen
#: to coincide would otherwise produce a zero variance and infinite weights.
SIGMA_FLOOR = 1e-6

#: The paper's convergence criterion: truth changes below 5 % (relative).
RELATIVE_TOLERANCE = 0.05

#: Absolute fallback for truths at or near zero, where a relative criterion
#: never triggers.
ABSOLUTE_TOLERANCE = 1e-3


@dataclass(frozen=True)
class TruthAnalysisResult:
    """Output of the batch MLE."""

    truths: np.ndarray
    sigmas: np.ndarray
    expertise: np.ndarray
    domain_ids: tuple
    iterations: int
    converged: bool
    #: Largest per-task relative truth change at the last iteration (the
    #: quantity the convergence criterion thresholds at 5 %).  NaN when a
    #: single iteration ran; chaos tests assert on it to tell a *slow* run
    #: (delta just above tolerance) from a *diverging* one.
    final_delta: float = float("nan")
    #: Each solved task's column in ``expertise`` (None for results built
    #: elsewhere).
    domain_columns: "np.ndarray | None" = None

    def expertise_for_tasks(self, task_domains: np.ndarray) -> np.ndarray:
        """``u_{i, d_j}`` of the solved tasks, whose labels ``task_domains``
        must be, gathered by :attr:`domain_columns`."""
        columns = self.domain_columns
        if columns is None or not np.array_equal(np.take(self.domain_ids, columns), task_domains):
            raise ValueError("task_domains are not the labels this result was solved for")
        return self.expertise[:, columns]


def update_truths_for_expertise(
    observations: ObservationMatrix,
    task_expertise: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """One Eq. 5 pass: truths and base numbers given per-task expertise.

    ``task_expertise`` is the ``(n_users, n_tasks)`` matrix ``u_{i, d_j}``.
    Returns ``(truths, sigmas)``; unobserved tasks get NaN truth and the
    sigma floor.
    """
    rows, cols = nonzero_coordinates(observations.mask)
    return _truth_pass(
        cols,
        observations.values[rows, cols],
        task_expertise[rows, cols],
        np.bincount(cols, minlength=observations.n_tasks),
        observations.n_tasks,
    )


def _truth_pass(
    cols: np.ndarray,
    values: np.ndarray,
    obs_expertise: np.ndarray,
    task_counts: np.ndarray,
    n_tasks: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Eq. 5 over the observed entries: the one truth-pass body.

    ``cols``/``values``/``obs_expertise`` list the observed entries in
    row-major order with each one's task, value and ``u_{i, d_j}``.  The
    sums are scatter-sums (``np.bincount``), so each task's accumulation
    order is a function of its *own* observations only and a column
    subset reproduces the full-matrix result bit for bit -- a dense
    ``sum(axis=0)`` does not, its reduction tree changes with the matrix
    width.
    """
    weights = obs_expertise**2
    weight_totals = np.bincount(cols, weights=weights, minlength=n_tasks)
    weighted_values = np.bincount(cols, weights=weights * values, minlength=n_tasks)
    observed = weight_totals > 0
    truths = np.where(observed, weighted_values / np.where(observed, weight_totals, 1.0), np.nan)
    safe_truths = np.where(np.isnan(truths), 0.0, truths)
    residuals = values - safe_truths[cols]
    weighted_square = np.bincount(cols, weights=weights * residuals**2, minlength=n_tasks)
    variance = np.where(task_counts > 0, weighted_square / np.maximum(task_counts, 1), 0.0)
    sigmas = np.maximum(np.sqrt(variance), SIGMA_FLOOR)
    return truths, sigmas


class _SparseObservations:
    """The coordinate iteration's loop-invariant sparse structure.

    Observation masks are typically 10-30 % dense in this system, so the
    per-iteration Eq. 5/6/8 passes work on the ``nnz`` observed entries
    (gathers plus ``bincount`` scatter-sums) instead of full
    ``(n_users, n_tasks)`` products.  Everything that does not depend on
    the current truths/expertise -- the observed coordinates (row-major,
    the order of ``np.nonzero``), their values, each one's flat index
    into the ``(n_users, n_domains)`` expertise block, per-task counts,
    and the Eq. 6 numerators (pure observation counts) -- is computed once
    per solve.  The expertise arrays the passes take are such blocks,
    whose columns ``domain_columns`` indexes.
    """

    __slots__ = (
        "cols",
        "values",
        "flat_user_domain",
        "task_counts",
        "count_sums",
        "n_users",
        "n_tasks",
        "n_domains",
    )

    def __init__(self, observations: ObservationMatrix, domain_columns: np.ndarray, n_domains: int):
        self.n_users = observations.n_users
        self.n_tasks = observations.n_tasks
        self.n_domains = int(n_domains)
        rows, self.cols = nonzero_coordinates(observations.mask)
        self.values = observations.values[rows, self.cols]
        self.flat_user_domain = rows * self.n_domains + domain_columns[self.cols]
        self.task_counts = np.bincount(self.cols, minlength=self.n_tasks)
        # Eq. 6 / Eq. 7 numerators: per-(user, domain) observation counts.
        # They are independent of the iterate, so they are counted once.
        self.count_sums = (
            np.bincount(self.flat_user_domain, minlength=self.n_users * self.n_domains)
            .reshape(self.n_users, self.n_domains)
            .astype(float)
        )

    def truth_pass(self, expertise: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Eq. 5 for the domain-block ``expertise``."""
        obs_expertise = expertise.take(self.flat_user_domain)
        return _truth_pass(self.cols, self.values, obs_expertise, self.task_counts, self.n_tasks)

    def denominator_sums(self, truths: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Eq. 6 / Eq. 8 denominators ``sum_j I(d_j = k) w_ij (x_ij - mu_j)^2 / sigma_j^2``.

        One scatter-sum over the row-major observed entries: each (user,
        domain) sum adds its terms one by one in ascending task order.
        """
        safe_truths = np.where(np.isnan(truths), 0.0, truths)
        normalised_sq = ((self.values - safe_truths[self.cols]) / sigmas[self.cols]) ** 2
        return np.bincount(
            self.flat_user_domain,
            weights=normalised_sq,
            minlength=self.n_users * self.n_domains,
        ).reshape(self.n_users, self.n_domains)

    def expertise_pass(self, truths: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Eq. 6 over the batch's own sums."""
        # The shrinkage prior keeps low-data estimates near the default and
        # makes (0, 0) sums yield exactly the uninformed default.
        return expertise_from_own_sums(self.count_sums, self.denominator_sums(truths, sigmas))


def _convergence(new: np.ndarray, old: np.ndarray) -> "tuple[bool, float]":
    """The 5 % test between consecutive iterates, and the largest change.

    ``new`` and ``old`` hold the truths of the tasks both iterates
    estimate (see :func:`_solve`).  The test passes when every one moved
    by at most ``RELATIVE_TOLERANCE`` of its old truth or by at most
    ``ABSOLUTE_TOLERANCE``.  The reported delta is the largest relative
    move with the scale floored at ``ABSOLUTE_TOLERANCE /
    RELATIVE_TOLERANCE``, so near-zero truths report their absolute
    movement on the same 5 %-comparable footing.  Both tolerances are read
    at call time.
    """
    if not new.size:
        return True, 0.0
    delta = np.abs(new - old)
    scale = np.abs(old)
    relative_ok = delta <= RELATIVE_TOLERANCE * np.maximum(scale, 1e-12)
    absolute_ok = delta <= ABSOLUTE_TOLERANCE
    floored = np.maximum(scale, ABSOLUTE_TOLERANCE / RELATIVE_TOLERANCE)
    return bool((relative_ok | absolute_ok).all()), float((delta / floored).max())


def _check_solve_inputs(observations: ObservationMatrix, task_domains, max_iterations: int):
    """``task_domains`` as an array, after the checks both entry points share."""
    task_domains = np.asarray(task_domains)
    if task_domains.shape != (observations.n_tasks,):
        raise ValueError("task_domains must have one label per task")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    return task_domains


def _solve(sparse: _SparseObservations, expertise, refresh, max_iterations):
    """The Section 4 coordinate iteration, shared by Sections 4.1 and 4.2.

    Each sweep runs Eq. 5 on the current domain-block ``expertise``, then
    ``refresh(truths, sigmas)`` for the next expertise: Eq. 6 over the
    batch, or Eqs. 7-9 over the decayed sums.  It stops once the truths
    pass the 5 % test, which compares the tasks the first sweep
    estimates.  Eq. 5 weights are positive and finite in every sweep, so a
    task whose truth is NaN once (no observations, or a NaN observation)
    is NaN in every sweep; the set is fixed once per solve.

    Returns ``(truths, sigmas, expertise, deltas, converged,
    final_delta)``.  ``deltas`` holds each sweep's largest truth change
    (None for the first sweep), the record :func:`_emit_sweeps` turns into
    ``mle.*`` events; ``final_delta`` is its last entry, NaN when one
    sweep ran.
    """
    estimated_tasks = None
    previous = None
    converged = False
    final_delta = float("nan")
    deltas = []
    for iterations in range(1, max_iterations + 1):
        truths, sigmas = sparse.truth_pass(expertise)
        expertise = refresh(truths, sigmas)
        if estimated_tasks is None:
            estimated_tasks = np.flatnonzero(~np.isnan(truths))
        estimated = truths.take(estimated_tasks)
        if iterations > 1:
            converged, final_delta = _convergence(estimated, previous)
        deltas.append(final_delta if iterations > 1 else None)
        previous = estimated
        if converged:
            break
    return truths, sigmas, expertise, deltas, converged, final_delta


def _emit_sweeps(deltas, converged: bool, tracer) -> None:
    """One ``mle.iteration`` per recorded sweep delta, then ``mle.converged``.

    The one emission path for a solve's sweeps, whether the solve just ran
    or an update commits a previewed one (:mod:`repro.core.update`).
    """
    if tracer is None or not tracer.enabled:
        return
    for iteration, delta in enumerate(deltas, start=1):
        tracer.emit("mle.iteration", iteration=iteration, delta=delta)
    if converged:
        tracer.emit("mle.converged", iterations=len(deltas), final_delta=deltas[-1])


def _report_non_convergence(n_tasks, n_observations, iterations, final_delta, tracer) -> None:
    """Emit ``mle.non_convergence`` and log a warning for a solve that ran out."""
    if tracer is not None and tracer.enabled:
        tracer.emit(
            "mle.non_convergence",
            iterations=iterations,
            final_delta=final_delta,
            n_tasks=n_tasks,
            n_observations=n_observations,
        )
    # Surface degraded estimates instead of silently returning them:
    # an operator watching the logs can tell a bad day from a good one.
    _LOG.warning(
        "truth analysis did not converge within %d iterations "
        "(final relative change %.4g, %d tasks, %d observations)",
        iterations,
        final_delta,
        n_tasks,
        n_observations,
    )


def estimate_truth(
    observations: ObservationMatrix,
    task_domains,
    max_iterations: int = 100,
    tracer=None,
) -> TruthAnalysisResult:
    """Run the Section 4.1 MLE over one batch of observations.

    Parameters
    ----------
    observations:
        The ``(n_users, n_tasks)`` observation matrix.
    task_domains:
        Per-task domain-id labels (length ``n_tasks``).  The expertise
        columns are their sorted distinct values, and the iteration starts
        from the paper's all-ones expertise.
    max_iterations:
        Cap on the Eq. 5-6 sweeps; at least 1.
    tracer:
        Optional :class:`~repro.observability.RunTracer`; when enabled it
        receives one ``mle.iteration`` event per Eq. 5-6 sweep (with the
        max relative truth delta) and a ``mle.converged`` or
        ``mle.non_convergence`` verdict.  The extra delta computations are
        trace-only and never change the estimate.
    """
    task_domains = _check_solve_inputs(observations, task_domains, max_iterations)
    if observations.observation_count == 0:
        raise ValueError("observation matrix is empty")

    domain_ids, domain_columns = np.unique(task_domains, return_inverse=True)
    sparse = _SparseObservations(observations, domain_columns, len(domain_ids))
    expertise = np.full((observations.n_users, len(domain_ids)), DEFAULT_EXPERTISE)
    truths, sigmas, expertise, deltas, converged, final_delta = _solve(
        sparse, expertise, sparse.expertise_pass, max_iterations
    )
    iterations = len(deltas)
    _emit_sweeps(deltas, converged, tracer)
    if not converged:
        _report_non_convergence(
            sparse.n_tasks, sparse.cols.size, iterations, final_delta, tracer
        )
    # One more Eq. 5 pass, so the truths match the final expertise.
    truths, sigmas = sparse.truth_pass(expertise)
    return TruthAnalysisResult(
        truths=truths,
        sigmas=sigmas,
        expertise=expertise,
        domain_ids=tuple(domain_ids.tolist()),
        iterations=iterations,
        converged=converged,
        final_delta=final_delta,
        domain_columns=domain_columns,
    )
