"""Fisher-information confidence intervals for the MLE truth estimate.

Section 5.2.2 of the paper evaluates data quality probabilistically: the MLE
estimator ``mu_hat_j`` is asymptotically normal with variance approximated by
the inverse Fisher information (Eq. 23)::

    var(mu_hat_j) ~= sigma_j^2 / sum_i s_ij * u_ij^2

so the ``1 - alpha`` confidence interval (Eq. 24) is::

    mu_hat_j +- Z_{alpha/2} * sigma_j / sqrt(sum_i s_ij * u_ij^2)

Algorithm 2 accepts a task once this interval is no wider than
``2 * eps_bar * sigma_j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.stats.normal import standard_normal_quantile

__all__ = [
    "ConfidenceInterval",
    "truth_fisher_information",
    "mle_truth_confidence_interval",
    "truth_half_widths",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around an estimate."""

    center: float
    half_width: float
    confidence: float

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    @property
    def width(self) -> float:
        return 2.0 * self.half_width

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def satisfies_quality(self, sigma: float, error_limit: float) -> bool:
        """Eq. 21's acceptance test: interval fits inside ``+- error_limit * sigma``.

        Equivalently the interval width must not exceed ``2 * error_limit *
        sigma`` (the Algorithm 2 line-13 check).
        """
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if error_limit <= 0:
            raise ValueError("error_limit must be positive")
        return self.width <= 2.0 * error_limit * sigma


def _fisher_information(expertise, selected, sigmas) -> np.ndarray:
    """Eq. 23 per task: ``sum_i s_ij * u_ij^2 / sigma_j^2`` (axis 0 = users).

    Callers hold ``np.errstate`` for the division: a zero sigma is theirs
    to mask.
    """
    u = np.asarray(expertise, dtype=float)
    if (selected & (u < 0)).any():
        raise ValueError("expertise values must be non-negative")
    sigmas = np.asarray(sigmas, dtype=float)
    return np.where(selected, u * u, 0.0).sum(axis=0) / (sigmas * sigmas)


@lru_cache(maxsize=16)
def _critical_value(confidence: float) -> float:
    """Eq. 24's ``Z_{alpha/2}`` for ``alpha = 1 - confidence``, made once per level."""
    alpha = 1.0 - confidence
    return float(standard_normal_quantile(1.0 - alpha / 2.0))


def truth_half_widths(expertise, selected, sigmas, confidence: float = 0.95) -> np.ndarray:
    """Eq. 24 half-widths ``Z_{alpha/2} / sqrt(I(mu_j))`` for every task at once.

    ``expertise`` and ``selected`` are ``(n_users, n_tasks)`` matrices of
    ``u_ij`` and ``s_ij`` (a 1-D ``expertise`` is one task's users), and
    ``sigmas`` holds each task's ``sigma_j``.  A task with zero Fisher
    information (no selected user with positive expertise) gets an
    infinite half-width, so Algorithm 2 keeps recruiting for it.  Values
    for tasks whose sigma is not positive and finite are meaningless;
    callers mask them.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = _critical_value(confidence)
    with np.errstate(divide="ignore", invalid="ignore"):
        info = _fisher_information(expertise, selected, sigmas)
        return np.where(info <= 0.0, np.inf, z / np.sqrt(info))


def truth_fisher_information(expertise: Sequence[float], sigma: float) -> float:
    """Fisher information ``I(mu_j) = sum_i u_ij^2 / sigma_j^2`` (Eq. 23).

    ``expertise`` holds the expertise values ``u_ij`` of the users *selected*
    for task j (i.e. those with ``s_ij = 1``).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_fisher_information(expertise, True, sigma))


def mle_truth_confidence_interval(
    estimate: float,
    expertise: Sequence[float],
    sigma: float,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """The Eq. 24 confidence interval for the ground truth ``mu_j``.

    ``expertise`` holds the selected users' ``u_ij``; the half-width is
    infinite when no informative observation has been collected yet.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    half_width = float(truth_half_widths(expertise, True, sigma, confidence))
    return ConfidenceInterval(center=estimate, half_width=half_width, confidence=confidence)
