"""Expertise profiles (Section 2.4) with the numerical guards MLE needs.

A user's expertise profile is a vector over expertise domains; the
observation model says user *i* observes task *j* as
``N(mu_j, (sigma_j / u_i^{d_j})^2)``, so expertise scales inverse standard
deviation.  The MLE equations divide by expertise and by counts, which makes
three guards necessary in practice (the paper leaves them implicit):

- ``MIN_EXPERTISE`` — expertise must stay strictly positive for the model's
  variance to be finite;
- ``MAX_EXPERTISE`` — a user who happens to be a task's sole observer has
  zero empirical error there, which would send the Eq. 6 estimate to
  infinity; capping keeps the allocation objective finite;
- ``DEFAULT_EXPERTISE = 1`` — the paper's initial value for the iterative
  process, also used for (user, domain) pairs with no observations yet.

:class:`ExpertiseMatrix` is a read-only snapshot that maps the library's
stable *domain ids* (which grow and merge over time) onto matrix columns.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["MIN_EXPERTISE", "MAX_EXPERTISE", "DEFAULT_EXPERTISE", "clamp_expertise", "ExpertiseMatrix"]

MIN_EXPERTISE = 0.05
MAX_EXPERTISE = 10.0
DEFAULT_EXPERTISE = 1.0

#: Shrinkage prior on the Eq. 6 ratio: the estimate becomes
#: ``sqrt((N + s) / (D + s))`` — equivalent to ``s`` pseudo-observations with
#: unit normalised error, pulling low-data estimates toward
#: :data:`DEFAULT_EXPERTISE`.  Without it, a user whose few observations
#: happen to dominate a task's weighted truth estimate gets a runaway
#: expertise (its own residuals shrink as its weight grows), the allocator
#: then routes everything to that user, and the error *increases* over days.
#: The strength trades off: too large and sparse datasets (a user sees ~1
#: task per domain per day) never move off the default, erasing ETA2's
#: advantage; 0.25 keeps early estimates bounded near sqrt(4N + 1) while
#: letting consistent experts be recognised within a couple of days.
EXPERTISE_PRIOR_STRENGTH = 0.25


def clamp_expertise(values):
    """Clamp expertise into ``[MIN_EXPERTISE, MAX_EXPERTISE]`` (NaN -> default)."""
    values = np.asarray(values, dtype=float)
    values = np.where(np.isnan(values), DEFAULT_EXPERTISE, values)
    return np.clip(values, MIN_EXPERTISE, MAX_EXPERTISE)


def expertise_from_sums(numerators, denominators):
    """Eq. 6 / Eq. 9 expertise from running sums, with the shrinkage prior.

    ``u = sqrt((N + s) / (D + s))`` where ``s`` is
    :data:`EXPERTISE_PRIOR_STRENGTH`.  (N, D) = (0, 0) yields exactly
    :data:`DEFAULT_EXPERTISE`; the result is clamped into the legal range.
    """
    numerators = np.asarray(numerators, dtype=float)
    denominators = np.asarray(denominators, dtype=float)
    if np.any(numerators < 0) or np.any(denominators < 0):
        raise ValueError("expertise sums must be non-negative")
    return expertise_from_own_sums(numerators, denominators)


def expertise_from_own_sums(numerators: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """:func:`expertise_from_sums` for float sums the caller built non-negative.

    The Section 4 sweeps refresh expertise from sums they accumulated
    themselves, so they skip the input checks; the arithmetic and the
    clamp are the same.
    """
    squared = (numerators + EXPERTISE_PRIOR_STRENGTH) / (denominators + EXPERTISE_PRIOR_STRENGTH)
    return clamp_expertise(np.sqrt(squared))


class ExpertiseMatrix:
    """Read-only snapshot of per-user expertise over a set of domains.

    ``values`` is ``(n_users, n_domains)`` with one column per entry of
    ``domain_ids`` (stable external ids, in column order).  Unknown (user,
    domain) pairs read as :data:`DEFAULT_EXPERTISE`.
    """

    def __init__(self, values, domain_ids: Sequence):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be 2-D (users x domains)")
        if values.shape[0] <= 0:
            raise ValueError("n_users must be positive")
        self._columns = {domain_id: k for k, domain_id in enumerate(domain_ids)}
        if len(self._columns) != len(domain_ids):
            raise ValueError("domain_ids must be distinct")
        if values.shape[1] != len(domain_ids):
            raise ValueError("domain_ids must match the number of columns")
        # One trailing DEFAULT_EXPERTISE column: unknown domains gather it.
        default = np.full((values.shape[0], 1), DEFAULT_EXPERTISE)
        self._values = np.hstack([clamp_expertise(values), default])
        self._values.flags.writeable = False

    @property
    def n_users(self) -> int:
        return self._values.shape[0]

    @property
    def domain_ids(self) -> list:
        return sorted(self._columns)

    @property
    def n_domains(self) -> int:
        return len(self._columns)

    def has_domain(self, domain_id: int) -> bool:
        return domain_id in self._columns

    def expertise(self, user: int, domain_id: int) -> float:
        """``u_i^k``; default for domains this matrix has never seen."""
        return float(self._values[user, self._columns.get(domain_id, -1)])

    def column(self, domain_id: int) -> np.ndarray:
        """All users' expertise in one domain (read-only view)."""
        try:
            return self._values[:, self._columns[domain_id]]
        except KeyError:
            raise KeyError(f"unknown domain id: {domain_id}") from None

    def profile(self, user: int) -> dict:
        """User ``i``'s expertise vector ``U^i`` as a domain-id -> value map."""
        return {d: float(self._values[user, self._columns[d]]) for d in self.domain_ids}

    def as_dict(self) -> Mapping:
        """Snapshot as ``{domain_id: ndarray of per-user expertise}``."""
        return {d: self._values[:, self._columns[d]].copy() for d in self.domain_ids}
