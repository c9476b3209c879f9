"""Observation sanitization: quarantine bad payloads before truth analysis.

Even with a resilient transport, *delivered* values can be garbage: NaN and
inf payloads from broken sensors, or gross outliers from malfunctioning (or
malicious) clients.  The Section 4.1 MLE weights observations by estimated
expertise, so a single ``1e12`` payload from a so-far-reliable user would
drag a task's truth estimate arbitrarily far.  :class:`ObservationSanitizer`
is a quarantine pass between collection and estimation:

- non-finite payloads (NaN / ±inf) become missing observations;
- optional absolute bounds reject physically impossible values;
- *gross outliers* are detected per task with a robust z-score (median /
  MAD over that task's batch of observations) — observations of the same
  task should agree to within a few base numbers, so a value tens of MADs
  away is quarantined rather than trusted.

Rejected values are replaced by NaN — the pipeline's standard
missing-observation marker — and counted by reason in a
:class:`SanitizeReport`, so operators can see *what* was dropped and *why*
instead of silently losing data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["SanitizeReport", "ObservationSanitizer", "IngestSchema", "ScreenResult"]

#: MAD-to-standard-deviation consistency factor for normal data.
_MAD_SCALE = 1.4826


@dataclass
class SanitizeReport:
    """Counters of quarantined observations, by reason."""

    pairs: int = 0
    nan_payloads: int = 0
    inf_payloads: int = 0
    out_of_bounds: int = 0
    outliers: int = 0
    accepted: int = 0

    @property
    def rejected(self) -> int:
        return self.nan_payloads + self.inf_payloads + self.out_of_bounds + self.outliers

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        parts = [f"{name}={value}" for name, value in self.as_dict().items() if value]
        return "SanitizeReport(" + (", ".join(parts) or "empty") + ")"


@dataclass(frozen=True)
class IngestSchema:
    """What a well-formed ingest report looks like at the service boundary.

    The batch pipeline can afford to *coerce* bad values (NaN is already
    the missing marker), but a streaming front-end must not: a malformed
    report written to the write-ahead log would be replayed forever.  The
    schema pins the valid id ranges so the service can reject before
    durability.
    """

    n_users: int
    n_tasks: int
    min_day: int = 0
    max_day: "int | None" = None

    def __post_init__(self):
        if self.n_users <= 0 or self.n_tasks <= 0:
            raise ValueError("n_users and n_tasks must be positive")
        if self.max_day is not None and self.max_day < self.min_day:
            raise ValueError("max_day must be >= min_day")

    def day_in_range(self, day: int) -> bool:
        if day < self.min_day:
            return False
        return self.max_day is None or day <= self.max_day


@dataclass
class ScreenResult:
    """Outcome of one strict screening pass: what survived, what fell, why."""

    accepted: list
    rejected: list  #: ``(report, reason)`` pairs, in input order.

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)

    def counts(self) -> dict:
        """Rejections by reason (stable reason strings, see ``screen_reports``)."""
        counts: dict = {}
        for _, reason in self.rejected:
            counts[reason] = counts.get(reason, 0) + 1
        return counts


def _middle(ordered: np.ndarray, offsets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.median`` of each group of ``ordered``, whose groups lie sorted at
    ``offsets`` with ``counts`` entries each."""
    low = ordered[offsets + (counts - 1) // 2]
    high = ordered[offsets + counts // 2]
    return np.where(counts % 2 == 1, low, (low + high) / 2)


class ObservationSanitizer:
    """Reject NaN/inf and gross outliers from one batch of observations.

    Parameters
    ----------
    outlier_zscore:
        Robust z-score (``|x - median| / (1.4826 * MAD)``) beyond which a
        value counts as a gross outlier.  The default of 8 is deliberately
        loose — honest low-expertise noise per the paper's model stays well
        inside it, so only wildly corrupt payloads are quarantined.
    min_task_observations:
        Outlier detection needs context: tasks with fewer finite
        observations than this in the batch are left alone (a median over
        two points cannot identify the bad one).
    value_bounds:
        Optional ``(low, high)`` absolute bounds on plausible observations.
    """

    def __init__(
        self,
        outlier_zscore: float = 8.0,
        min_task_observations: int = 3,
        value_bounds: "tuple[float, float] | None" = None,
    ):
        if outlier_zscore <= 0.0:
            raise ValueError("outlier_zscore must be positive")
        if min_task_observations < 3:
            raise ValueError("min_task_observations must be at least 3")
        if value_bounds is not None and value_bounds[0] >= value_bounds[1]:
            raise ValueError("value_bounds must be (low, high) with low < high")
        self._zscore = float(outlier_zscore)
        self._min_obs = int(min_task_observations)
        self._bounds = value_bounds
        self.report = SanitizeReport()

    def sanitize(self, pairs: np.ndarray, values) -> np.ndarray:
        """Return a cleaned copy of ``values``; rejected entries become NaN.

        ``pairs`` are the ``(n, 2)`` ``(user, task)`` rows the values belong
        to — outlier detection groups by task.  NaN inputs pass through
        unchanged (they are already the missing-observation marker) but are
        counted.
        """
        values = np.array(values, dtype=float)
        tasks = np.asarray(pairs).reshape(-1, 2)[:, 1]
        if values.shape != tasks.shape:
            raise ValueError("values must have one entry per pair")
        report = self.report
        report.pairs += len(tasks)

        nan_in = np.isnan(values)
        report.nan_payloads += int(nan_in.sum())

        inf_in = np.isinf(values)
        report.inf_payloads += int(inf_in.sum())
        values[inf_in] = np.nan

        if self._bounds is not None:
            low, high = self._bounds
            with np.errstate(invalid="ignore"):
                bad = (values < low) | (values > high)
            report.out_of_bounds += int(bad.sum())
            values[bad] = np.nan

        bad = self._outliers(tasks, values)
        report.outliers += int(bad.size)
        values[bad] = np.nan

        report.accepted += int(np.isfinite(values).sum())
        return values

    def _outliers(self, tasks: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Indices of the gross outliers among the finite ``values``, per task.

        One sort groups the finite entries by task and orders each group
        by value, so every group's median is read at its middle; a second
        sort orders the absolute deviations for the MAD.  Each median is
        ``np.median``'s: the middle value, or the mean of the two middle
        ones.  Tasks with fewer than ``min_task_observations`` finite
        values are skipped.
        """
        finite = np.flatnonzero(np.isfinite(values))
        order = finite[np.lexsort((values[finite], tasks[finite]))]
        grouped = tasks[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        counts = np.diff(np.r_[starts, order.size])
        keep = counts >= self._min_obs
        members = order[np.repeat(keep, counts)]
        counts = counts[keep]
        offsets = np.cumsum(counts) - counts
        group = np.repeat(np.arange(counts.size), counts)
        sample = values[members]
        median = _middle(sample, offsets, counts)
        deviation = np.abs(sample - median[group])
        mad = _middle(deviation[np.lexsort((deviation, group))], offsets, counts)
        scale = np.maximum(_MAD_SCALE * mad, 1e-12)
        return members[deviation / scale[group] > self._zscore]

    def screen_reports(
        self, reports, schema: IngestSchema, day: "int | None" = None
    ) -> ScreenResult:
        """Strict ingest-schema screening for the service boundary.

        Unlike :meth:`sanitize` — which *coerces* bad payloads to the NaN
        missing marker — this mode **rejects**: every report failing the
        schema is returned in ``ScreenResult.rejected`` with a stable
        reason string, and only clean reports reach the write-ahead log.

        ``reports`` is an iterable of ``(user, task, value)`` triples;
        ``day`` (when given) is the batch's claimed day index.  Reason
        strings: ``"day_out_of_range"`` (rejects the whole batch),
        ``"malformed"`` (not a 3-tuple / non-integer ids),
        ``"unknown_user"``, ``"unknown_task"``, ``"non_finite_value"``,
        and — when ``value_bounds`` is configured — ``"out_of_bounds"``.
        """
        reports = list(reports)
        if day is not None and not schema.day_in_range(int(day)):
            return ScreenResult(
                accepted=[], rejected=[(r, "day_out_of_range") for r in reports]
            )
        accepted: list = []
        rejected: list = []
        for report in reports:
            try:
                user, task, value = report
                user, task, value = int(user), int(task), float(value)
            except (TypeError, ValueError):
                rejected.append((report, "malformed"))
                continue
            if not 0 <= user < schema.n_users:
                rejected.append((report, "unknown_user"))
            elif not 0 <= task < schema.n_tasks:
                rejected.append((report, "unknown_task"))
            elif not math.isfinite(value):
                rejected.append((report, "non_finite_value"))
            elif self._bounds is not None and not (self._bounds[0] <= value <= self._bounds[1]):
                rejected.append((report, "out_of_bounds"))
            else:
                accepted.append((user, task, value))
        return ScreenResult(accepted=accepted, rejected=rejected)
