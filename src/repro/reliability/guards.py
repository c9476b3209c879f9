"""Phase-boundary invariant guards for the ETA2 closed loop.

The closed loop feeds each phase's output straight into the next phase's
input, so a single non-finite truth or a zero base number does not stay
local: it poisons the Eq. 7-8 sums, which poisons expertise, which poisons
every later day's allocation.  The estimators carry their own local guards
(sigma floor, expertise clamp); this module adds the *boundary* checks —
executable statements of what each phase is entitled to assume about the
previous one — with a configurable response:

- ``"warn"`` (default): log and record the violation, pass data through
  untouched.  For monitoring production-like runs.
- ``"raise"``: raise :class:`InvariantViolationError` immediately.  For
  tests and debugging, where a poisoned value should fail loudly at its
  source instead of three phases later.
- ``"repair"``: substitute a safe value (NaN truth → stays missing but
  its sigma is floored; non-positive sigma → floor; out-of-range or
  non-finite expertise → clamped / default) and record what was done.
  For keep-the-loop-alive deployments.

Checks are pure numpy predicates — no RNG, no wall clock — so enabling
them never perturbs results beyond the repairs they report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.expertise import (
    DEFAULT_EXPERTISE,
    MAX_EXPERTISE,
    MIN_EXPERTISE,
    clamp_expertise,
)
from repro.core.hooks import StepHook
from repro.core.truth import SIGMA_FLOOR

__all__ = [
    "GuardConfig",
    "GuardHook",
    "GuardReport",
    "GuardViolation",
    "InvariantGuard",
    "InvariantViolationError",
]

_LOG = logging.getLogger(__name__)

_POLICIES = ("warn", "raise", "repair")


class InvariantViolationError(RuntimeError):
    """A phase-boundary invariant failed under the ``"raise"`` policy."""


@dataclass(frozen=True)
class GuardConfig:
    """Policy and numeric bounds for :class:`InvariantGuard`."""

    policy: str = "warn"
    sigma_floor: float = SIGMA_FLOOR
    min_expertise: float = MIN_EXPERTISE
    max_expertise: float = MAX_EXPERTISE

    def __post_init__(self):
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if self.sigma_floor <= 0.0:
            raise ValueError("sigma_floor must be positive")
        if not 0.0 < self.min_expertise <= self.max_expertise:
            raise ValueError("expertise bounds must satisfy 0 < min <= max")


@dataclass(frozen=True)
class GuardViolation:
    """One failed invariant: which check, where, and how many entries."""

    check: str
    phase: str
    count: int
    detail: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "phase": self.phase,
            "count": self.count,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class GuardReport:
    """Violations found (and possibly repaired) at one or more boundaries."""

    violations: tuple = ()
    repaired: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violation_count(self) -> int:
        return sum(v.count for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "repaired": self.repaired,
            "violations": [v.to_dict() for v in self.violations],
        }

    @staticmethod
    def merge(reports) -> "GuardReport":
        reports = [r for r in reports if r is not None]
        violations = tuple(v for r in reports for v in r.violations)
        return GuardReport(
            violations=violations, repaired=any(r.repaired for r in reports)
        )


class InvariantGuard:
    """Checks the loop's phase-boundary invariants under one policy."""

    def __init__(self, config: "GuardConfig | None" = None, tracer=None):
        self.config = config if config is not None else GuardConfig()
        # An enabled RunTracer receives one guard.violation event per
        # violation (check name, phase, count) alongside the log warning.
        self.tracer = tracer

    # ------------------------------------------------------------------

    def _handle(self, violations: list, repaired: bool) -> GuardReport:
        report = GuardReport(violations=tuple(violations), repaired=repaired)
        if not violations:
            return report
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            for violation in violations:
                tracer.emit(
                    "guard.violation",
                    check=violation.check,
                    phase=violation.phase,
                    count=violation.count,
                    detail=violation.detail,
                    repaired=repaired,
                )
        message = "; ".join(f"{v.phase}/{v.check}: {v.detail}" for v in violations)
        if self.config.policy == "raise":
            raise InvariantViolationError(message)
        _LOG.warning(
            "invariant violation%s (%s): %s",
            "s" if len(violations) > 1 else "",
            "repaired" if repaired else "unrepaired",
            message,
        )
        return report

    # ------------------------------------------------------------------

    def check_truths(
        self,
        truths: np.ndarray,
        sigmas: np.ndarray,
        observed: "np.ndarray | None" = None,
        phase: str = "truth",
    ) -> "tuple[np.ndarray, np.ndarray, GuardReport]":
        """Truth-analysis outputs: finite truths where observed, sigma > 0.

        ``observed`` is the per-task had-any-observation mask; without it,
        NaN truths are presumed legitimate missing markers and only
        infinities count as violations.
        """
        truths = np.asarray(truths, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        violations = []

        if observed is not None:
            bad_truths = ~np.isfinite(truths) & np.asarray(observed, dtype=bool)
        else:
            bad_truths = np.isinf(truths)
        if np.any(bad_truths):
            violations.append(
                GuardViolation(
                    check="finite_truths",
                    phase=phase,
                    count=int(bad_truths.sum()),
                    detail=f"{int(bad_truths.sum())} non-finite truth(s) "
                    f"at tasks {np.flatnonzero(bad_truths)[:5].tolist()}",
                )
            )
        bad_sigmas = ~np.isfinite(sigmas) | (sigmas <= 0.0)
        if np.any(bad_sigmas):
            violations.append(
                GuardViolation(
                    check="positive_sigmas",
                    phase=phase,
                    count=int(bad_sigmas.sum()),
                    detail=f"{int(bad_sigmas.sum())} non-positive/non-finite "
                    f"sigma(s) at tasks {np.flatnonzero(bad_sigmas)[:5].tolist()}",
                )
            )

        repaired = False
        if violations and self.config.policy == "repair":
            truths = truths.copy()
            sigmas = sigmas.copy()
            # A corrupt truth cannot be reconstructed here — demote it to
            # the pipeline's standard missing marker so downstream sums
            # skip it instead of ingesting an infinity.
            truths[bad_truths] = np.nan
            sigmas[bad_sigmas] = self.config.sigma_floor
            repaired = True
        report = self._handle(violations, repaired)
        return truths, sigmas, report

    def check_expertise(
        self, expertise: np.ndarray, phase: str = "update"
    ) -> "tuple[np.ndarray, GuardReport]":
        """Expertise estimates: finite and inside the documented clamp."""
        expertise = np.asarray(expertise, dtype=float)
        violations = []
        non_finite = ~np.isfinite(expertise)
        # Tiny tolerance: the clamp itself writes exactly min/max, so only
        # genuinely escaped values should trip.
        out_of_range = np.isfinite(expertise) & (
            (expertise < self.config.min_expertise * (1 - 1e-12))
            | (expertise > self.config.max_expertise * (1 + 1e-12))
        )
        if np.any(non_finite):
            violations.append(
                GuardViolation(
                    check="finite_expertise",
                    phase=phase,
                    count=int(non_finite.sum()),
                    detail=f"{int(non_finite.sum())} non-finite expertise value(s)",
                )
            )
        if np.any(out_of_range):
            violations.append(
                GuardViolation(
                    check="bounded_expertise",
                    phase=phase,
                    count=int(out_of_range.sum()),
                    detail=f"{int(out_of_range.sum())} expertise value(s) outside "
                    f"[{self.config.min_expertise}, {self.config.max_expertise}]",
                )
            )
        repaired = False
        if violations and self.config.policy == "repair":
            expertise = expertise.copy()
            expertise[non_finite] = DEFAULT_EXPERTISE
            expertise = clamp_expertise(expertise)
            repaired = True
        report = self._handle(violations, repaired)
        return expertise, report

    def check_partition(
        self,
        task_domains: np.ndarray,
        known_domains,
        phase: str = "identify",
    ) -> GuardReport:
        """Cluster output: every task labelled with a known domain id.

        Partitions have no safe in-place repair (inventing a label would
        silently misroute expertise), so the ``"repair"`` policy degrades
        to ``"warn"`` here; ``"raise"`` still raises.
        """
        task_domains = np.asarray(task_domains)
        known = set(known_domains)
        violations = []
        if task_domains.ndim != 1:
            # A misshapen label array cannot be scanned for unknown labels
            # (and would make every per-task lookup wrong anyway).
            violations.append(
                GuardViolation(
                    check="valid_partition",
                    phase=phase,
                    count=1,
                    detail=f"labels must be one per task, got shape {task_domains.shape}",
                )
            )
            return self._handle(violations, repaired=False)
        unknown = [d for d in dict.fromkeys(task_domains.tolist()) if d not in known]
        if unknown:
            violations.append(
                GuardViolation(
                    check="valid_partition",
                    phase=phase,
                    count=sum(int(np.sum(task_domains == d)) for d in unknown),
                    detail=f"task labels {unknown[:5]} not among the known domains",
                )
            )
        return self._handle(violations, repaired=False)


class GuardHook(StepHook):
    """Runs ``system.guard`` at the loop's two phase boundaries (``enable_guards``).

    Each point merges its reports into the step's ``StepResult.guard_report``
    (a degraded step carries the partition check's alone).
    """

    def check_partition(self, system, domains, new_domains, report):
        if system._clustering.is_fitted:
            # Every label the clusterer emitted must be either already
            # tracked by the updater or declared new this very step —
            # anything else means the merge bookkeeping between the two
            # modules has diverged.
            known = set(system._updater.domain_ids) | set(new_domains)
        else:
            known = set(domains.tolist())
        return GuardReport.merge([report, system.guard.check_partition(domains, known)])

    def repair(self, system, truths, sigmas, expertise, observations, report):
        truths, sigmas, truth_report = system.guard.check_truths(
            truths, sigmas, observed=observations.mask.any(axis=0)
        )
        expertise, expertise_report = system.guard.check_expertise(expertise)
        report = GuardReport.merge([report, truth_report, expertise_report])
        return truths, sigmas, expertise, report
