"""Cross-day worker reputation: residual scoring, quarantine, probation.

The per-day defence (`reliability.sanitize`) forgets everything at
midnight: a colluding worker who is individually plausible every single
day never trips it.  This module remembers.  After each
day's truth analysis the tracker folds every user's residuals into decayed
running sums — the same exponential decay ``alpha`` as the expertise
updates of Eqs. (7)-(9), so reputation and expertise age on the same
clock — and computes three scores per user:

**Bias t-score** — ``|mean z| sqrt(n) / std z`` over the expertise-
standardized residuals ``z = (x_ij - mu_j) u_i^{d_j} / sigma_j``.  The
crucial property: Eq. 9 *absorbs* a persistent offset into a lower
expertise estimate, shrinking ``mean z`` and ``std z`` by the same factor
``u``, so their ratio survives absorption.  Catches consistently biased
reporters that raw residual magnitudes cannot.

**Variance score** — decayed mean of ``z^2``.  Under the honest model this
sits near 1 *by construction* (Eq. 9 drives it there).  Naively that makes
it useless — absorption parks adversaries near 1 too — but absorption
*stalls* in the truth-capture regime: colluders who share tasks mutually
confirm each other, the truth estimate is dragged partway toward them,
Eq. 9 sees only modest deviations, and their expertise stays near 1 while
their true residuals are large.  There ``z^2`` lands at 4-14 against an
honest ceiling near 1.3, and the variance score is the *only* working
detector (parity-signed collusion cancels the bias score, and sigma noise
plus capture shrinkage kill the consistency score).

**Consistency score** — ``(mean |r|)^2 / Var(|r|)`` over the
*base-number-unit* residuals ``r = (x_ij - mu_j) / sigma_j``, gated on
``mean |r| >= min_deviation``.  An honest ``N(0, s^2)`` reporter's
``|r|`` is half-normal whatever their expertise, giving a scale-free
score of ``(2/pi)/(1 - 2/pi) ~ 1.75``.  A fabricator who always lands a
fixed distance from the truth (the colluding adversary at ``3 sigma``)
has nearly constant ``|r|`` — tiny variance, score an order of magnitude
higher.  The deviation gate keeps suspiciously-consistent *accurate*
workers (experts!) unflagged.

**Duplication score** — the decayed fraction of a user's observations
that land within ``duplicate_tolerance * sigma_j`` of *another user's*
report on the same task.  Two honest observers essentially never coincide
that closely (their reports differ by ~``sqrt(2) sigma / u``), but
colluders who coordinate on a value coincide constantly.  This is the
counter to the **truth-capture regime**, where residual scores go
structurally blind: once colluders dominate a task's observer set, the
truth estimate *is* their agreed value, their residuals are tiny, and
Eq. 9 certifies them as experts — yet their mutual agreement remains
glaringly non-physical.  (Cf. copying detection in truth discovery:
sources that agree far more than independent noise allows.)

A user whose score crosses a threshold is **quarantined**: the allocators
drop them from every assignment (see ``AllocationProblem.eligible``).
After ``probation_days`` they re-enter on **probation** — eligible again,
so the system keeps paying a small evidence-gathering cost instead of
banning forever on day-one evidence — and are re-quarantined immediately
if any score trips again, or reinstated to full standing after
``reinstate_days`` clean days.

Statistically invisible attackers (e.g. a uniform-random spammer whose
residuals look exactly like a legitimately terrible worker's) are out of
scope by design: expertise weighting already drives their influence to
zero, and any rule that flagged them would flag honest novices too.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.hooks import StepHook

__all__ = [
    "ACTIVE",
    "QUARANTINED",
    "PROBATION",
    "ReputationConfig",
    "ReputationHook",
    "ReputationScores",
    "ReputationSummary",
    "ReputationTracker",
]

_LOG = logging.getLogger(__name__)

#: User standings (small ints so the status vector serializes compactly).
ACTIVE = 0
QUARANTINED = 1
PROBATION = 2

_STATUS_NAMES = {ACTIVE: "active", QUARANTINED: "quarantined", PROBATION: "probation"}

#: Variance floor when converting sums to scores (a user whose residuals
#: are *exactly* constant would otherwise divide by zero — and such a user
#: is precisely who the consistency score must flag hardest).
_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class ReputationConfig:
    """Thresholds and timing knobs for :class:`ReputationTracker`.

    Attributes
    ----------
    alpha:
        Per-day decay of the residual sums.  Use the system's expertise
        decay so both memories age together (see the tuning note in
        ``docs/architecture.md``).
    bias_threshold:
        Flag when the bias t-score exceeds this.  Under the null the
        t-score is ~N(0,1); 5.0 gives a per-user-day false-positive rate
        around ``3e-7`` before decay-induced dependence.
    variance_threshold:
        Flag when the decayed mean of ``z^2`` exceeds this.  Honest users
        sit near 1 with an empirical ceiling around 1.3 (at the default
        ``min_observations``); colluders in the truth-capture regime,
        where expertise absorption stalls, land at 4-14.  4.0 splits the
        two with wide margins on both sides.
    consistency_threshold:
        Flag when ``(mean |r|)^2 / Var(|r|)`` exceeds this and the
        deviation gate passes.  The idealized honest half-normal value is
        1.75, but in the closed loop sigma-estimate noise spreads a
        colluder's ``|r|`` considerably, so the workable threshold is much
        lower than the idealized adversary score: 3.0 sits just above the
        worst honest score seen after the warm-up day while catching
        every colluder (the warm-up day itself is excluded via
        ``grace_days`` — random allocation makes honest novices look
        wild there).
    min_deviation:
        The consistency gate: only users whose mean ``|r|`` exceeds this
        many base numbers are eligible for a consistency flag.
    min_observations:
        No score is evaluated until a user's decayed observation count
        reaches this — small-sample scores are noise.
    duplicate_tolerance:
        Two same-task reports within this many ``sigma_j`` of each other
        count as a duplicate pair.  This must be far inside honest expert
        precision: the max-quality allocator deliberately co-assigns the
        strongest experts, whose reports legitimately differ by only
        ``sqrt(2) sigma / u`` — a few percent of ``sigma`` at high ``u``.
        At 0.002, the worst honest user's decayed duplicate rate stays
        below ~0.15 while exact-agreement colluders never drop under
        ~0.5.  (A colluder who jitters their copies by more than this
        slips the duplication net — but the jitter then shows up in the
        residual scores instead.)
    duplicate_threshold:
        Flag when the decayed duplicate fraction exceeds this.  0.3 sits
        about twice the honest ceiling and half the colluder floor
        observed at the default tolerance.
    grace_days:
        No user is flagged during the first this-many recorded days.
        Day one runs on random warm-up allocation with unknown expertise,
        where honest low-expertise users produce residuals as extreme as
        any adversary's.  (The duplication score is *not* grace-gated:
        near-exact agreement is damning under any allocation.)
    probation_days:
        Days a quarantined user sits out before re-entering on probation.
    reinstate_days:
        Clean probation days required to return to full standing.
    """

    alpha: float = 0.5
    bias_threshold: float = 5.0
    variance_threshold: float = 4.0
    consistency_threshold: float = 3.0
    min_deviation: float = 1.5
    min_observations: float = 10.0
    duplicate_tolerance: float = 0.002
    duplicate_threshold: float = 0.3
    grace_days: int = 1
    probation_days: int = 2
    reinstate_days: int = 2

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        for name in ("bias_threshold", "variance_threshold", "consistency_threshold"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.min_deviation < 0.0:
            raise ValueError("min_deviation must be non-negative")
        if self.min_observations < 2.0:
            raise ValueError("min_observations must be at least 2")
        if self.duplicate_tolerance <= 0.0:
            raise ValueError("duplicate_tolerance must be positive")
        if not 0.0 < self.duplicate_threshold <= 1.0:
            raise ValueError("duplicate_threshold must lie in (0, 1]")
        if self.grace_days < 0:
            raise ValueError("grace_days must be non-negative")
        if self.probation_days < 1:
            raise ValueError("probation_days must be at least 1")
        if self.reinstate_days < 1:
            raise ValueError("reinstate_days must be at least 1")


@dataclass(frozen=True)
class ReputationScores:
    """Per-user score vectors at one point in time (NaN below min count)."""

    counts: np.ndarray
    bias_t: np.ndarray
    variance: np.ndarray
    consistency: np.ndarray
    mean_abs_residual: np.ndarray
    duplication: np.ndarray


@dataclass(frozen=True)
class ReputationSummary:
    """What one ``record_day`` call changed — attached to day results."""

    day: int
    quarantined: tuple
    probation: tuple
    newly_quarantined: tuple
    newly_probation: tuple
    reinstated: tuple
    #: Everyone quarantined at any point so far — the cumulative detection
    #: record.  A user on end-of-horizon probation is still a detection;
    #: only a clean probation run (``reinstated``) clears the suspicion.
    ever_quarantined: tuple = ()

    def to_dict(self) -> dict:
        return {
            "day": self.day,
            "quarantined": list(self.quarantined),
            "probation": list(self.probation),
            "newly_quarantined": list(self.newly_quarantined),
            "newly_probation": list(self.newly_probation),
            "reinstated": list(self.reinstated),
            "ever_quarantined": list(self.ever_quarantined),
        }


@dataclass(frozen=True)
class _DayFlags:
    flagged: np.ndarray
    evaluated: np.ndarray
    #: The duplication component alone — exempt from the grace window.
    duplication: np.ndarray


class ReputationTracker:
    """Decayed cross-day residual scores with a quarantine state machine."""

    def __init__(self, n_users: int, config: "ReputationConfig | None" = None):
        if n_users <= 0:
            raise ValueError("n_users must be positive")
        self._n_users = int(n_users)
        self.config = config if config is not None else ReputationConfig()
        self._count = np.zeros(self._n_users)
        self._sum_z = np.zeros(self._n_users)
        self._sum_z2 = np.zeros(self._n_users)
        self._sum_abs_r = np.zeros(self._n_users)
        self._sum_r2 = np.zeros(self._n_users)
        self._sum_dup = np.zeros(self._n_users)
        self._status = np.full(self._n_users, ACTIVE, dtype=int)
        self._days_in_status = np.zeros(self._n_users, dtype=int)
        self._ever_quarantined = np.zeros(self._n_users, dtype=bool)
        self._day = 0

    # ------------------------------------------------------------------
    # Introspection

    @property
    def n_users(self) -> int:
        return self._n_users

    @property
    def day(self) -> int:
        """Number of ``record_day`` calls folded in so far."""
        return self._day

    @property
    def status(self) -> np.ndarray:
        """Per-user standing (``ACTIVE``/``QUARANTINED``/``PROBATION``)."""
        return self._status.copy()

    @property
    def eligible(self) -> np.ndarray:
        """Boolean mask of users the allocators may assign tasks to."""
        return self._status != QUARANTINED

    @property
    def quarantined_users(self) -> tuple:
        return tuple(int(u) for u in np.flatnonzero(self._status == QUARANTINED))

    @property
    def probation_users(self) -> tuple:
        return tuple(int(u) for u in np.flatnonzero(self._status == PROBATION))

    @property
    def ever_quarantined_users(self) -> tuple:
        """Everyone quarantined at any point in this tracker's history."""
        return tuple(int(u) for u in np.flatnonzero(self._ever_quarantined))

    def status_name(self, user: int) -> str:
        return _STATUS_NAMES[int(self._status[user])]

    # ------------------------------------------------------------------
    # Scoring

    def scores(self) -> ReputationScores:
        """Current per-user scores; NaN wherever the decayed count is low."""
        counts = self._count
        enough = counts >= self.config.min_observations
        safe_n = np.maximum(counts, _VAR_FLOOR)
        mean_z = self._sum_z / safe_n
        var_z = np.maximum(self._sum_z2 / safe_n - mean_z**2, _VAR_FLOOR)
        bias_t = np.abs(mean_z) * np.sqrt(safe_n) / np.sqrt(var_z)
        variance = self._sum_z2 / safe_n
        mean_abs_r = self._sum_abs_r / safe_n
        var_abs_r = np.maximum(self._sum_r2 / safe_n - mean_abs_r**2, _VAR_FLOOR)
        consistency = mean_abs_r**2 / var_abs_r
        duplication = self._sum_dup / safe_n
        nanfill = np.where(enough, 1.0, np.nan)
        return ReputationScores(
            counts=counts.copy(),
            bias_t=bias_t * nanfill,
            variance=variance * nanfill,
            consistency=consistency * nanfill,
            mean_abs_residual=mean_abs_r * nanfill,
            duplication=duplication * nanfill,
        )

    def _evaluate(self) -> _DayFlags:
        scores = self.scores()
        evaluated = self._count >= self.config.min_observations
        with np.errstate(invalid="ignore"):
            bias_flag = scores.bias_t > self.config.bias_threshold
            variance_flag = scores.variance > self.config.variance_threshold
            consistency_flag = (scores.consistency > self.config.consistency_threshold) & (
                scores.mean_abs_residual >= self.config.min_deviation
            )
            duplication_flag = scores.duplication > self.config.duplicate_threshold
        flagged = evaluated & (bias_flag | variance_flag | consistency_flag | duplication_flag)
        return _DayFlags(
            flagged=flagged, evaluated=evaluated, duplication=evaluated & duplication_flag
        )

    # ------------------------------------------------------------------
    # Recording

    def record_day(
        self,
        mask: np.ndarray,
        values: np.ndarray,
        truths: np.ndarray,
        sigmas: np.ndarray,
        task_expertise: np.ndarray,
    ) -> ReputationSummary:
        """Fold one day's residuals in and advance the state machine.

        Parameters mirror the truth-analysis outputs: ``mask``/``values``
        are the ``(n_users, n_tasks)`` observation matrix, ``truths`` and
        ``sigmas`` the day's estimates, ``task_expertise`` the
        ``u_{i, d_j}`` matrix used for standardization.  Tasks with NaN
        truth (unobserved or degraded) contribute nothing.  Sums decay by
        ``alpha`` for every non-quarantined user; a quarantined user's
        evidence is *frozen* — they collect no data while excluded, so
        decaying their sums would only erode the reason they were flagged
        until ``min_observations`` failed and they slipped back in
        unexamined.  The second chance happens on probation instead:
        decay resumes there, and fresh clean days wash the old evidence
        out.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self._n_users:
            raise ValueError("observation mask has the wrong number of users")
        values = np.asarray(values, dtype=float)
        truths = np.asarray(truths, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        task_expertise = np.asarray(task_expertise, dtype=float)

        usable = mask & np.isfinite(values) & np.isfinite(truths)[None, :]
        safe_truths = np.where(np.isfinite(truths), truths, 0.0)
        safe_sigmas = np.where(np.isfinite(sigmas) & (sigmas > 0), sigmas, 1.0)
        r = np.where(usable, (values - safe_truths[None, :]) / safe_sigmas[None, :], 0.0)
        z = np.where(usable, r * task_expertise, 0.0)

        decay = np.where(self._status == QUARANTINED, 1.0, self.config.alpha)
        self._count = decay * self._count + usable.sum(axis=1)
        self._sum_z = decay * self._sum_z + z.sum(axis=1)
        self._sum_z2 = decay * self._sum_z2 + (z**2).sum(axis=1)
        self._sum_abs_r = decay * self._sum_abs_r + np.abs(r).sum(axis=1)
        self._sum_r2 = decay * self._sum_r2 + (r**2).sum(axis=1)
        self._sum_dup = decay * self._sum_dup + self._duplicate_hits(usable, values, safe_sigmas)
        self._day += 1
        flags = self._evaluate()
        if self._day <= self.config.grace_days:
            # Residual scores are unreliable under warm-up allocation, but
            # near-exact agreement between users is damning regardless.
            flags = _DayFlags(
                flagged=flags.duplication, evaluated=flags.evaluated, duplication=flags.duplication
            )
        return self._advance(flags)

    def _duplicate_hits(self, usable: np.ndarray, values: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Per-user count of observations that near-duplicate another
        user's report on the same task (within ``duplicate_tolerance``
        sigmas).  Sorting the flattened observations by (task, value)
        makes every duplicate pair adjacent, so one linear diff finds
        them all."""
        rows, cols = np.nonzero(usable)
        if rows.size < 2:
            return np.zeros(self._n_users)
        vals = values[rows, cols]
        order = np.lexsort((vals, cols))
        r_s, c_s, v_s = rows[order], cols[order], vals[order]
        same_task = c_s[1:] == c_s[:-1]
        close = same_task & (np.diff(v_s) <= self.config.duplicate_tolerance * sigmas[c_s[1:]])
        hit = np.zeros(v_s.size, dtype=bool)
        hit[1:] |= close
        hit[:-1] |= close
        return np.bincount(r_s[hit], minlength=self._n_users).astype(float)

    def _advance(self, flags: _DayFlags) -> ReputationSummary:
        status = self._status
        days = self._days_in_status

        to_quarantine = flags.flagged & (status != QUARANTINED)
        # Quarantined users first serve out their term...
        serving = (status == QUARANTINED) & ~to_quarantine
        days[serving] += 1
        to_probation = serving & (days >= self.config.probation_days)
        # ...and probation users either relapse (handled via to_quarantine)
        # or earn reinstatement with clean days.
        clean_probation = (status == PROBATION) & ~flags.flagged
        days[clean_probation] += 1
        to_reinstate = clean_probation & (days >= self.config.reinstate_days)

        status[to_probation] = PROBATION
        days[to_probation] = 0
        status[to_reinstate] = ACTIVE
        days[to_reinstate] = 0
        status[to_quarantine] = QUARANTINED
        days[to_quarantine] = 0
        self._ever_quarantined |= to_quarantine

        newly_quarantined = tuple(int(u) for u in np.flatnonzero(to_quarantine))
        if newly_quarantined:
            _LOG.warning(
                "reputation day %d: quarantined users %s", self._day, newly_quarantined
            )
        return ReputationSummary(
            day=self._day,
            quarantined=self.quarantined_users,
            probation=self.probation_users,
            newly_quarantined=newly_quarantined,
            newly_probation=tuple(int(u) for u in np.flatnonzero(to_probation)),
            reinstated=tuple(int(u) for u in np.flatnonzero(to_reinstate)),
            ever_quarantined=self.ever_quarantined_users,
        )

    # ------------------------------------------------------------------
    # Persistence

    def state_dict(self) -> dict:
        """JSON-serializable snapshot (round-trips via :meth:`load_state`)."""
        return {
            "n_users": self._n_users,
            "day": self._day,
            "config": {
                "alpha": self.config.alpha,
                "bias_threshold": self.config.bias_threshold,
                "variance_threshold": self.config.variance_threshold,
                "consistency_threshold": self.config.consistency_threshold,
                "min_deviation": self.config.min_deviation,
                "min_observations": self.config.min_observations,
                "duplicate_tolerance": self.config.duplicate_tolerance,
                "duplicate_threshold": self.config.duplicate_threshold,
                "grace_days": self.config.grace_days,
                "probation_days": self.config.probation_days,
                "reinstate_days": self.config.reinstate_days,
            },
            "count": self._count.tolist(),
            "sum_z": self._sum_z.tolist(),
            "sum_z2": self._sum_z2.tolist(),
            "sum_abs_r": self._sum_abs_r.tolist(),
            "sum_r2": self._sum_r2.tolist(),
            "sum_dup": self._sum_dup.tolist(),
            "status": self._status.tolist(),
            "days_in_status": self._days_in_status.tolist(),
            "ever_quarantined": self._ever_quarantined.tolist(),
        }

    @classmethod
    def load_state(cls, state: dict) -> "ReputationTracker":
        config = ReputationConfig(**state["config"])
        tracker = cls(int(state["n_users"]), config)
        tracker._day = int(state["day"])
        tracker._count = np.asarray(state["count"], dtype=float)
        tracker._sum_z = np.asarray(state["sum_z"], dtype=float)
        tracker._sum_z2 = np.asarray(state["sum_z2"], dtype=float)
        tracker._sum_abs_r = np.asarray(state["sum_abs_r"], dtype=float)
        tracker._sum_r2 = np.asarray(state["sum_r2"], dtype=float)
        tracker._sum_dup = np.asarray(state.get("sum_dup", np.zeros(tracker._n_users)), dtype=float)
        tracker._status = np.asarray(state["status"], dtype=int)
        tracker._days_in_status = np.asarray(state["days_in_status"], dtype=int)
        tracker._ever_quarantined = np.asarray(
            state.get("ever_quarantined", tracker._status != ACTIVE), dtype=bool
        )
        for name in (
            "count", "sum_z", "sum_z2", "sum_abs_r", "sum_r2", "sum_dup", "status", "days_in_status"
        ):
            if getattr(tracker, f"_{name}").shape != (tracker._n_users,):
                raise ValueError(f"reputation state field {name!r} has the wrong length")
        return tracker


class ReputationHook(StepHook):
    """Quarantine-aware allocation and daily scoring (``enable_reputation``).

    It reads ``system.reputation`` at every call, so a checkpoint restore
    that replaces the tracker is what the next step uses.
    """

    def eligible(self, system, eligible):
        mask = system.reputation.eligible
        if np.all(mask):
            return eligible
        if not np.any(mask):
            # The loop must keep collecting data no matter what the tracker
            # thinks; an all-quarantined roster would otherwise deadlock it.
            _LOG.warning(
                "every user is quarantined; suspending eligibility filtering for this step"
            )
            return eligible
        return mask if eligible is None else eligible & mask

    def after_step(self, system, result, kind: str):
        observed = result.observations
        summary = system.reputation.record_day(
            observed.mask, observed.values, result.truths, result.sigmas, result.task_expertise
        )
        if system.tracer.enabled:
            for event, users in (
                ("reputation.quarantine", summary.newly_quarantined),
                ("reputation.probation", summary.newly_probation),
                ("reputation.reinstate", summary.reinstated),
            ):
                if users:
                    system.tracer.emit(event, day=summary.day, users=list(users))
        return replace(result, reputation=summary)
