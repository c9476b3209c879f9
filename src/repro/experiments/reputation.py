"""Reputation-defense experiment (extension beyond the paper).

Measures what the reputation & quarantine subsystem actually buys under a
coordinated attack.  Each replication runs three jobs on the same seed
streams — one dataset, task schedule and observation noise, and (for the
two attacked legs) one adversary set:

- **clean** — no adversaries (the error floor),
- **unprotected** — ``adversary_fraction`` colluders, plain ETA2,
- **protected** — the same attack with reputation tracking and invariant
  guards enabled,

and reports detection recall (fraction of adversaries ever quarantined),
the false-positive rate (honest users still quarantined or on probation at
the end), and the recovered fraction of the final-day estimation-error gap
``(unprotected - protected) / (unprotected - clean)``.  Gap recovery is
only meaningful when the attack actually bites; replications where the
unprotected error is within ``MIN_GAP`` of the clean error report NaN and
are excluded from the aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.perf.sweep import ApproachSpec, group_by_tag, replication_jobs, run_jobs

__all__ = ["ReputationDefense", "reputation_defense", "MIN_GAP"]

#: Minimum clean-vs-unprotected final-day error gap for the recovery ratio
#: to be meaningful (below this the denominator is noise).
MIN_GAP = 0.02


@dataclass(frozen=True)
class ReputationDefense:
    """Per-replication defense metrics plus their aggregates."""

    kind: str
    fraction: float
    recalls: tuple
    false_positive_rates: tuple
    gap_recoveries: tuple
    clean_errors: tuple
    unprotected_errors: tuple
    protected_errors: tuple

    @property
    def mean_recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else float("nan")

    @property
    def mean_false_positive_rate(self) -> float:
        rates = self.false_positive_rates
        return float(np.mean(rates)) if rates else float("nan")

    @property
    def mean_gap_recovery(self) -> float:
        """Mean over replications where the attack produced a real gap."""
        finite = [g for g in self.gap_recoveries if np.isfinite(g)]
        return float(np.mean(finite)) if finite else float("nan")

    def render(self) -> str:
        rows = []
        for i in range(len(self.recalls)):
            rows.append(
                [
                    i,
                    self.recalls[i],
                    self.false_positive_rates[i],
                    self.gap_recoveries[i],
                    self.clean_errors[i],
                    self.unprotected_errors[i],
                    self.protected_errors[i],
                ]
            )
        rows.append(
            [
                "mean",
                self.mean_recall,
                self.mean_false_positive_rate,
                self.mean_gap_recovery,
                float(np.mean(self.clean_errors)),
                float(np.mean(self.unprotected_errors)),
                float(np.mean(self.protected_errors)),
            ]
        )
        return format_table(
            ["rep", "recall", "fp_rate", "gap_recovery", "err_clean", "err_unprot", "err_prot"],
            rows,
            precision=3,
            title=(
                f"Reputation defense ({self.kind} adversaries, "
                f"fraction {self.fraction:g}; gap_recovery is NaN when the "
                f"attack moved the final-day error by < {MIN_GAP:g})"
            ),
        )


def reputation_defense(
    config: ExperimentConfig = ExperimentConfig(),
    kind: str = "colluding",
    fraction: float = 0.2,
    dataset_name: str = "synthetic",
) -> ReputationDefense:
    """Run the clean/unprotected/protected triple for each replication."""
    best = config.best_parameters(dataset_name)
    guards = {"reputation": True, "guards": "warn"}
    attack = {"adversary_fraction": fraction, "adversary_kind": kind}
    plain = ApproachSpec.eta2(gamma=best["gamma"], alpha=best["alpha"])
    protected_spec = ApproachSpec.eta2(gamma=best["gamma"], alpha=best["alpha"], **guards)
    jobs = (
        replication_jobs(dataset_name, plain, config, tag="clean")
        + replication_jobs(dataset_name, plain, config, scenario=attack, tag="unprotected")
        + replication_jobs(dataset_name, protected_spec, config, scenario=attack, tag="protected")
    )
    runs = group_by_tag(jobs, run_jobs(jobs))

    recalls, fp_rates, recoveries = [], [], []
    clean_errors, unprotected_errors, protected_errors = [], [], []
    # The first ``config.replications`` jobs are the clean leg, in
    # replication order: each names its replication's dataset.
    for job, clean, unprotected, protected in zip(
        jobs, runs["clean"], runs["unprotected"], runs["protected"]
    ):
        adversaries = set(protected.adversary_users)
        honest = job.dataset().n_users - len(adversaries)
        ever = set(protected.ever_quarantined)
        suspects = set(protected.final_quarantined) | set(protected.final_probation)
        recalls.append(len(ever & adversaries) / len(adversaries) if adversaries else float("nan"))
        fp_rates.append(len(suspects - adversaries) / honest if honest else float("nan"))

        e_clean = clean.days[-1].estimation_error
        e_unprot = unprotected.days[-1].estimation_error
        e_prot = protected.days[-1].estimation_error
        clean_errors.append(float(e_clean))
        unprotected_errors.append(float(e_unprot))
        protected_errors.append(float(e_prot))
        gap = e_unprot - e_clean
        recoveries.append(float((e_unprot - e_prot) / gap) if gap > MIN_GAP else float("nan"))

    return ReputationDefense(
        kind=kind,
        fraction=fraction,
        recalls=tuple(recalls),
        false_positive_rates=tuple(fp_rates),
        gap_recoveries=tuple(recoveries),
        clean_errors=tuple(clean_errors),
        unprotected_errors=tuple(unprotected_errors),
        protected_errors=tuple(protected_errors),
    )
