"""Adversarial-robustness experiment (extension beyond the paper).

Replaces a growing fraction of users with fabricating behaviours
(:mod:`repro.simulation.adversaries`) and measures (a) how each approach's
estimation error degrades and (b) whether ETA2 *detects* the adversaries —
their estimated expertise should fall below the honest users'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_series
from repro.perf.sweep import ApproachSpec, replication_jobs, run_jobs
from repro.simulation.engine import SimulationResult

__all__ = ["AdversarialRobustness", "adversarial_robustness", "adversary_detection_gap"]


@dataclass(frozen=True)
class AdversarialRobustness:
    """Error vs adversary fraction, plus the ETA2 detection gap."""

    kind: str
    fractions: tuple
    error_series: dict
    #: Mean (honest expertise - adversary expertise) per fraction, from
    #: ETA2's estimates; positive = adversaries detected.
    detection_gaps: tuple

    def render(self) -> str:
        table = format_series(
            "adversary_fraction",
            self.fractions,
            {**self.error_series, "ETA2_detection_gap": list(self.detection_gaps)},
            precision=3,
            title=f"Adversarial robustness ({self.kind} adversaries)",
        )
        return table


def adversary_detection_gap(result: SimulationResult) -> float:
    """Mean estimated expertise of honest users minus adversaries (ETA2).

    Returns NaN when the run had no adversaries or no expertise snapshot.
    """
    snapshot = result.expertise_snapshot
    adversaries = set(result.adversary_users)
    if snapshot is None or not adversaries:
        return float("nan")
    stacked = np.column_stack([snapshot[d] for d in sorted(snapshot)])
    per_user = stacked.mean(axis=1)
    honest = [per_user[i] for i in range(len(per_user)) if i not in adversaries]
    bad = [per_user[i] for i in adversaries]
    return float(np.mean(honest) - np.mean(bad))


def adversarial_robustness(
    config: ExperimentConfig = ExperimentConfig(),
    kind: str = "random",
    fractions: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    dataset_name: str = "synthetic",
) -> AdversarialRobustness:
    """Sweep the adversary fraction for ETA2 and the mean baseline."""
    best = config.best_parameters(dataset_name)
    eta2 = ApproachSpec.eta2(gamma=best["gamma"], alpha=best["alpha"])
    error_series: dict = {"ETA2": [], "baseline-mean": []}
    detection_gaps: list = []
    for fraction in fractions:
        attack = {"adversary_fraction": fraction, "adversary_kind": kind}
        eta2_results = run_jobs(replication_jobs(dataset_name, eta2, config, scenario=attack))
        mean_results = run_jobs(
            replication_jobs(dataset_name, ApproachSpec(kind="mean"), config, scenario=attack)
        )
        error_series["ETA2"].append(
            float(np.nanmean([r.mean_estimation_error for r in eta2_results]))
        )
        error_series["baseline-mean"].append(
            float(np.nanmean([r.mean_estimation_error for r in mean_results]))
        )
        gaps = [adversary_detection_gap(r) for r in eta2_results]
        detection_gaps.append(float(np.nanmean(gaps)) if fraction > 0 else float("nan"))
    return AdversarialRobustness(
        kind=kind,
        fractions=tuple(fractions),
        error_series=error_series,
        detection_gaps=tuple(detection_gaps),
    )
