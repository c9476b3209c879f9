"""Replication runner: seed sweeps and averaging (Section 6.2's 100 runs)."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.simulation.engine import SimulationResult

__all__ = ["replicate", "average_day_errors", "mean_and_sem"]


def replicate(
    dataset_name: str,
    approach_factory: Callable,
    config: ExperimentConfig,
    bias_fraction: float = 0.0,
    jobs: "int | None" = None,
    supervisor=None,
) -> list:
    """Run ``config.replications`` independent simulations.

    Each replication draws a fresh dataset instance, task-arrival schedule
    and observation noise from its own seed stream (mirroring the paper's
    "different seeds to randomly select tasks in each day"); the
    replications are :class:`~repro.perf.sweep.SimulationJob` cells.
    ``approach_factory`` is a zero-argument callable returning a *fresh*
    approach object, such as a picklable
    :class:`~repro.perf.sweep.ApproachSpec`.  ``jobs`` fans replications
    across worker processes (specs only — closures don't pickle); results
    are identical to the serial path either way.  ``supervisor`` (a
    :class:`~repro.reliability.supervisor.SupervisorConfig`) adds
    crash/hang/retry supervision with a resumable journal; dead-lettered
    replications come back as ``None``.
    """
    from repro.perf.sweep import ApproachSpec, replication_jobs, run_jobs

    if not isinstance(approach_factory, ApproachSpec) and (
        jobs not in (None, 0, 1) or supervisor is not None
    ):
        raise TypeError(
            "parallel or supervised replication needs a picklable ApproachSpec, "
            "not a factory callable"
        )
    return run_jobs(
        replication_jobs(
            dataset_name, approach_factory, config, scenario={"bias_fraction": bias_fraction}
        ),
        n_jobs=jobs,
        supervisor=supervisor,
    )


def average_day_errors(results: Sequence["SimulationResult | None"]) -> np.ndarray:
    """Mean per-day estimation error across replications (NaN-safe).

    ``None`` entries (dead-lettered supervised replications) are skipped;
    averaging requires at least one real result.
    """
    results = [result for result in results if result is not None]
    if not results:
        raise ValueError("no results to average")
    stacked = np.vstack([result.errors_by_day() for result in results])
    with np.errstate(invalid="ignore"):
        return np.nanmean(stacked, axis=0)


def mean_and_sem(values: Sequence[float]) -> "tuple[float, float]":
    """Mean and standard error of a scalar metric across replications."""
    arr = np.asarray([v for v in values if np.isfinite(v)], dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
