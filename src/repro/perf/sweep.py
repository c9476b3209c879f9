"""Deterministic sweep runner: the one place a replication is seeded and run.

Every experiment averages its points over replications (Section 6.2's
"different seeds"); each (grid point, replication) cell is a
:class:`SimulationJob`, and :meth:`SimulationJob.run` is the only code that
derives a replication's seeds, builds its dataset and calls
``run_simulation``.  Cells are independent, so :func:`run_jobs` can fan them
across a ``ProcessPoolExecutor`` while keeping results *bit-identical* to
the serial path:

- a job's RNG streams are ``spawn_rngs(config.seed, replications)[r]
  .spawn(2)`` (dataset, simulation), re-derived on every call, so seeds
  depend only on ``(config.seed, replication)`` and never on worker
  identity, scheduling order, worker count, or how many jobs share the
  replication (the reputation triple runs three jobs on one replication's
  streams);
- a job with an :class:`ApproachSpec` is a fully picklable value object —
  no shared state crosses the process boundary (factory callables run
  serially only);
- :func:`run_jobs` returns results in submission order regardless of
  completion order.

Hence ``--jobs 4`` and serial execution produce identical
:class:`~repro.simulation.engine.SimulationResult` errors (asserted in
``tests/perf/test_sweep.py``).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Sequence

from repro.rng import spawn_rngs
from repro.simulation.engine import SimulationConfig, SimulationResult, run_simulation

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "ApproachSpec",
    "SimulationJob",
    "replication_jobs",
    "run_jobs",
    "group_by_tag",
]

#: Approach kinds an :class:`ApproachSpec` knows how to construct.
APPROACH_KINDS = ("eta2", "hubs-authorities", "average-log", "truthfinder", "mean")


@dataclass(frozen=True)
class ApproachSpec:
    """A picklable description of an approach (factories can't cross processes).

    ``options`` is a sorted tuple of ``(name, value)`` keyword pairs passed
    to the approach constructor; values must themselves be picklable and
    hashable.  Calling a spec returns a *fresh* approach instance, so a spec
    is a zero-argument approach factory like any other.
    """

    kind: str
    options: tuple = ()

    def __post_init__(self):
        if self.kind not in APPROACH_KINDS:
            raise ValueError(f"unknown approach kind: {self.kind!r} (expected one of {APPROACH_KINDS})")

    @classmethod
    def eta2(cls, **options) -> "ApproachSpec":
        """ETA2 / ETA2-mc spec (``allocator='min-cost'`` selects the latter)."""
        return cls(kind="eta2", options=tuple(sorted(options.items())))

    def __call__(self):
        from repro.simulation.approaches import ETA2Approach, MeanApproach, ReliabilityApproach

        if self.kind == "eta2":
            return ETA2Approach(**dict(self.options))
        if self.kind == "mean":
            return MeanApproach()
        from repro.truthdiscovery import AverageLog, HubsAuthorities, TruthFinder

        method = {
            "hubs-authorities": HubsAuthorities,
            "average-log": AverageLog,
            "truthfinder": TruthFinder,
        }[self.kind]
        return ReliabilityApproach(method())


#: :class:`SimulationConfig` fields a scenario may set; the job derives the rest.
_SCENARIO_FIELDS = frozenset(f.name for f in fields(SimulationConfig)) - {"n_days", "seed"}


@dataclass(frozen=True)
class SimulationJob:
    """One replication of one experiment cell.

    ``replication`` selects this job's seed streams among
    ``config.replications``.  ``approach`` is any zero-argument approach
    factory; an :class:`ApproachSpec` keeps the job picklable for parallel
    and supervised runs.  ``scenario`` holds the :class:`SimulationConfig`
    fields the cell sets (bias, adversaries, dropout, ...), given as a
    mapping or pairs and stored as sorted ``(name, value)`` pairs;
    ``n_days`` and ``seed`` are the job's own to derive.  ``tag`` is an
    opaque grid-point label used by :func:`group_by_tag` to reassemble grid
    results.
    """

    dataset_name: str
    approach: Callable
    config: ExperimentConfig
    replication: int
    scenario: tuple = ()
    tag: "object" = None

    def __post_init__(self):
        if not 0 <= self.replication < self.config.replications:
            raise ValueError("replication must lie in [0, config.replications)")
        scenario = tuple(sorted(dict(self.scenario).items()))
        unknown = sorted({name for name, _ in scenario} - _SCENARIO_FIELDS)
        if unknown:
            raise ValueError(
                f"scenario may set SimulationConfig fields other than n_days and seed, not {unknown}"
            )
        object.__setattr__(self, "scenario", scenario)

    def _streams(self):
        """Fresh (dataset, simulation) seed streams of this replication."""
        return spawn_rngs(self.config.seed, self.config.replications)[self.replication].spawn(2)

    def dataset(self):
        """The dataset instance this replication runs on (rebuilt per call)."""
        # Imported here: repro.experiments imports this module.
        from repro.experiments.config import dataset_factory

        return dataset_factory(self.dataset_name, self.config, seed=self._streams()[0])

    def run(self) -> SimulationResult:
        """Execute this cell in the current process."""
        sim_config = SimulationConfig(
            n_days=self.config.n_days, seed=self._streams()[1], **dict(self.scenario)
        )
        return run_simulation(self.dataset(), self.approach(), sim_config)


def replication_jobs(
    dataset_name: str,
    approach: Callable,
    config: ExperimentConfig,
    scenario=(),
    tag=None,
) -> list:
    """One :class:`SimulationJob` per replication, in replication order."""
    return [
        SimulationJob(
            dataset_name=dataset_name,
            approach=approach,
            config=config,
            replication=replication,
            scenario=scenario,
            tag=tag,
        )
        for replication in range(config.replications)
    ]


def _run_job(job: SimulationJob) -> SimulationResult:
    return job.run()


def run_jobs(
    jobs: Sequence[SimulationJob],
    n_jobs: "int | None" = None,
    supervisor=None,
) -> list:
    """Run jobs serially (``n_jobs`` in (None, 0, 1)) or across processes.

    Results come back in submission order either way, and every job's seeds
    are self-contained, so the two modes are numerically identical.
    ``n_jobs`` < 0 means "one worker per CPU".

    ``supervisor`` — a :class:`~repro.reliability.supervisor.SupervisorConfig`
    or a prebuilt :class:`~repro.reliability.supervisor.SupervisedExecutor`
    — routes execution through the crash-tolerant supervised layer (worker
    crash/hang recovery, retries, dead-letter quarantine, resumable run
    journal).  Non-dead-lettered results stay bit-identical to the bare
    path; dead-lettered jobs leave ``None`` holes in the returned list.
    """
    jobs = list(jobs)
    if n_jobs is not None and n_jobs < 0:
        n_jobs = os.cpu_count() or 1
    if supervisor is not None:
        from repro.reliability.supervisor import SupervisedExecutor, SupervisorConfig

        if isinstance(supervisor, SupervisorConfig):
            supervisor = supervisor.executor(n_jobs=n_jobs)
        elif not isinstance(supervisor, SupervisedExecutor):
            raise TypeError("supervisor must be a SupervisorConfig or SupervisedExecutor")
        return supervisor.run(jobs).results
    if n_jobs in (None, 0, 1) or len(jobs) <= 1:
        return [job.run() for job in jobs]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(jobs))) as pool:
        try:
            return list(pool.map(_run_job, jobs))
        except BaseException:
            # KeyboardInterrupt (or a worker exception) mid-map used to
            # leave queued child work running after the parent unwound;
            # cancel it so the pool's workers exit instead of orphaning.
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def group_by_tag(jobs: Sequence[SimulationJob], results: Sequence[SimulationResult]) -> dict:
    """Reassemble ``run_jobs`` output into ``{tag: [results in job order]}``."""
    if len(jobs) != len(results):
        raise ValueError("jobs and results must align")
    grouped: dict = {}
    for job, result in zip(jobs, results):
        grouped.setdefault(job.tag, []).append(result)
    return grouped
