"""The five approaches under comparison, behind one day-loop interface.

Each approach receives one day's newly created tasks, decides the
allocation (driving data collection through an ``observe`` callback so the
iterative min-cost variant works too), and returns its truth estimates for
those tasks.  The engine never peeks inside: ETA2 proper, ETA2-mc, the three
reliability-based methods and the random/mean baseline all plug in here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.allocation.base import DEFAULT_EPSILON, AllocationProblem, Assignment
from repro.core.allocation.baselines import RandomAllocator, ReliabilityGreedyAllocator
from repro.core.expertise import DEFAULT_EXPERTISE
from repro.core.pipeline import ETA2System, IncomingTask

from repro.semantics.embeddings.base import EmbeddingModel
from repro.truthdiscovery.base import ObservationMatrix, TruthDiscovery

__all__ = ["Approach", "DayOutcome", "ETA2Approach", "ReliabilityApproach", "MeanApproach"]


@dataclass(frozen=True)
class DayOutcome:
    """What an approach produced for one day's tasks."""

    assignment: Assignment
    observations: ObservationMatrix
    truths: np.ndarray
    allocation_cost: float
    #: Per-phase wall-clock seconds (ETA2 approaches only; None otherwise).
    timings: "dict | None" = None
    #: Users excluded from allocation because the reputation tracker had
    #: them quarantined (ETA2 approaches with reputation enabled only).
    excluded_users: tuple = ()
    #: The day's :class:`~repro.reliability.reputation.ReputationSummary`
    #: (None unless reputation tracking is on).
    reputation: "object | None" = None
    #: The day's merged :class:`~repro.reliability.guards.GuardReport`
    #: (None unless guards are on).
    guard_report: "object | None" = None


class Approach(abc.ABC):
    """One truth-analysis + task-allocation strategy."""

    name: str = "approach"

    @abc.abstractmethod
    def begin(self, dataset, seed) -> None:
        """Reset internal state for a fresh simulation run."""

    def attach_telemetry(self, telemetry) -> None:
        """Accept the run's :class:`~repro.observability.Telemetry` bundle.

        Called by the engine before :meth:`begin`.  The base class ignores
        it (baselines have no internals worth tracing); ETA2 approaches
        thread it into their :class:`ETA2System`.
        """

    @abc.abstractmethod
    def run_day(
        self,
        day: int,
        tasks: Sequence,
        observe: Callable,
    ) -> DayOutcome:
        """Process one day's tasks; ``observe(pairs)`` collects data."""

    def expertise_snapshot(self) -> "dict | None":
        """Discovered per-domain expertise (ETA2 only); None otherwise."""
        return None

    def task_domain_labels(self) -> "np.ndarray | None":
        """Discovered domain label per processed task (ETA2 only)."""
        return None

    def iteration_counts(self) -> list:
        """MLE iteration counts per day (empty for baselines)."""
        return []


class ETA2Approach(Approach):
    """ETA2 (max-quality) or ETA2-mc (min-cost), via :class:`ETA2System`."""

    def __init__(
        self,
        gamma: float = 0.5,
        alpha: float = 0.5,
        epsilon: float = DEFAULT_EPSILON,
        allocator: str = "max-quality",
        min_cost_round_budget: float = 100.0,
        min_cost_error_limit: float = 0.5,
        min_cost_confidence: float = 0.95,
        extra_greedy_pass: bool = True,
        exploration_rate: float = 0.0,
        embedding: "EmbeddingModel | None" = None,
        use_clustering: "bool | None" = None,
        checkpoint_dir=None,
        checkpoint_keep: int = 3,
        resume: bool = False,
        reputation: "bool | object" = False,
        guards: "str | None" = None,
    ):
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        self.name = "ETA2" if allocator == "max-quality" else "ETA2-mc"
        self._gamma = gamma
        self._alpha = alpha
        self._epsilon = epsilon
        self._allocator = allocator
        self._round_budget = min_cost_round_budget
        self._error_limit = min_cost_error_limit
        self._confidence = min_cost_confidence
        self._extra_pass = extra_greedy_pass
        self._exploration_rate = exploration_rate
        self._embedding = embedding
        #: None -> decided by the dataset (cluster iff domains are unknown);
        #: True/False forces it (ablations: oracle domains vs clustering).
        self._use_clustering = use_clustering
        #: Crash-safe persistence: checkpoint after every completed day,
        #: and (with resume=True) recover the newest valid checkpoint when
        #: the simulation begins — the server-restart scenario.
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_keep = checkpoint_keep
        self._resume = resume
        #: Byzantine hardening (all optional): reputation tracking (True
        #: for defaults or a ReputationConfig) and an invariant-guard
        #: policy ("warn"/"raise"/"repair").
        self._reputation = reputation
        self._guards = guards
        self._system: "ETA2System | None" = None
        self._labels: list = []
        self._telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        self._telemetry = telemetry
        if self._system is not None:
            self._system.enable_telemetry(
                tracer=telemetry.tracer,
                metrics=telemetry.metrics,
                manifest=telemetry.manifest,
            )

    def begin(self, dataset, seed) -> None:
        self._dataset = dataset
        cluster = (not dataset.domains_known) if self._use_clustering is None else self._use_clustering
        if cluster and any(task.description is None for task in dataset.tasks):
            raise ValueError("clustering requested but the dataset has no task descriptions")
        self._cluster = cluster
        self._system = ETA2System(
            n_users=dataset.n_users,
            capacities=[user.capacity for user in dataset.users],
            gamma=self._gamma,
            alpha=self._alpha,
            epsilon=self._epsilon,
            allocator=self._allocator,
            embedding=self._embedding,
            min_cost_round_budget=self._round_budget,
            min_cost_error_limit=self._error_limit,
            min_cost_confidence=self._confidence,
            extra_greedy_pass=self._extra_pass,
            exploration_rate=self._exploration_rate,
            seed=seed,
        )
        if self._telemetry is not None:
            self.attach_telemetry(self._telemetry)
        if self._reputation:
            self._system.enable_reputation(
                None if self._reputation is True else self._reputation
            )
        if self._guards is not None:
            self._system.enable_guards(policy=self._guards)
        if self._checkpoint_dir is not None:
            self._system.enable_checkpointing(self._checkpoint_dir, keep=self._checkpoint_keep)
            if self._resume:
                self._system.restore_latest()
        self._labels = []

    def _incoming(self, tasks: Sequence) -> list:
        incoming = []
        for task in tasks:
            if self._cluster:
                incoming.append(
                    IncomingTask(
                        processing_time=task.processing_time,
                        cost=task.cost,
                        description=task.description,
                    )
                )
            else:
                incoming.append(
                    IncomingTask(
                        processing_time=task.processing_time,
                        cost=task.cost,
                        domain=task.true_domain,
                    )
                )
        return incoming

    def run_day(self, day: int, tasks: Sequence, observe: Callable) -> DayOutcome:
        incoming = self._incoming(tasks)
        if not self._system.is_warmed_up:
            result = self._system.warmup(incoming, observe)
        else:
            result = self._system.step(incoming, observe)
        self._labels.extend(result.task_domains.tolist())
        return DayOutcome(
            assignment=result.assignment,
            observations=result.observations,
            truths=result.truths,
            allocation_cost=result.allocation_cost,
            timings=result.timings,
            excluded_users=result.excluded_users,
            reputation=result.reputation,
            guard_report=result.guard_report,
        )

    def expertise_snapshot(self) -> dict:
        return self._system.expertise_matrix().as_dict()

    def task_domain_labels(self) -> np.ndarray:
        return np.asarray(self._labels, dtype=int)

    def iteration_counts(self) -> list:
        return list(self._system.iteration_log)


class _BaselineApproach(Approach):
    """The day setup the Section 6.3 baselines share: a per-run random
    allocator, the users' capacities, and an expertise-free problem."""

    def begin(self, dataset, seed) -> None:
        self._random = RandomAllocator(seed=seed)
        self._capacities = np.array([user.capacity for user in dataset.users], dtype=float)

    def _problem(self, tasks: Sequence) -> AllocationProblem:
        return AllocationProblem(
            expertise=np.full((self._capacities.shape[0], len(tasks)), DEFAULT_EXPERTISE),
            processing_times=np.array([task.processing_time for task in tasks], dtype=float),
            capacities=self._capacities,
            costs=np.array([task.cost for task in tasks], dtype=float),
        )


class ReliabilityApproach(_BaselineApproach):
    """A reliability-based truth-discovery method plus reliability-greedy
    allocation (the paper's comparison recipe, Section 6.3)."""

    def __init__(self, method: TruthDiscovery):
        self._method = method
        self.name = method.name
        self._reliabilities: "np.ndarray | None" = None
        self._cumulative_values: "np.ndarray | None" = None
        self._cumulative_mask: "np.ndarray | None" = None

    def begin(self, dataset, seed) -> None:
        super().begin(dataset, seed)
        self._reliabilities = None
        self._cumulative_values = np.zeros((dataset.n_users, 0), dtype=float)
        self._cumulative_mask = np.zeros((dataset.n_users, 0), dtype=bool)

    def run_day(self, day: int, tasks: Sequence, observe: Callable) -> DayOutcome:
        problem = self._problem(tasks)
        if self._reliabilities is None:
            assignment = self._random.allocate(problem)
        else:
            assignment = ReliabilityGreedyAllocator(self._reliabilities).allocate(problem)
        observations = assignment.collect(observe)

        # Estimate on everything delivered so far; reliabilities carry over.
        self._cumulative_values = np.hstack([self._cumulative_values, observations.values])
        self._cumulative_mask = np.hstack([self._cumulative_mask, observations.mask])
        cumulative = ObservationMatrix(values=self._cumulative_values, mask=self._cumulative_mask)
        estimate = self._method.estimate(cumulative)
        self._reliabilities = estimate.reliabilities
        return DayOutcome(
            assignment=assignment,
            observations=observations,
            truths=estimate.truths[-len(tasks):],
            allocation_cost=assignment.total_cost(problem.costs),
        )


class MeanApproach(_BaselineApproach):
    """The paper's lower-bound Baseline: random allocation, mean estimate."""

    name = "baseline-mean"

    def run_day(self, day: int, tasks: Sequence, observe: Callable) -> DayOutcome:
        problem = self._problem(tasks)
        assignment = self._random.allocate(problem)
        observations = assignment.collect(observe)
        return DayOutcome(
            assignment=assignment,
            observations=observations,
            truths=observations.task_means(),
            allocation_cost=assignment.total_cost(problem.costs),
        )
