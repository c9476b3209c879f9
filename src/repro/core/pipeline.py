"""The ETA2 closed loop (Figure 1) as a reusable system object.

:class:`ETA2System` glues the three modules together exactly as the paper's
overview describes: a warm-up step with random allocation (no expertise is
known yet), then a repetitive daily process — identify the new tasks'
expertise domains, allocate with the expertise-aware allocator, collect
data, and run expertise-aware truth analysis to update user expertise.

The system is environment-agnostic: data collection happens through an
``observe(pairs) -> values`` callback (``pairs`` an ``(n, 2)`` intp array of
``(user, local_task_index)`` rows, ``values`` any length-``n`` float
sequence), so the same object runs against the simulation world, a
recorded dataset, or (in principle) live users.

Two allocation modes mirror the paper's two problem formulations:

- ``allocator="max-quality"`` — ETA2 proper (Algorithm 1 + extra pass),
- ``allocator="min-cost"``   — ETA2-mc (Algorithm 2), which interleaves
  recruiting rounds with data collection inside a single :meth:`step`.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from repro.clustering.dynamic import DynamicHierarchicalClustering
from repro.core.allocation.base import DEFAULT_EPSILON, AllocationProblem, Assignment
from repro.core.allocation.baselines import RandomAllocator
from repro.core.allocation.max_quality import MaxQualityAllocator
from repro.core.allocation.min_cost import MinCostAllocator
from repro.core.expertise import ExpertiseMatrix
from repro.core.hooks import LAYERS, StepHook
from repro.core.truth import SIGMA_FLOOR, estimate_truth
from repro.core.update import ExpertiseUpdater
from repro.observability.tracer import NULL_TRACER
from repro.perf.timers import PhaseTimer
from repro.semantics.distance import semantics_for_descriptions
from repro.semantics.embeddings.base import EmbeddingModel
from repro.semantics.embeddings.cooccurrence import PPMISVDEmbedding
from repro.semantics.embeddings.corpus import generate_topical_corpus
from repro.stats.confidence import ConfidenceInterval, truth_half_widths
from repro.truthdiscovery.base import ObservationMatrix

__all__ = ["IncomingTask", "TaskBatch", "StepResult", "ETA2System", "default_embedding"]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class IncomingTask:
    """A newly created task as handed to the server.

    Exactly one of ``description`` (text datasets — the system clusters it)
    or ``domain`` (pre-known expertise domain, Section 6.1.3 style) must be
    provided.
    """

    processing_time: float
    cost: float = 1.0
    description: "str | None" = None
    domain: "int | None" = None

    def __post_init__(self):
        if self.processing_time <= 0:
            raise ValueError("processing_time must be positive")
        if self.cost < 0:
            raise ValueError("cost must be non-negative")
        if (self.description is None) == (self.domain is None):
            raise ValueError("provide exactly one of description or domain")


@dataclass(frozen=True, eq=False)
class TaskBatch:
    """One step's new tasks as read-only columns, one entry per task, with
    exactly one of ``domains`` or ``descriptions`` (as for :class:`IncomingTask`,
    whose sequences :meth:`of` converts)."""

    processing_times: np.ndarray
    costs: np.ndarray
    domains: "np.ndarray | None" = None
    descriptions: "tuple | None" = None

    def __post_init__(self):
        if (self.descriptions is None) == (self.domains is None):
            raise ValueError("provide exactly one of descriptions or domains")
        if self.descriptions is not None:
            object.__setattr__(self, "descriptions", tuple(self.descriptions))
        n_tasks = len(self.domains if self.descriptions is None else self.descriptions)
        for name, dtype in (("processing_times", float), ("costs", float), ("domains", int)):
            if getattr(self, name) is not None:
                column = np.array(getattr(self, name), dtype=dtype)
                if column.shape != (n_tasks,):
                    raise ValueError("task batch columns must have one entry per task")
                column.flags.writeable = False
                object.__setattr__(self, name, column)
        if np.any(self.processing_times <= 0):
            raise ValueError("processing_time must be positive")
        if np.any(self.costs < 0):
            raise ValueError("cost must be non-negative")

    def __len__(self) -> int:
        return len(self.processing_times)

    @classmethod
    def of(cls, tasks) -> "TaskBatch":
        """``tasks`` as a batch: a batch passes through, and a sequence of
        :class:`IncomingTask` records (the serving tier's form) must be all
        text or all pre-known domains."""
        if isinstance(tasks, TaskBatch):
            return tasks
        texts = [task.description for task in tasks]
        if 0 < texts.count(None) < len(texts):
            raise ValueError("a batch must be all-text or all-preknown-domain tasks")
        times, costs = [t.processing_time for t in tasks], [t.cost for t in tasks]
        if None in texts:
            return cls(times, costs, domains=[task.domain for task in tasks])
        return cls(times, costs, descriptions=texts)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one warm-up or daily step."""

    assignment: Assignment
    observations: ObservationMatrix
    truths: np.ndarray
    sigmas: np.ndarray
    task_domains: np.ndarray
    merges: tuple
    new_domains: tuple
    mle_iterations: int
    allocation_cost: float
    #: Per-task expertise ``u_{i, d_j}`` used for this step's allocation and
    #: confidence intervals (post-update values).
    task_expertise: "np.ndarray | None" = None
    #: Whether this step's truth analysis converged within its iteration
    #: budget.  False marks a degraded day: the estimates are the last
    #: iterate, not a fixed point (also logged as a warning).
    converged: bool = True
    #: Wall-clock seconds per pipeline phase (``identify``/``allocate``/
    #: ``collect``/``truth``), recorded by :class:`~repro.perf.timers.PhaseTimer`.
    timings: "dict | None" = None
    #: Users the allocators excluded this step because the reputation
    #: tracker had them quarantined (empty without a tracker).
    excluded_users: tuple = ()
    #: The :class:`~repro.reliability.reputation.ReputationSummary` of this
    #: step's scoring pass (None without a tracker).
    reputation: "object | None" = None
    #: Merged :class:`~repro.reliability.guards.GuardReport` of this step's
    #: phase-boundary checks (None without guards enabled).
    guard_report: "object | None" = None
    #: Merged :class:`~repro.core.allocation.lazy_greedy.GreedyStats` of this
    #: step's greedy passes (None without one, e.g. at warm-up).
    greedy_stats: "object | None" = None

    @property
    def degraded(self) -> bool:
        """True when this step's estimates should be treated with suspicion."""
        return not self.converged

    @property
    def pair_count(self) -> int:
        return self.assignment.pair_count

    def confidence_intervals(self, confidence: float = 0.95) -> list:
        """Eq. 24 confidence intervals for every task's truth estimate.

        Returns one :class:`~repro.stats.confidence.ConfidenceInterval` per
        task, summing Eq. 23 over the users whose data arrived (infinite
        width and a NaN center for tasks with no observation or no positive
        finite sigma).  Requires ``task_expertise`` (set by
        :class:`ETA2System`).
        """
        if self.task_expertise is None:
            raise ValueError("this result carries no per-task expertise")
        mask = self.observations.mask
        half_widths = truth_half_widths(self.task_expertise, mask, self.sigmas, confidence)
        valid = mask.any(axis=0) & np.isfinite(self.sigmas) & (self.sigmas > 0)
        centers = np.where(valid, self.truths, np.nan).tolist()
        half_widths = np.where(valid, half_widths, np.inf).tolist()
        return [
            ConfidenceInterval(center=center, half_width=half_width, confidence=confidence)
            for center, half_width in zip(centers, half_widths)
        ]


def default_embedding(dim: int = 32, seed: int = 0) -> EmbeddingModel:
    """The library's default embedding backend.

    A PPMI+SVD model trained on the bundled topical corpus — deterministic,
    fast, and sufficient for same-domain words to cluster (DESIGN.md's
    substitution for the paper's Wikipedia-trained skip-gram vectors).

    Like the paper's pre-trained vectors, the model is trained once: an
    integer ``seed`` returns one shared, read-only instance per process and
    ``(dim, seed)``.  ``seed=None`` or a ``Generator`` trains a fresh model.
    """
    dim = operator.index(dim)
    try:
        seed = operator.index(seed)
    except TypeError:
        return _train_default_embedding(dim, seed)
    return _shared_default_embedding(dim, seed)


def _train_default_embedding(dim: int, seed) -> EmbeddingModel:
    corpus = generate_topical_corpus(seed=seed)
    return PPMISVDEmbedding(corpus.sentences, dim=dim)


# Safe to share: the trained vectors and the out-of-vocabulary fallback's
# cached vectors are both read-only, so no caller can alter a later run.
_shared_default_embedding = lru_cache(maxsize=None)(_train_default_embedding)


class ETA2System:
    """Expertise-aware truth analysis and task allocation, end to end."""

    def __init__(
        self,
        n_users: int,
        capacities: Sequence[float],
        gamma: float = 0.5,
        alpha: float = 0.5,
        epsilon: float = DEFAULT_EPSILON,
        allocator: str = "max-quality",
        embedding: "EmbeddingModel | None" = None,
        min_cost_round_budget: float = 100.0,
        min_cost_error_limit: float = 0.5,
        min_cost_confidence: float = 0.95,
        extra_greedy_pass: bool = True,
        exploration_rate: float = 0.0,
        clustering_metric: str = "euclidean",
        seed=None,
    ):
        capacities = np.asarray(capacities, dtype=float)
        if capacities.shape != (n_users,):
            raise ValueError("capacities must have one entry per user")
        if allocator not in ("max-quality", "min-cost"):
            raise ValueError("allocator must be 'max-quality' or 'min-cost'")
        self._n_users = int(n_users)
        self._capacities = capacities
        self._epsilon = float(epsilon)
        self._allocator_kind = allocator
        self._embedding = embedding
        self._clustering = DynamicHierarchicalClustering(gamma=gamma, metric=clustering_metric)
        self._updater = ExpertiseUpdater(n_users, alpha=alpha)
        # ``seed`` may be one Generator shared by both allocators: the
        # exploring fill draws from it only when exploration_rate > 0.
        self._max_quality = MaxQualityAllocator(
            extra_pass=extra_greedy_pass, exploration_rate=exploration_rate, seed=seed
        )
        self._min_cost = MinCostAllocator(
            round_budget=min_cost_round_budget,
            error_limit=min_cost_error_limit,
            confidence=min_cost_confidence,
            extra_pass=extra_greedy_pass,
        )
        self._random = RandomAllocator(seed=seed)
        self._warmed_up = False
        #: Per-step MLE iteration counts (consumed by the Fig. 12 experiment).
        self.iteration_log: list = []
        #: Completed warm-up/daily steps (drives checkpoint numbering).
        self.completed_steps = 0
        # Optional layers, all off until their enable_* call: each keeps its
        # objects below and its StepHook in _layers (run as _hooks).
        #: Cross-day reputation tracker (None until enable_reputation()).
        self.reputation = None
        #: Phase-boundary invariant guard (None until enable_guards()).
        self.guard = None
        #: Checkpoint writer (None until enable_checkpointing()).
        self.checkpoint_manager = None
        # Telemetry (see enable_telemetry): the no-op tracer costs one
        # attribute check per instrumentation point, so it stays attached.
        self.tracer = NULL_TRACER
        #: Optional :class:`~repro.observability.MetricsRegistry`.
        self.metrics = None
        #: Optional run manifest (repro.observability.run_manifest).
        self.run_manifest = None
        self._layers: dict = {}
        self._hooks: list = []

    @property
    def n_users(self) -> int:
        return self._n_users

    @property
    def is_warmed_up(self) -> bool:
        return self._warmed_up

    def expertise_matrix(self) -> ExpertiseMatrix:
        """Current per-user per-domain expertise estimates."""
        return self._updater.expertise_matrix()

    # ------------------------------------------------------------------ #
    # Optional layers: each enable_* installs one StepHook (lazy imports)
    # ------------------------------------------------------------------ #

    def _install(self, layer: str, hook: StepHook) -> None:
        """Turn one layer's hook on; hooks run in LAYERS order, and every
        install points the guard and checkpoints at the current telemetry."""
        self._layers[layer] = hook
        self._hooks = [self._layers[name] for name in LAYERS if name in self._layers]
        if self.guard is not None:
            self.guard.tracer = self.tracer
        if self.checkpoint_manager is not None:
            self.checkpoint_manager.tracer = self.tracer
            if self.checkpoint_manager.manifest is None:
                self.checkpoint_manager.manifest = self.run_manifest

    def enable_reputation(self, config=None):
        """Track cross-day worker reputation and quarantine misbehaviour.

        From now on, every completed step folds its standardized residuals
        into a :class:`~repro.reliability.reputation.ReputationTracker`
        (created here; defaults to the updater's decay ``alpha``), and every
        allocation excludes the currently quarantined users.  Returns the
        tracker (also kept on ``system.reputation``).
        """
        from repro.reliability.reputation import ReputationConfig, ReputationHook, ReputationTracker

        if config is None:
            config = ReputationConfig(alpha=self._updater.alpha)
        self.reputation = ReputationTracker(self._n_users, config)
        self._install("reputation", ReputationHook())
        return self.reputation

    def enable_guards(self, policy: str = "warn", config=None):
        """Check phase-boundary invariants on every step.

        ``policy`` is ``"warn"``, ``"raise"`` or ``"repair"`` (ignored when
        an explicit :class:`~repro.reliability.guards.GuardConfig` is
        given).  Returns the guard (also kept on ``system.guard``); each
        step's merged report lands on ``StepResult.guard_report``.
        """
        from repro.reliability.guards import GuardConfig, GuardHook, InvariantGuard

        self.guard = InvariantGuard(config if config is not None else GuardConfig(policy=policy))
        self._install("guards", GuardHook())
        return self.guard

    def enable_telemetry(self, tracer=None, metrics=None, manifest=None):
        """Attach structured tracing and/or a metrics registry to the loop.

        ``tracer`` is a :class:`~repro.observability.RunTracer` (None keeps
        the no-op tracer), ``metrics`` a
        :class:`~repro.observability.MetricsRegistry`, ``manifest`` the run
        manifest stamped onto checkpoints.  Already-enabled subsystems
        (guards, checkpointing) are re-pointed at the new telemetry, and
        subsystems enabled later pick it up automatically — call order
        does not matter.
        """
        from repro.observability.hooks import TelemetryHook

        if tracer is not None:
            self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics
        if manifest is not None:
            self.run_manifest = manifest
        self._install("telemetry", TelemetryHook())
        return self

    def enable_checkpointing(self, directory, keep: int = 3):
        """Checkpoint automatically after every completed warm-up/step.

        Returns the :class:`~repro.reliability.checkpoint.CheckpointManager`
        (also kept on the system) so callers can inspect or restore.
        """
        from repro.reliability.checkpoint import CheckpointHook, CheckpointManager

        self.checkpoint_manager = CheckpointManager(directory, keep=keep)
        self._install("checkpoint", CheckpointHook())
        return self.checkpoint_manager

    def restore_latest(self) -> "int | None":
        """Restore the newest valid checkpoint (requires checkpointing).

        Returns the restored step number, or None when no valid checkpoint
        exists; in that case the system keeps its current (cold) state.
        """
        if self.checkpoint_manager is None:
            raise RuntimeError("call enable_checkpointing() first")
        return self.checkpoint_manager.restore(self)

    @classmethod
    def resume(cls, directory, keep: int = 3, **system_kwargs) -> "ETA2System":
        """Build a system and recover it from the newest valid checkpoint.

        ``system_kwargs`` are the normal constructor arguments (state files
        deliberately exclude construction-time configuration).  Corrupt
        checkpoints are skipped newest-to-oldest; with no valid checkpoint
        at all the system starts cold (with a warning).
        """
        system = cls(**system_kwargs)
        system.enable_checkpointing(directory, keep=keep)
        system.restore_latest()
        return system

    # ------------------------------------------------------------------ #
    # Domain identification (Module 1)
    # ------------------------------------------------------------------ #

    def _embedding_model(self) -> EmbeddingModel:
        if self._embedding is None:
            self._embedding = default_embedding()
        return self._embedding

    def _identify_domains(self, tasks: TaskBatch) -> "tuple[np.ndarray, tuple, tuple]":
        """Domain ids for a batch of tasks, plus (merges, new_domains)."""
        if tasks.descriptions is None:
            return tasks.domains, (), ()
        semantics = semantics_for_descriptions(list(tasks.descriptions), self._embedding_model())
        vectors = np.vstack([item.concatenated for item in semantics])
        if self._clustering.is_fitted:
            result = self._clustering.add(vectors)
        else:
            result = self._clustering.fit(vectors)
        for merge in result.merges:
            self._updater.merge_domains(merge.kept, merge.deleted)
        if self.tracer.enabled:
            for domain in result.new_domains:
                self.tracer.emit("clustering.new_domain", domain=int(domain))
            for merge in result.merges:
                kept, deleted = int(merge.kept), int(merge.deleted)
                self.tracer.emit("clustering.merge", kept=kept, deleted=deleted)
        return result.added_labels, result.merges, result.new_domains

    # ------------------------------------------------------------------ #
    # Entry points: one step sequence, three ways to gather the data
    # ------------------------------------------------------------------ #

    def warmup(self, tasks: "TaskBatch | Sequence[IncomingTask]", observe: Callable) -> StepResult:
        """Run the warm-up period: random allocation, then batch MLE.

        ``observe(pairs)`` gets an ``(n, 2)`` intp array of ``(user,
        local_task_index)`` rows and must return one value per row.  Pass a
        :class:`~repro.reliability.observer.ResilientObserver` to retry,
        circuit-break and salvage a failing collection channel.
        """
        if self._warmed_up:
            raise RuntimeError("warm-up already done; use step()")
        if not tasks:
            raise ValueError("warm-up needs at least one task")
        gather = partial(self._gather_random, observe)
        return self._run_step("warm-up", tasks, gather)

    def step(self, tasks: "TaskBatch | Sequence[IncomingTask]", observe: Callable) -> StepResult:
        """One time step: identify domains, allocate, collect, analyse."""
        if not self._warmed_up:
            raise RuntimeError("run warmup() first")
        if not tasks:
            raise ValueError("step needs at least one task")
        gather = partial(self._gather_allocated, observe)
        return self._run_step("daily", tasks, gather)

    def step_from_batch(self, tasks: "TaskBatch | Sequence[IncomingTask]", reports) -> StepResult:
        """One step driven by externally collected reports.

        The streaming service (:mod:`repro.serve`) replays observation
        batches from its write-ahead log instead of allocating and
        collecting live: ``reports`` is an iterable of ``(user,
        local_task_index, value)`` triples for *this step's* tasks.
        Duplicate pairs resolve last-writer-wins (replay order is the WAL
        order, so this is deterministic), non-finite values erase the pair
        — the :meth:`ObservationMatrix.from_pairs` rule that live
        collection follows too — and reports from quarantined users are
        dropped, mirroring the allocator-side exclusion of the live loop.
        Runs as warm-up while the system is cold (batch MLE seed) and as a
        daily step afterwards, with the same degraded-day and bookkeeping
        semantics as the live entry points.
        """
        if not tasks:
            raise ValueError("step_from_batch needs at least one task")
        kind = "daily" if self._warmed_up else "warm-up"
        return self._run_step(kind, tasks, partial(self._gather_reports, reports))

    def _run_step(self, kind: str, tasks, gather: Callable) -> StepResult:
        """The step sequence behind every entry point.

        Take the tasks as a :class:`TaskBatch`, identify their domains, let
        ``gather(timer, tasks, domains)`` run the allocate/collect phases and
        return ``(problem, assignment, observations, greedy_stats)``, then
        analyse: a ``"warm-up"`` step seeds the updater from the batch MLE
        (Section 4.1), a ``"daily"`` step folds the data in with the decayed
        update (Section 4.2).  The installed hooks check the partition after
        identify, repair the §4 outputs and record every counted step.
        """
        tasks = TaskBatch.of(tasks)
        if self.tracer.enabled:
            self.tracer.emit(
                "step.start", step=self.completed_steps + 1, kind=kind, n_tasks=len(tasks)
            )
        tracer = self.tracer if self.tracer.enabled else None
        timer = PhaseTimer(tracer=self.tracer)
        with timer.phase("identify"):
            domains, merges, new_domains = self._identify_domains(tasks)
        report = None
        for hook in self._hooks:
            report = hook.check_partition(self, domains, new_domains, report)
        problem, assignment, observations, greedy_stats = gather(timer, tasks, domains)

        degraded = observations.observation_count == 0
        if degraded:
            # Total collection outage: nothing to learn from, so no state
            # changes.  A warm-up stays in the warm-up regime (the next day
            # retries it) instead of seeding expertise from nothing; a daily
            # decay with no fresh data would erode the learned state the
            # outage already made harder to rebuild.
            _LOG.warning(
                "%s step collected zero observations for %d tasks; "
                "returning a degraded (all-NaN) result", kind, observations.n_tasks
            )
            if self.tracer.enabled:
                self.tracer.emit("step.degraded", kind=kind, n_tasks=int(observations.n_tasks))
            truths = np.full(observations.n_tasks, np.nan)
            sigmas = np.full(observations.n_tasks, SIGMA_FLOOR)
            # No sum has moved since the problem was built.
            task_expertise = problem.expertise[:, problem.domain_columns]
            iterations, converged = 0, False
        elif kind == "warm-up":
            with timer.phase("truth"):
                batch = estimate_truth(observations, domains, tracer=tracer)
                # Repair before seeding: a repaired estimate is what the
                # updater must start from.
                truths, sigmas, expertise, report = self._repair(
                    batch.truths, batch.sigmas, batch.expertise, observations, report
                )
                batch = replace(batch, truths=truths, sigmas=sigmas, expertise=expertise)
                self._updater.seed_from_batch(observations, domains, batch)
            self._warmed_up = True
            task_expertise = batch.expertise_for_tasks(domains)
            iterations, converged = batch.iterations, batch.converged
        else:
            with timer.phase("truth"):
                update = self._updater.incorporate(
                    observations, domains, commit=True, tracer=tracer
                )
            truths, sigmas, task_expertise, report = self._repair(
                update.truths, update.sigmas, update.task_expertise, observations, report
            )
            iterations, converged = update.iterations, update.converged
        self.iteration_log.append(iterations)
        eligible = problem.eligible
        excluded = () if eligible is None else tuple(int(u) for u in np.flatnonzero(~eligible))
        result = StepResult(
            assignment=assignment,
            observations=observations,
            truths=truths,
            sigmas=sigmas,
            task_domains=domains,
            merges=merges,
            new_domains=new_domains,
            mle_iterations=iterations,
            allocation_cost=assignment.total_cost(problem.costs),
            task_expertise=task_expertise,
            converged=converged,
            timings=timer.timings(),
            excluded_users=excluded,
            guard_report=report,
            greedy_stats=greedy_stats,
        )
        if degraded:
            # Nothing was learned: no step is counted, scored or
            # checkpointed, but the non-converged result surfaces the bad day.
            return result
        if not converged:
            _LOG.warning(
                "%s step %d produced non-converged truth estimates after %d iterations",
                kind,
                self.completed_steps + 1,
                iterations,
            )
        self.completed_steps += 1
        for hook in self._hooks:
            result = hook.after_step(self, result, kind)
        return result

    def _repair(self, truths, sigmas, expertise, observations, report):
        """Run the hooks' §4 repair point over one truth analysis."""
        for hook in self._hooks:
            truths, sigmas, expertise, report = hook.repair(
                self, truths, sigmas, expertise, observations, report
            )
        return truths, sigmas, expertise, report

    def _gather_random(self, observe: Callable, timer: PhaseTimer, tasks, domains):
        """Warm-up gather: random allocation (no expertise is known yet)."""
        with timer.phase("allocate"):
            problem = self._problem(tasks, domains)
            assignment = self._random.allocate(problem)
        with timer.phase("collect"):
            observations = assignment.collect(observe)
        return problem, assignment, observations, None

    def _gather_allocated(self, observe: Callable, timer: PhaseTimer, tasks, domains):
        """Daily gather: expertise-aware allocation, then collection."""
        with timer.phase("allocate"):
            problem = self._problem(tasks, domains)
        if self._allocator_kind == "max-quality":
            with timer.phase("allocate"):
                assignment = self._max_quality.allocate(problem)
            with timer.phase("collect"):
                observations = assignment.collect(observe)
            return problem, assignment, observations, self._max_quality.last_stats
        # Algorithm 2 interleaves recruiting with collection and truth
        # previews inside one call: time the nested callbacks directly and
        # credit the remainder of the span to allocation.
        start = timer.now()
        collected_before = timer.get("collect")
        truth_before = timer.get("truth")
        outcome = self._min_cost.run(
            problem,
            observe=timer.wrap("collect", observe),
            estimate=timer.wrap("truth", partial(self._preview, domains)),
        )
        span = timer.now() - start
        nested = (timer.get("collect") - collected_before) + (timer.get("truth") - truth_before)
        timer.add("allocate", span - nested)
        return problem, outcome.assignment, outcome.observations, outcome.greedy_stats

    def _gather_reports(self, reports, timer: PhaseTimer, tasks, domains):
        """Streamed gather: fold replayed reports; nothing is allocated."""
        with timer.phase("allocate"):
            problem = self._problem(tasks, domains)
        with timer.phase("collect"):
            observations = ObservationMatrix.from_triples(reports, self._n_users, len(tasks))
            if problem.eligible is not None:
                # Quarantine is per user: clearing the rows of excluded
                # users drops exactly their reports.
                keep = problem.eligible[:, None]
                observations = ObservationMatrix(
                    values=np.where(keep, observations.values, 0.0), mask=observations.mask & keep
                )
            # The implied assignment is exactly the observed pairs: cost
            # accounting charges each task's cost per delivering user.
            assignment = Assignment(matrix=observations.mask.copy())
        return problem, assignment, observations, None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _problem(self, tasks: TaskBatch, domains: np.ndarray) -> AllocationProblem:
        """This step's allocation problem; the hooks narrow who is eligible."""
        eligible = None
        for hook in self._hooks:
            eligible = hook.eligible(self, eligible)
        expertise, domain_columns = self._updater.domain_expertise(domains)
        return AllocationProblem(
            expertise=expertise,
            domain_columns=domain_columns,
            processing_times=tasks.processing_times,
            capacities=self._capacities,
            epsilon=self._epsilon,
            costs=tasks.costs,
            eligible=eligible,
        )

    def _preview(self, domains: np.ndarray, observations: ObservationMatrix):
        """Expertise-aware estimation for Algorithm 2's inner rounds.

        Each round previews the Section 4.2 update on the data collected so
        far *without committing it*, returning refreshed truths, sigmas and
        the per-task expertise the confidence-interval check needs.
        """
        result = self._updater.incorporate(observations, domains, commit=False)
        return result.truths, result.sigmas, result.task_expertise
