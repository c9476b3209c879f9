"""The multi-day simulation driver (Section 6.2's experimental loop).

Tasks are evenly distributed across ``n_days`` days.  Day 0 is the warm-up
period — the approaches allocate randomly because no reliability or
expertise is known yet (each approach handles this internally).  Each day
the engine hands the approach that day's tasks and an ``observe`` callback
wired to the ground-truth world, then scores the returned truth estimates.

Two reliability extensions support chaos testing and crash/restore drills:

- ``config.faults`` wraps the world in a
  :class:`~repro.reliability.chaos.ChaosWorld` and the per-day ``observe``
  callback in a :class:`~repro.reliability.observer.ResilientObserver`
  (shared circuit breaker, virtual clock, sanitizer), so injected
  transport failures degrade days instead of aborting the run;
- ``config.start_day`` / ``config.end_day`` run a *window* of the same
  deterministic schedule, so a run can be split at a crash point and
  resumed (or cold-restarted) over exactly the remaining days.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.reliability.faults import FaultProfile
from repro.rng import ensure_rng
from repro.simulation.approaches import Approach
from repro.simulation.metrics import normalized_estimation_error
from repro.truthdiscovery.base import ObservationMatrix

__all__ = [
    "SimulationConfig",
    "DayRecord",
    "SimulationResult",
    "run_simulation",
    "generate_traffic",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level settings."""

    n_days: int = 5
    bias_fraction: float = 0.0
    #: Std of the per-day Gaussian random walk on hidden user expertise
    #: (0 = the paper's stationary setting).
    drift_rate: float = 0.0
    #: Fraction of users replaced by adversarial behaviour, and its kind
    #: (see :mod:`repro.simulation.adversaries`).
    adversary_fraction: float = 0.0
    adversary_kind: str = "random"
    #: Probability that an assigned user never delivers an observation
    #: (capacity and recruiting cost are still spent).
    dropout_rate: float = 0.0
    seed: "int | None" = None
    #: Deterministic fault injection on the data-collection path (None =
    #: the paper's fault-free transport).  When set, collection runs behind
    #: the resilient-observer wrapper so faults degrade rather than abort.
    faults: "FaultProfile | None" = None
    #: Per-call timeout for the resilient observer, measured on the chaos
    #: layer's virtual clock.  None derives half the injected latency (so
    #: latency faults actually trip the timeout path).
    observer_timeout: "float | None" = None
    #: Day window ``[start_day, end_day)`` of the same deterministic
    #: schedule; ``end_day=None`` means ``n_days``.  Splitting one schedule
    #: across two runs is how crash/restore drills replay "the remaining
    #: days" exactly.
    start_day: int = 0
    end_day: "int | None" = None

    def __post_init__(self):
        if self.n_days < 1:
            raise ValueError("n_days must be at least 1")
        if not 0.0 <= self.bias_fraction <= 1.0:
            raise ValueError("bias_fraction must lie in [0, 1]")
        if self.drift_rate < 0.0:
            raise ValueError("drift_rate must be non-negative")
        if not 0.0 <= self.adversary_fraction <= 1.0:
            raise ValueError("adversary_fraction must lie in [0, 1]")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.observer_timeout is not None and self.observer_timeout <= 0.0:
            raise ValueError("observer_timeout must be positive (or None)")
        if not 0 <= self.start_day < self.n_days:
            raise ValueError("start_day must lie in [0, n_days)")
        if self.end_day is not None and not self.start_day < self.end_day <= self.n_days:
            raise ValueError("end_day must lie in (start_day, n_days]")

    @property
    def last_day(self) -> int:
        """The exclusive end of the simulated day window."""
        return self.n_days if self.end_day is None else self.end_day


@dataclass(frozen=True)
class DayRecord:
    """Per-day outcome."""

    day: int
    task_indices: np.ndarray
    estimation_error: float
    allocation_cost: float
    pair_count: int
    observations: ObservationMatrix
    truths: np.ndarray
    #: Per-phase wall-clock seconds from the approach's pipeline (ETA2
    #: approaches only; None for the baselines).
    timings: "dict | None" = None
    #: Handle on the run's :class:`~repro.observability.RunTracer` (None
    #: when the run was not traced): ``record.trace.events("mle.iteration")``
    #: etc. reads the run's event stream without reaching into the engine.
    trace: "object | None" = None
    #: Users the allocators excluded this day under reputation quarantine.
    excluded_users: tuple = ()
    #: The day's reputation summary / merged guard report (None when the
    #: respective subsystem is off or the approach does not support it).
    reputation: "object | None" = None
    guard_report: "object | None" = None

    @property
    def observed_task_fraction(self) -> float:
        observed = self.observations.mask.any(axis=0)
        return float(np.mean(observed)) if observed.size else 0.0


@dataclass(frozen=True)
class SimulationResult:
    """Full outcome of one simulation run."""

    approach_name: str
    dataset_name: str
    days: tuple
    expertise_snapshot: "dict | None"
    task_domain_labels: "np.ndarray | None"
    mle_iterations: tuple
    #: Hidden per-pair expertise of every collected observation, aligned
    #: with ``all_observation_errors`` (Figs. 2 and 7).
    observation_expertise: np.ndarray
    observation_errors: np.ndarray
    #: Users that were given adversarial behaviour this run (empty tuple in
    #: the paper's honest setting).
    adversary_users: tuple = ()
    #: Resilient-collection counters when ``config.faults`` was set
    #: (retries, timeouts, salvaged pairs, ...); None on fault-free runs.
    observer_report: "object | None" = None
    #: Injected-fault counters from the chaos layer; None on fault-free runs.
    fault_counts: "dict | None" = None
    #: Sanitizer quarantine counters; None on fault-free runs.
    sanitize_report: "object | None" = None
    #: Users under quarantine when the run ended (reputation-enabled ETA2
    #: approaches only; empty otherwise).
    final_quarantined: tuple = ()
    #: Users on probation (served quarantine, under observation) at the end.
    final_probation: tuple = ()
    #: Users quarantined at *any* point during the run — the cumulative
    #: detection record.  Quarantine/probation cycling means the final-day
    #: quarantine set under-reports detections near the horizon.
    ever_quarantined: tuple = ()

    @property
    def mean_estimation_error(self) -> float:
        errors = [day.estimation_error for day in self.days if np.isfinite(day.estimation_error)]
        return float(np.mean(errors)) if errors else float("nan")

    @property
    def total_cost(self) -> float:
        return float(sum(day.allocation_cost for day in self.days))

    def errors_by_day(self) -> np.ndarray:
        return np.array([day.estimation_error for day in self.days], dtype=float)

    @property
    def processed_task_order(self) -> np.ndarray:
        """Global task indices in processing order.

        Aligns with ``task_domain_labels`` (approaches append labels in the
        order the engine feeds them tasks).
        """
        if not self.days:
            return np.zeros(0, dtype=int)
        return np.concatenate([day.task_indices for day in self.days])

    def fingerprint(self) -> str:
        """SHA-256 over the run's numeric outcome, for equivalence checks.

        Covers the per-day errors, every collected observation (error and
        hidden expertise), the MLE iteration counts, and each day's truth
        estimates byte-for-byte.  Two runs fingerprint identically iff the
        solver produced bit-identical numbers; the golden tests pin the
        seed-2017 eta2 and eta2-mc digests.
        """
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.errors_by_day(), dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(self.observation_errors, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(self.observation_expertise, dtype=np.float64).tobytes())
        digest.update(np.asarray(self.mle_iterations, dtype=np.int64).tobytes())
        for day in self.days:
            digest.update(np.ascontiguousarray(day.truths, dtype=np.float64).tobytes())
            digest.update(np.asarray(day.allocation_cost, dtype=np.float64).tobytes())
        return digest.hexdigest()


def run_simulation(
    dataset,
    approach: Approach,
    config: SimulationConfig = SimulationConfig(),
    telemetry=None,
) -> SimulationResult:
    """Run one approach over one dataset for ``config.n_days`` days.

    ``dataset`` is a :class:`repro.datasets.base.CrowdsourcingDataset`
    (imported lazily here to keep the package import graph acyclic).

    ``telemetry`` is an optional :class:`~repro.observability.Telemetry`
    bundle: the engine emits ``day.start``/``day.end`` events, hands the
    bundle to the approach (which threads it into its ``ETA2System``),
    attaches the chaos layer's virtual clock to the tracer so timestamps
    are deterministic, and puts the tracer handle on every
    :class:`DayRecord`.  The caller keeps ownership: call
    ``telemetry.finalize()`` after the run to flush exports.
    """
    from repro.datasets.base import evenly_distributed_days

    rng = ensure_rng(config.seed)
    schedule_rng, world_rng, approach_seed, adversary_rng, dropout_rng = rng.spawn(5)
    schedule = evenly_distributed_days(dataset.n_tasks, config.n_days, schedule_rng)
    adversaries = None
    if config.adversary_fraction > 0.0:
        from repro.simulation.adversaries import make_adversary_map

        adversaries = make_adversary_map(
            dataset.n_users, config.adversary_fraction, config.adversary_kind, seed=adversary_rng
        )
    world = dataset.world(
        bias_fraction=config.bias_fraction,
        drift_rate=config.drift_rate,
        adversaries=adversaries,
        seed=world_rng,
    )

    # Chaos + resilience layer: injected faults must degrade days, never
    # abort the run, so collection goes through the resilient observer
    # (shared breaker/report/virtual clock across the whole run).
    chaos = None
    resilience: "dict | None" = None
    if config.faults is not None and config.faults.active:
        from repro.reliability.chaos import ChaosWorld
        from repro.reliability.faults import VirtualClock
        from repro.reliability.observer import CircuitBreaker, ObserverReport, RetryPolicy
        from repro.reliability.sanitize import ObservationSanitizer

        chaos_rng = rng.spawn(1)[0]
        clock = VirtualClock()
        chaos = ChaosWorld(world, config.faults, seed=chaos_rng, clock=clock)
        world = chaos
        timeout = config.observer_timeout
        if timeout is None and config.faults.latency_rate > 0.0 and config.faults.latency > 0.0:
            timeout = config.faults.latency / 2.0
        resilience = {
            # Simulated time: retries are immediate and the breaker
            # half-opens right away — a static virtual clock must never
            # leave the circuit permanently open.
            "retry": RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
            "breaker": CircuitBreaker(failure_threshold=6, recovery_time=0.0, clock=clock),
            "call_timeout": timeout,
            "sanitizer": ObservationSanitizer(),
            "clock": clock,
            "report": ObserverReport(),
        }
    tracer = None
    if telemetry is not None:
        tracer = telemetry.tracer if telemetry.tracer.enabled else None
    if tracer is not None and resilience is not None:
        # Virtual time, not wall time: timestamps advance with injected
        # latency and replay byte-identically.
        tracer.set_clock(resilience["clock"])
    if telemetry is not None:
        approach.attach_telemetry(telemetry)
    approach.begin(dataset, seed=approach_seed)

    true_values = world.true_values()
    base_numbers = world.base_numbers()

    day_records: list = []
    # Per-observe-call ndarray chunks (concatenated once at the end) instead
    # of per-pair Python appends: the accounting below is O(1) array ops per
    # call rather than O(pairs) interpreter work.
    pair_expertise_chunks: list = []
    pair_error_chunks: list = []
    for day in range(config.start_day, config.last_day):
        task_indices = np.flatnonzero(schedule == day)
        if task_indices.size == 0:
            continue
        day_tasks = dataset.tasks.take(task_indices)

        def observe(pairs, _indices=task_indices):
            # Day-local -> global task ids; the world takes the (n, 2) array.
            users, tasks = pairs.T
            global_pairs = np.column_stack((users, _indices[tasks]))
            values = np.asarray(world.observe_pairs(global_pairs), dtype=float)
            if config.dropout_rate > 0.0:
                dropped = dropout_rng.random(len(values)) < config.dropout_rate
                values = np.where(dropped, np.nan, values)
            delivered = ~np.isnan(values)
            if np.any(delivered):
                (du, dt), dv = global_pairs[delivered].T, values[delivered]
                pair_expertise_chunks.append(world.pair_expertise(du, dt))
                pair_error_chunks.append((dv - true_values[dt]) / base_numbers[dt])
            return values

        collect = observe
        if resilience is not None:
            from repro.reliability.observer import ResilientObserver

            collect = ResilientObserver(
                observe,
                retry=resilience["retry"],
                breaker=resilience["breaker"],
                call_timeout=resilience["call_timeout"],
                sanitizer=resilience["sanitizer"],
                clock=resilience["clock"],
                sleep=lambda _seconds: None,
                report=resilience["report"],
            )
        if tracer is not None:
            tracer.emit("day.start", day=day, n_tasks=int(task_indices.size))
        outcome = approach.run_day(day, day_tasks, collect)
        world.advance_day()
        error = normalized_estimation_error(
            outcome.truths, true_values[task_indices], base_numbers[task_indices]
        )
        if tracer is not None:
            observed = outcome.observations.mask.any(axis=0)
            tracer.emit(
                "day.end",
                day=day,
                error=float(error),
                cost=float(outcome.allocation_cost),
                pairs=int(outcome.assignment.pair_count),
                coverage=float(np.mean(observed)) if observed.size else 0.0,
            )
        if telemetry is not None and telemetry.metrics is not None:
            telemetry.metrics.counter(
                "repro_days_total", "Simulated days completed."
            ).inc()
            if np.isfinite(error):
                telemetry.metrics.gauge(
                    "repro_estimation_error",
                    "Normalized estimation error of the most recent day.",
                ).set(float(error))
        day_records.append(
            DayRecord(
                day=day,
                task_indices=task_indices,
                estimation_error=error,
                allocation_cost=outcome.allocation_cost,
                pair_count=outcome.assignment.pair_count,
                observations=outcome.observations,
                truths=np.asarray(outcome.truths, dtype=float),
                timings=outcome.timings,
                trace=tracer,
                excluded_users=outcome.excluded_users,
                reputation=outcome.reputation,
                guard_report=outcome.guard_report,
            )
        )

    last_reputation = day_records[-1].reputation if day_records else None
    return SimulationResult(
        approach_name=approach.name,
        dataset_name=dataset.name,
        days=tuple(day_records),
        expertise_snapshot=approach.expertise_snapshot(),
        task_domain_labels=approach.task_domain_labels(),
        mle_iterations=tuple(approach.iteration_counts()),
        observation_expertise=(
            np.concatenate(pair_expertise_chunks) if pair_expertise_chunks else np.zeros(0)
        ),
        observation_errors=(
            np.concatenate(pair_error_chunks) if pair_error_chunks else np.zeros(0)
        ),
        adversary_users=tuple(world.adversary_users),
        observer_report=None if resilience is None else resilience["report"],
        fault_counts=None if chaos is None else chaos.fault_counts,
        sanitize_report=None if resilience is None else resilience["sanitizer"].report,
        final_quarantined=() if last_reputation is None else last_reputation.quarantined,
        final_probation=() if last_reputation is None else last_reputation.probation,
        ever_quarantined=() if last_reputation is None else last_reputation.ever_quarantined,
    )


def generate_traffic(
    n_users: int = 20,
    n_tasks: int = 60,
    n_days: int = 3,
    n_domains: int = 4,
    reporters_per_task: int = 3,
    tau: float = 12.0,
    faults: "FaultProfile | None" = None,
    seed=None,
):
    """Record a replayable traffic trace for the ingestion service.

    Samples a synthetic world (Section 6.1.3 recipe), spreads its tasks
    over ``n_days`` days, draws ``reporters_per_task`` reporting users per
    task, and packages each user's daily reports as one
    :class:`~repro.serve.service.ReportBatch` with a stable ``batch_id``
    — the idempotency key the crash drills rely on.  ``faults`` applies
    the profile's *pair-level* corruption (drops become NaN payloads,
    outliers are displaced) through a
    :class:`~repro.reliability.faults.FaultInjector`, so chaos soaks feed
    the service realistically dirty traffic.  Same seed, same trace —
    the drills replay it bit-identically.

    Returns a :class:`~repro.serve.drill.TrafficTrace` (imported lazily:
    ``repro.serve`` builds on the core pipeline, so the engine must not
    import it at module level).
    """
    from repro.core.pipeline import IncomingTask
    from repro.datasets.base import evenly_distributed_days
    from repro.datasets.synthetic import synthetic_dataset
    from repro.serve.drill import TrafficDay, TrafficTrace
    from repro.serve.service import ReportBatch

    rng = ensure_rng(seed)
    data_rng, schedule_rng, world_rng, pick_rng, fault_rng = rng.spawn(5)
    dataset = synthetic_dataset(
        n_users=n_users, n_tasks=n_tasks, n_domains=n_domains, tau=tau, seed=data_rng
    )
    world = dataset.world(seed=world_rng)
    schedule = evenly_distributed_days(dataset.n_tasks, n_days, schedule_rng)
    injector = None
    if faults is not None and faults.active:
        from repro.reliability.faults import FaultInjector

        injector = FaultInjector(faults, seed=fault_rng)

    capacities = tuple(dataset.capacities.tolist())
    reporters = min(int(reporters_per_task), dataset.n_users)
    if reporters < 1:
        raise ValueError("reporters_per_task must be at least 1")
    columns = (dataset.tasks.processing_time, dataset.tasks.cost, dataset.tasks.true_domain)
    days = []
    for day in range(n_days):
        task_indices = np.flatnonzero(schedule == day)
        if task_indices.size == 0:
            continue
        tasks = tuple(
            IncomingTask(processing_time=time, cost=cost, domain=domain)
            for time, cost, domain in zip(*(c[task_indices].tolist() for c in columns))
        )
        users = np.concatenate(
            [pick_rng.choice(dataset.n_users, size=reporters, replace=False) for _ in task_indices]
        )
        local = np.repeat(np.arange(task_indices.size), reporters)
        pairs = np.column_stack((users, task_indices[local]))
        values = np.asarray(world.observe_pairs(pairs), dtype=float)
        if injector is not None:
            values = injector.corrupt(values)
        per_user: dict = {}
        for report in zip(users.tolist(), local.tolist(), values.tolist()):
            per_user.setdefault(report[0], []).append(report)
        batches = tuple(
            ReportBatch(
                submitter=user,
                day=day,
                reports=tuple(per_user[user]),
                batch_id=f"d{day}-u{user}",
            )
            for user in sorted(per_user)
        )
        days.append(TrafficDay(day=day, tasks=tasks, batches=batches))
        world.advance_day()
    return TrafficTrace(n_users=dataset.n_users, capacities=capacities, days=tuple(days))
