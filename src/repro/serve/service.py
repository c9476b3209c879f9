"""The crash-safe streaming ingestion + day-cycle service.

:class:`IngestionService` wraps an :class:`~repro.core.pipeline.ETA2System`
behind the paper's *daily online process*: observation batches stream in
all day, and at day's end the service runs one pipeline step over
everything it accepted.  The contract is **exactly-once**: no accepted
observation is ever lost, and no observation is ever folded into the
expertise state twice — across any number of crashes and restarts.

The machinery (see ``docs/architecture.md`` § Serving & ingestion):

- every admitted batch is appended to a :class:`~repro.serve.wal.WriteAheadLog`
  *before* it is acknowledged;
- a day is *sealed* by a ``day.commit`` WAL marker naming the exact
  ``[first_seq, last_seq]`` offset range it covers plus the run's
  ``config_hash``; only then is it processed via
  :meth:`ETA2System.step_from_batch`;
- after a day is applied, a service-owned checkpoint records the number
  of applied days (the *day ordinal*) together with the system state —
  :meth:`CheckpointManager.latest_valid` is the recovery anchor;
- on restart with ``resume=True``, the WAL is replayed: sealed days whose
  ordinal is below the checkpointed count are **skipped bit-identically**
  (their effect is already inside the restored state), sealed-but-unapplied
  days are reprocessed deterministically from their WAL range, and an
  unsealed open day is re-queued in memory awaiting more traffic;
- day processing is guarded by a snapshot/rollback (domain identification
  mutates the clustering, so a failed step must not leave half a day
  applied), a :class:`~repro.reliability.retry.RetryPolicy`, and a
  :class:`~repro.reliability.observer.CircuitBreaker` that turns repeated
  downstream failures into a ``DEGRADED`` health state instead of a
  retry storm.

Health states: ``STARTING`` (recovering), ``READY``, ``DEGRADED``
(processing breaker open), ``SHEDDING`` (admission over the high
watermark), ``DRAINING`` (shutdown requested; rejecting new traffic).
"""

from __future__ import annotations

import json
import logging
import math
import signal
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.pipeline import IncomingTask
from repro.observability.analyze.slo import (
    LATENCY_BUCKETS,
    MetricsView,
    evaluate_metrics_slos,
)
from repro.observability.tracer import canonical_json
from repro.core.serialization import (
    apply_system_state,
    state_fingerprint,
    system_state_to_dict,
)
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.observer import CircuitBreaker
from repro.reliability.retry import RetryPolicy
from repro.reliability.sanitize import ScreenResult
from repro.serve.admission import SHEDDING as _Q_SHEDDING
from repro.serve.admission import AdmissionController
from repro.serve.wal import WALError, WriteAheadLog, read_wal

__all__ = [
    "STARTING",
    "READY",
    "DEGRADED",
    "SHEDDING",
    "DRAINING",
    "HEALTH_CODES",
    "ReportBatch",
    "SubmitResult",
    "ServiceError",
    "DayProcessingError",
    "IngestionService",
]

_LOG = logging.getLogger(__name__)

STARTING = "STARTING"
READY = "READY"
DEGRADED = "DEGRADED"
SHEDDING = "SHEDDING"
DRAINING = "DRAINING"

#: Numeric health encoding for the ``repro_serve_health`` gauge.
HEALTH_CODES = {STARTING: 0, READY: 1, DEGRADED: 2, SHEDDING: 3, DRAINING: 4}


class ServiceError(RuntimeError):
    """The service was misused or found persistent state it cannot trust."""


class DayProcessingError(ServiceError):
    """A sealed day exhausted its retry budget; state was rolled back."""


@dataclass(frozen=True)
class ReportBatch:
    """One submitter's bundle of ``(user, local_task, value)`` reports.

    ``batch_id`` (optional but required for crash drills) makes
    resubmission idempotent: the service remembers every durably logged
    id and rejects duplicates, so a client that never saw its ack can
    safely retry.
    """

    submitter: int
    day: int
    reports: tuple
    batch_id: "str | None" = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "reports",
            tuple((int(u), int(t), float(v)) for u, t, v in self.reports),
        )

    def as_dict(self) -> dict:
        data = {
            "submitter": int(self.submitter),
            "day": int(self.day),
            "reports": [list(r) for r in self.reports],
        }
        if self.batch_id is not None:
            data["batch_id"] = self.batch_id
        return data

    def canonical_data_json(self) -> str:
        """Canonical JSON of :meth:`as_dict` without the generic encoder.

        Byte-equal to ``canonical_json(self.as_dict())`` — the checksum a
        WAL replay recomputes covers exactly these bytes, so the composed
        string must round-trip through ``json.loads`` + re-encode
        unchanged.  ``repr`` of a finite float is the same spelling the
        JSON encoder emits; non-finite values (which JSON spells
        ``NaN``/``Infinity``, not ``nan``/``inf``) fall back to the
        generic encoder.
        """
        reports = ",".join(f"[{u},{t},{v!r}]" for u, t, v in self.reports)
        if "n" in reports or "i" in reports:  # nan/inf slipped through
            return canonical_json(self.as_dict())
        head = (
            ""
            if self.batch_id is None
            else f'"batch_id":{json.dumps(self.batch_id)},'
        )
        return (
            f'{{{head}"day":{int(self.day)},"reports":[{reports}],'
            f'"submitter":{int(self.submitter)}}}'
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ReportBatch":
        return cls(
            submitter=int(data["submitter"]),
            day=int(data["day"]),
            reports=tuple(tuple(r) for r in data["reports"]),
            batch_id=data.get("batch_id"),
        )


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of one :meth:`IngestionService.submit` call."""

    accepted: bool
    #: ``None`` when accepted; otherwise ``"draining"``, ``"no_open_day"``,
    #: ``"wrong_day"``, ``"duplicate"``, ``"schema"``, ``"rate_limited"``,
    #: ``"queue_full"``, or ``"shed_low_reputation"``.
    reason: "str | None" = None
    #: WAL sequence number of the durable record (accepted batches only).
    seq: "int | None" = None
    #: Per-report rejections ``(report, reason)``: ids outside the system or
    #: the open day, plus every schema failure in strict mode.
    rejected_reports: tuple = ()


def _task_to_dict(task: IncomingTask) -> dict:
    return {
        "processing_time": task.processing_time,
        "cost": task.cost,
        "description": task.description,
        "domain": task.domain,
    }


def _task_json(task: IncomingTask) -> str:
    """Canonical JSON of ``_task_to_dict`` with numeric fields coerced.

    Byte-equal to ``canonical_json`` of the coerced dict (keys already in
    sorted order); non-finite costs/times fall back to the generic
    encoder for JSON's ``Infinity``/``NaN`` spellings.
    """
    cost = float(task.cost)
    processing_time = float(task.processing_time)
    if not (math.isfinite(cost) and math.isfinite(processing_time)):
        return canonical_json(
            {
                "cost": cost,
                "description": task.description,
                "domain": None if task.domain is None else int(task.domain),
                "processing_time": processing_time,
            }
        )
    description = "null" if task.description is None else json.dumps(task.description)
    domain = "null" if task.domain is None else str(int(task.domain))
    return (
        f'{{"cost":{cost!r},"description":{description},"domain":{domain},'
        f'"processing_time":{processing_time!r}}}'
    )


def _task_from_dict(data: dict) -> IncomingTask:
    return IncomingTask(
        processing_time=float(data["processing_time"]),
        cost=float(data["cost"]),
        description=data.get("description"),
        domain=None if data.get("domain") is None else int(data["domain"]),
    )


@dataclass
class _OpenDay:
    """The in-memory view of the currently open (unsealed) day."""

    day: int
    tasks: list
    first_seq: int
    batches: list = field(default_factory=list)
    #: The ingest schema narrowed to this day's tasks (built on first use).
    schema: "object | None" = None


class IngestionService:
    """Durable ingestion front-end for one :class:`ETA2System` (module docs)."""

    def __init__(
        self,
        system,
        wal_dir: "str | Path",
        resume: bool = False,
        max_queue: int = 256,
        high_watermark: "int | None" = None,
        low_watermark: "int | None" = None,
        shed_policy: str = "reputation",
        rate_limit: "float | None" = None,
        burst: "float | None" = None,
        checkpoint_dir: "str | Path | None" = None,
        keep_checkpoints: int = 3,
        schema=None,
        sanitizer=None,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        manifest: "dict | None" = None,
        sync: str = "commit",
        records_per_segment: int = 1024,
        wal_fault_hook=None,
        clock=None,
        sleep=None,
        tracer=None,
        metrics=None,
        slos=None,
    ):
        self.system = system
        self.wal_dir = Path(wal_dir)
        self.tracer = tracer if tracer is not None else system.tracer
        self.metrics = metrics if metrics is not None else system.metrics
        #: SLO monitoring is opt-in: pass an iterable of
        #: :class:`~repro.observability.analyze.slo.SLORule` (e.g.
        #: ``default_serving_slos()``).  Rules are evaluated against the
        #: service's own metrics registry at every day boundary (and on
        #: demand via :meth:`check_slos`); a breach flips health to
        #: ``DEGRADED`` and emits one ``serve.slo_breach`` per rule
        #: transition.
        self._slo_rules = list(slos) if slos is not None else []
        self._slo_breached: set = set()
        self.slo_statuses: list = []
        self.manifest = manifest if manifest is not None else system.run_manifest
        self.schema = schema
        self.sanitizer = sanitizer
        if schema is not None and sanitizer is None:
            from repro.reliability.sanitize import ObservationSanitizer

            self.sanitizer = ObservationSanitizer()
        self._retry = retry if retry is not None else RetryPolicy(max_attempts=1)
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        self._breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(failure_threshold=3, recovery_time=30.0, clock=self._clock)
        )
        self._health = STARTING
        self._set_health(STARTING)

        if checkpoint_dir is None:
            checkpoint_dir = self.wal_dir / "checkpoints"
        self.checkpoints = CheckpointManager(
            checkpoint_dir,
            keep=keep_checkpoints,
            prefix="serve",
            manifest=self.manifest,
            tracer=self.tracer,
        )
        self.admission = AdmissionController(
            max_queue=max_queue,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
            shed_policy=shed_policy,
            reputation=system.reputation,
            rate_limit=rate_limit,
            burst=burst,
            clock=self._clock,
        )

        self.wal_dir.mkdir(parents=True, exist_ok=True)
        has_records = any(self.wal_dir.glob("wal-*.jsonl"))
        if has_records and not resume:
            raise ServiceError(
                f"{self.wal_dir} already holds WAL segments; pass resume=True "
                "to recover them (starting fresh over an existing log would "
                "double-apply its days)"
            )
        self._draining = False
        self._drain_signals = 0
        self._open: "_OpenDay | None" = None
        self._seen_batch_ids: set = set()
        self._applied_days = 0
        self._sealed_days: list = []  # (day, first_seq, last_seq) per ordinal
        self._pending_day = None  # sealed-but-unapplied day awaiting retry_day()
        #: ``step`` of the newest checkpoint written or restored by this
        #: instance — lets ``_process_day`` skip the eager rollback
        #: snapshot whenever a checkpoint already captures the pre-day
        #: state (``None`` until a checkpoint exists).
        self._last_checkpoint_step = None
        self.last_result = None

        # The WAL writer truncates any torn tail before we replay.
        self.wal = WriteAheadLog(
            self.wal_dir,
            records_per_segment=records_per_segment,
            sync=sync,
            fault_hook=wal_fault_hook,
            tracer=self.tracer,
        )
        if resume:
            self._recover()
        self._set_health(self._steady_health())

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #

    @property
    def health(self) -> str:
        return self._health

    @property
    def applied_days(self) -> int:
        """Days folded into the system state so far (the recovery anchor)."""
        return self._applied_days

    @property
    def current_day(self) -> "int | None":
        """The currently open (unsealed) day index, or None."""
        return self._open.day if self._open is not None else None

    @property
    def queue_depth(self) -> int:
        return len(self._open.batches) if self._open is not None else 0

    def _steady_health(self) -> str:
        if self._draining:
            return DRAINING
        if self._breaker.state == "open":
            return DEGRADED
        if self._slo_breached:
            return DEGRADED
        if self.admission.state == _Q_SHEDDING:
            return SHEDDING
        return READY

    def _set_health(self, state: str) -> None:
        changed = state != self._health
        self._health = state
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_serve_health",
                "Service health (0=starting 1=ready 2=degraded 3=shedding 4=draining).",
            ).set(HEALTH_CODES[state])
        if changed and self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("serve.health", state=state)

    def _refresh_health(self) -> None:
        self._set_health(self._steady_health())

    def check_slos(self) -> list:
        """Evaluate the configured SLO rules against the live metrics.

        Runs automatically at every day boundary (:meth:`seal_day`, both
        outcomes) and may be called at any time.  Updates the
        ``repro_serve_slo_ok`` / ``repro_serve_slo_value`` gauge family,
        emits ``serve.slo_breach`` / ``serve.slo_recovered`` on rule
        transitions, and folds breaches into the health state (a
        breached rule holds the service at ``DEGRADED`` until it
        recovers).  Returns the list of
        :class:`~repro.observability.analyze.slo.SLOStatus`.
        """
        if not self._slo_rules or self.metrics is None:
            return []
        view = MetricsView.from_registry(self.metrics)
        statuses = evaluate_metrics_slos(view, self._slo_rules)
        self.slo_statuses = statuses
        ok_gauge = self.metrics.gauge(
            "repro_serve_slo_ok", "1 when the named SLO is met, 0 when breached."
        )
        value_gauge = self.metrics.gauge(
            "repro_serve_slo_value", "Last evaluated value of the named SLO."
        )
        breached: set = set()
        for status in statuses:
            ok_gauge.set(0.0 if status.breached else 1.0, slo=status.name)
            if status.value is not None:
                value_gauge.set(float(status.value), slo=status.name)
            if status.breached:
                breached.add(status.name)
        tracing = self.tracer is not None and self.tracer.enabled
        for status in statuses:
            if status.name in breached and status.name not in self._slo_breached:
                if tracing:
                    self.tracer.emit(
                        "serve.slo_breach",
                        slo=status.name,
                        value=status.value,
                        threshold=status.threshold,
                    )
            elif status.name in self._slo_breached and status.name not in breached:
                if tracing:
                    self.tracer.emit(
                        "serve.slo_recovered", slo=status.name, value=status.value
                    )
        self._slo_breached = breached
        self._refresh_health()
        return statuses

    def state_fingerprint(self) -> str:
        """SHA-256 fingerprint of the wrapped system's learned state."""
        return state_fingerprint(self.system)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def open_day(self, day: int, tasks) -> None:
        """Declare a new day and its task set (durably logged).

        The task list rides in the WAL so replay is self-contained: a
        restarted service rebuilds every day from the log alone.
        """
        if self._draining:
            raise ServiceError("service is draining; no new days")
        if self._open is not None:
            raise ServiceError(
                f"day {self._open.day} is still open; seal it before opening day {day}"
            )
        tasks = list(tasks)
        if not tasks:
            raise ValueError("a day needs at least one task")
        if self.schema is not None and not self.schema.day_in_range(int(day)):
            raise ValueError(f"day {day} is outside the ingest schema's range")
        tasks_json = ",".join(_task_json(t) for t in tasks)
        seq = self.wal.append(
            "day.open",
            sync=True,
            data_json=f'{{"day":{int(day)},"tasks":[{tasks_json}]}}',
        )
        self._open = _OpenDay(day=int(day), tasks=tasks, first_seq=seq)
        self._count_wal_record()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("serve.day.open", day=int(day), n_tasks=len(tasks), seq=seq)
        self._refresh_health()

    def submit(self, batch: ReportBatch) -> SubmitResult:
        """Admit one observation batch (durable before acknowledged).

        Never blocks: screening, admission, and the WAL append are all
        bounded work, so the day-cycle caller is safe to interleave.
        """
        if self._draining:
            return self._rejected(batch, "draining")
        if self._open is None:
            return self._rejected(batch, "no_open_day")
        if batch.day != self._open.day:
            return self._rejected(batch, "wrong_day")
        if batch.batch_id is not None and batch.batch_id in self._seen_batch_ids:
            return self._rejected(batch, "duplicate")

        rejected_reports: tuple = ()
        clean = batch  # already normalised by ReportBatch.__post_init__
        screen = self._screen(batch)
        if screen is not None:
            rejected_reports = tuple(screen.rejected)
            if screen.rejected:
                self._count_rejected_reports(screen)
            if not screen.accepted:
                return self._rejected(batch, "schema", rejected_reports)
            if screen.rejected:
                clean = replace(batch, reports=tuple(screen.accepted))

        decision = self.admission.offer(batch.submitter, self.queue_depth)
        if not decision.admitted:
            self._refresh_health()
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_serve_shed_total", "Batches shed by admission control."
                ).inc(1, reason=decision.reason)
            return self._rejected(batch, decision.reason, rejected_reports)

        seq = self.wal.append("batch", data_json=clean.canonical_data_json())
        self._count_wal_record()
        # Durable now: record first-admission order so shedding tie-breaks
        # replay identically after a crash (the WAL holds admitted batches
        # only, so this is the order _recover() can rebuild).
        self.admission.record_admission(clean.submitter)
        self._open.batches.append(clean)
        if clean.batch_id is not None:
            self._seen_batch_ids.add(clean.batch_id)
        self._refresh_health()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "serve.batch.accepted",
                day=clean.day,
                submitter=int(clean.submitter),
                reports=len(clean.reports),
                seq=seq,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_batches_total", "Batches by submit outcome."
            ).inc(1, outcome="accepted")
            self.metrics.gauge(
                "repro_serve_queue_depth", "Batches queued for the open day."
            ).set(self.queue_depth)
        return SubmitResult(True, seq=seq, rejected_reports=rejected_reports)

    def _screen(self, batch: ReportBatch) -> "ScreenResult | None":
        """Per-report screening of one batch (None: no schema, nothing rejected).

        Whatever the schema allows, a report must name a user of the
        wrapped system and a task of the open day: replaying one that does
        not would fail the day on every retry and every restart.
        """
        open_day = self._open
        n_users, n_tasks = self.system.n_users, len(open_day.tasks)
        if self.schema is not None:
            if open_day.schema is None:
                open_day.schema = replace(
                    self.schema,
                    n_users=min(self.schema.n_users, n_users),
                    n_tasks=min(self.schema.n_tasks, n_tasks),
                )
            return self.sanitizer.screen_reports(batch.reports, open_day.schema, day=batch.day)
        accepted, rejected = [], []
        for report in batch.reports:
            user, task, _ = report
            if not 0 <= user < n_users:
                rejected.append((report, "unknown_user"))
            elif not 0 <= task < n_tasks:
                rejected.append((report, "unknown_task"))
            else:
                accepted.append(report)
        return ScreenResult(accepted=accepted, rejected=rejected) if rejected else None

    def _rejected(self, batch: ReportBatch, reason: str, rejected_reports=()) -> SubmitResult:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "serve.batch.rejected",
                day=int(batch.day),
                submitter=int(batch.submitter),
                reason=reason,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_batches_total", "Batches by submit outcome."
            ).inc(1, outcome="rejected" if reason not in
                  ("rate_limited", "queue_full", "shed_low_reputation") else "shed")
        return SubmitResult(False, reason=reason, rejected_reports=tuple(rejected_reports))

    def _count_rejected_reports(self, screen) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("serve.rejected", counts=screen.counts())
        if self.metrics is not None:
            counter = self.metrics.counter(
                "repro_serve_rejected_total",
                "Reports rejected by strict ingest-schema screening.",
            )
            for reason, count in screen.counts().items():
                counter.inc(count, reason=reason)

    def _count_wal_record(self) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_wal_records_total", "Records appended to the WAL."
            ).inc()

    # ------------------------------------------------------------------ #
    # Day rollover (exactly-once)
    # ------------------------------------------------------------------ #

    def seal_day(self):
        """Seal the open day (durable commit marker) and process it.

        Returns the :class:`~repro.core.pipeline.StepResult`.  A crash
        after the marker but before the checkpoint is recovered by
        reprocessing the sealed range from the WAL — deterministic, so
        the final state is identical either way.
        """
        if self._open is None:
            raise ServiceError("no open day to seal")
        open_day = self._open
        ordinal = len(self._sealed_days)
        marker = {
            "day": open_day.day,
            "ordinal": ordinal,
            "first_seq": open_day.first_seq,
            "last_seq": self.wal.next_seq,  # the marker's own seq
            "config_hash": (self.manifest or {}).get("config_hash"),
        }
        seq = self.wal.append("day.commit", marker, sync=True)
        self._count_wal_record()
        self._sealed_days.append((open_day.day, open_day.first_seq, seq))
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "serve.day.sealed",
                day=open_day.day,
                ordinal=ordinal,
                first_seq=open_day.first_seq,
                last_seq=seq,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_days_total", "Days processed by outcome."
            ).inc(1, outcome="sealed")
        batches = list(open_day.batches)
        self._open = None
        self.admission.refresh_standing()
        try:
            result = self._process_day(open_day.day, ordinal, open_day.tasks, batches)
        except DayProcessingError:
            # The day is sealed (durable) but unapplied; keep it in memory
            # so retry_day() can reprocess without a restart.  A crash here
            # is equally safe: recovery reprocesses the sealed range.
            self._pending_day = (open_day.day, ordinal, open_day.tasks, batches)
            self.check_slos()  # a sealed-but-unapplied day is an SLO event
            raise
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_serve_queue_depth", "Batches queued for the open day."
            ).set(0)
        self._refresh_health()
        self.check_slos()
        return result

    def _process_day(self, day: int, ordinal: int, tasks, batches):
        """Apply one sealed day exactly once, with rollback + retry."""
        started = self._clock()
        reports = [report for batch in batches for report in batch.reports]
        completed_before = self.system.completed_steps
        # Rollback source.  The newest service checkpoint (written right
        # after the previous day applied) *is* the pre-day state, so the
        # happy path skips the O(state) snapshot and only a failure pays
        # to reload it.  A day no checkpoint covers yet — the first day
        # of a fresh, never-checkpointed service — snapshots eagerly.
        # (This leans on the service owning its system: state mutated
        # behind the service's back between days is not rolled back.)
        if self._last_checkpoint_step == ordinal:
            snapshot = None
        else:
            snapshot = system_state_to_dict(self.system)
        attempt = 0
        while True:
            if not self._breaker.allow():
                self._refresh_health()
                raise DayProcessingError(
                    f"day {day} (ordinal {ordinal}): processing circuit breaker "
                    "is open; retry after the recovery window"
                )
            attempt += 1
            try:
                result = self.system.step_from_batch(tasks, reports)
                break
            except Exception as error:
                # Domain identification mutates the clustering before the
                # failure point, so a retry over half-applied state would
                # double-add points: roll back first.
                if snapshot is None:
                    snapshot = self._checkpoint_state(ordinal)
                self._restore_state(snapshot)
                self.system.completed_steps = completed_before
                self._breaker.record_failure()
                self._refresh_health()
                if attempt >= self._retry.max_attempts:
                    raise DayProcessingError(
                        f"day {day} (ordinal {ordinal}) failed after "
                        f"{attempt} attempt(s): {error}"
                    ) from error
                self._sleep(self._retry.delay(attempt, token=f"day-{day}"))
        self._breaker.record_success()
        self._applied_days = ordinal + 1
        self.checkpoints.save(
            self.system,
            self._applied_days,
            metadata={
                "day": int(day),
                "ordinal": int(ordinal),
                "completed_steps": int(self.system.completed_steps),
                "wal_first_seq": int(self._sealed_days[ordinal][1]),
                "wal_last_seq": int(self._sealed_days[ordinal][2]),
            },
        )
        self._last_checkpoint_step = self._applied_days
        self.last_result = result
        self._refresh_health()
        elapsed = max(0.0, self._clock() - started)
        if self.tracer is not None and self.tracer.enabled:
            applied = {
                "day": int(day),
                "ordinal": int(ordinal),
                "observations": int(result.observations.observation_count),
                "converged": bool(result.converged),
            }
            # Wall time in the trace follows the tracer's own contract:
            # only under include_wall_time (same-seed traces stay
            # byte-identical by default).  The latency histogram always
            # observes — metrics exports are not byte-deterministic.
            if getattr(self.tracer, "include_wall_time", False):
                applied["seconds"] = elapsed
            self.tracer.emit("serve.day.applied", **applied)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_days_total", "Days processed by outcome."
            ).inc(1, outcome="applied")
            self.metrics.histogram(
                "repro_serve_day_seconds",
                "Seconds to process one sealed day (service clock).",
                buckets=LATENCY_BUCKETS,
            ).observe(elapsed)
        return result

    def _restore_state(self, state: dict) -> None:
        """Load ``state`` into the system; admission follows its new tracker.

        ``apply_system_state`` replaces ``system.reputation``, so the
        admission controller must drop the tracker it was handed.
        """
        apply_system_state(self.system, state)
        self.admission.reputation = self.system.reputation
        self.admission.refresh_standing()

    def _checkpoint_state(self, ordinal: int) -> dict:
        """Reload the pre-day state for ``ordinal`` from the checkpoint."""
        found = self.checkpoints.latest_valid()
        if found is None or int(found[1]["step"]) != ordinal:
            raise DayProcessingError(
                f"cannot roll back day ordinal {ordinal}: the checkpoint "
                "holding its pre-day state is missing or corrupt"
            )
        return found[1]["state"]

    def retry_day(self):
        """Reprocess a sealed day whose processing previously failed."""
        if self._pending_day is None:
            raise ServiceError("no failed sealed day to retry")
        day, ordinal, tasks, batches = self._pending_day
        result = self._process_day(day, ordinal, tasks, batches)
        self._pending_day = None
        return result

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def _recover(self) -> None:
        """Rebuild exactly-once state from checkpoint + WAL replay."""
        applied = 0
        found = self.checkpoints.latest_valid()
        if found is not None:
            path, record = found
            self._restore_state(record["state"])
            metadata = record.get("metadata", {})
            self.system.completed_steps = int(
                metadata.get("completed_steps", record["step"])
            )
            applied = int(record["step"])
            self._last_checkpoint_step = applied
            _LOG.info("restored service checkpoint %s (%d applied days)", path.name, applied)

        sealed: list = []
        open_day: "_OpenDay | None" = None
        for record in read_wal(self.wal_dir):
            kind, data, seq = record["type"], record["data"], int(record["seq"])
            if kind == "day.open":
                if open_day is not None:
                    raise WALError(
                        f"day.open at seq {seq} while day {open_day.day} is unsealed"
                    )
                open_day = _OpenDay(
                    day=int(data["day"]),
                    tasks=[_task_from_dict(t) for t in data["tasks"]],
                    first_seq=seq,
                )
            elif kind == "batch":
                if open_day is None:
                    raise WALError(f"batch at seq {seq} outside any open day")
                batch = ReportBatch.from_dict(data)
                self.admission.record_admission(batch.submitter)
                open_day.batches.append(batch)
                if batch.batch_id is not None:
                    self._seen_batch_ids.add(batch.batch_id)
            elif kind == "day.commit":
                if open_day is None or int(data["day"]) != open_day.day:
                    raise WALError(f"day.commit at seq {seq} does not match the open day")
                stored_hash = data.get("config_hash")
                current_hash = (self.manifest or {}).get("config_hash")
                if stored_hash and current_hash and stored_hash != current_hash:
                    _LOG.warning(
                        "WAL day %d was sealed under a different configuration "
                        "(stored %s…, current %s…); replaying anyway",
                        open_day.day, str(stored_hash)[:12], str(current_hash)[:12],
                    )
                sealed.append((open_day, seq))
                open_day = None
            else:
                raise WALError(f"unknown WAL record type {kind!r} at seq {seq}")

        if applied > len(sealed):
            raise ServiceError(
                f"checkpoint claims {applied} applied days but the WAL holds "
                f"only {len(sealed)} sealed days — the log is incomplete"
            )
        self._applied_days = applied
        self._sealed_days = [(d.day, d.first_seq, seq) for d, seq in sealed]
        for ordinal, (day_state, commit_seq) in enumerate(sealed):
            if ordinal < applied:
                # Already inside the restored checkpoint: skipping (rather
                # than reapplying) is what keeps recovery bit-identical.
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.emit(
                        "serve.day.skipped", day=day_state.day, ordinal=ordinal
                    )
                continue
            _LOG.info(
                "reprocessing sealed day %d (ordinal %d) from WAL range [%d, %d]",
                day_state.day, ordinal, day_state.first_seq, commit_seq,
            )
            self._process_day(
                day_state.day, ordinal, day_state.tasks, day_state.batches
            )
        self._open = open_day
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "serve.recovered",
                applied_days=self._applied_days,
                open_day=self.current_day,
                queued_batches=self.queue_depth,
            )

    # ------------------------------------------------------------------ #
    # Drain / shutdown
    # ------------------------------------------------------------------ #

    def request_drain(self) -> None:
        """Stop admitting traffic; already-durable data stays recoverable."""
        self._draining = True
        self._set_health(DRAINING)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("serve.drain", open_day=self.current_day, queued=self.queue_depth)

    @property
    def draining(self) -> bool:
        return self._draining

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM → graceful drain; a second signal aborts."""

        def _handle(signum, frame):
            self._drain_signals += 1
            if self._drain_signals >= 2:
                _LOG.warning("second signal %d: aborting immediately", signum)
                raise KeyboardInterrupt
            _LOG.info("signal %d: draining (WAL keeps everything durable)", signum)
            self.request_drain()

        signal.signal(signal.SIGINT, _handle)
        signal.signal(signal.SIGTERM, _handle)

    def close(self) -> None:
        """Flush and close the WAL (the open day stays replayable)."""
        self.wal.close()
