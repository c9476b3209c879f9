"""IngestionService: day lifecycle, dedup, screening, health, recovery."""

import numpy as np
import pytest

from repro.observability.metrics import MetricsRegistry, validate_prometheus_text
from repro.observability.tracer import RunTracer
from repro.reliability.observer import CircuitBreaker
from repro.reliability.sanitize import IngestSchema
from repro.serve import (
    DEGRADED,
    DRAINING,
    READY,
    SHEDDING,
    DayProcessingError,
    IngestionService,
    ReportBatch,
    ServiceError,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _reports(rng, n_users, n_tasks, per_task=3, center=10.0):
    reports = []
    for task in range(n_tasks):
        for user in rng.choice(n_users, size=per_task, replace=False):
            reports.append((int(user), task, float(center + rng.normal())))
    return reports


def _batches(rng, n_users, n_tasks, day):
    by_user = {}
    for user, task, value in _reports(rng, n_users, n_tasks):
        by_user.setdefault(user, []).append((user, task, value))
    return [
        ReportBatch(submitter=user, day=day, reports=reps, batch_id=f"d{day}-u{user}")
        for user, reps in sorted(by_user.items())
    ]


def _run_day(service, tasks, day=0, seed=17):
    rng = np.random.default_rng(seed + day)
    service.open_day(day, tasks)
    for batch in _batches(rng, service.system.n_users, len(tasks), day):
        assert service.submit(batch).accepted
    return service.seal_day()


class TestCanonicalFastPaths:
    """The hand-composed WAL encodings must be byte-equal to the generic
    canonical encoder — the replay checksum is recomputed from the parsed
    payload, so any divergence surfaces as WAL corruption."""

    @pytest.mark.parametrize(
        "reports",
        [
            ((0, 0, 1.0),),
            ((3, 7, 0.1), (1, 2, -3.5e300), (4, 5, 1e-17)),
            ((0, 1, 123456789.0), (2, 3, -0.0)),
            ((9, 9, float("nan")),),  # falls back to the generic encoder
            ((9, 9, float("inf")), (1, 1, 2.0)),
        ],
    )
    @pytest.mark.parametrize("batch_id", [None, "d0-u1", 'quo"te\\nané'])
    def test_batch_json_matches_generic_encoder(self, reports, batch_id):
        from repro.observability.tracer import canonical_json

        batch = ReportBatch(submitter=1, day=0, reports=reports, batch_id=batch_id)
        assert batch.canonical_data_json() == canonical_json(batch.as_dict())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(processing_time=1.0, cost=1.0, domain=1),
            dict(processing_time=0.1, cost=2.5e-8, domain=3),
            dict(processing_time=np.float64(1.5), cost=np.float64(7.0), domain=0),
            dict(processing_time=2.0, cost=1.0, description='say "hi"\n'),
            dict(processing_time=float("inf"), cost=1.0, domain=2),  # generic fallback
        ],
    )
    def test_task_json_matches_generic_encoder(self, kwargs):
        from repro.core.pipeline import IncomingTask
        from repro.observability.tracer import canonical_json
        from repro.serve.service import _task_json

        task = IncomingTask(**kwargs)
        expected = canonical_json(
            {
                "cost": float(task.cost),
                "description": task.description,
                "domain": None if task.domain is None else int(task.domain),
                "processing_time": float(task.processing_time),
            }
        )
        assert _task_json(task) == expected

    def test_fast_path_survives_wal_round_trip(self, tmp_path, make_system, make_tasks):
        """End to end: fast-encoded records re-verify under read_wal."""
        from repro.serve.wal import read_wal

        service = IngestionService(make_system(), tmp_path, sync="none")
        _run_day(service, make_tasks())
        service.close()
        records = list(read_wal(tmp_path))  # checksum-verifies every line
        assert [r["type"] for r in records][:1] == ["day.open"]
        assert any(r["type"] == "batch" for r in records)
    def test_open_submit_seal_applies_day(self, tmp_path, make_system, make_tasks):
        service = IngestionService(make_system(), tmp_path)
        result = _run_day(service, make_tasks())
        assert result is not None
        assert service.applied_days == 1
        assert service.current_day is None
        assert service.health == READY
        assert service.last_result is result
        service.close()

    def test_multi_day_matches_direct_pipeline(self, tmp_path, make_system, make_tasks):
        """The served path is the batch pipeline, bit for bit."""
        tasks = make_tasks()
        service = IngestionService(make_system(), tmp_path)
        for day in range(2):
            _run_day(service, tasks, day=day)
        direct = make_system()
        for day in range(2):
            rng = np.random.default_rng(17 + day)
            reports = [
                r
                for b in _batches(rng, direct.n_users, len(tasks), day)
                for r in b.reports
            ]
            direct.step_from_batch(tasks, reports)
        from repro.core.serialization import state_fingerprint

        assert service.state_fingerprint() == state_fingerprint(direct)

    def test_submit_guards(self, tmp_path, make_system, make_tasks):
        service = IngestionService(make_system(), tmp_path)
        batch = ReportBatch(submitter=0, day=0, reports=[(0, 0, 1.0)], batch_id="b0")
        assert service.submit(batch).reason == "no_open_day"
        service.open_day(0, make_tasks())
        assert service.submit(batch).accepted
        assert service.submit(batch).reason == "duplicate"
        wrong = ReportBatch(submitter=0, day=5, reports=[(0, 0, 1.0)])
        assert service.submit(wrong).reason == "wrong_day"

    def test_open_day_guards(self, tmp_path, make_system, make_tasks):
        service = IngestionService(make_system(), tmp_path)
        with pytest.raises(ValueError):
            service.open_day(0, [])
        service.open_day(0, make_tasks())
        with pytest.raises(ServiceError, match="still open"):
            service.open_day(1, make_tasks())
        with pytest.raises(ServiceError, match="no open day"):
            service._open = None  # simulate nothing open
            service.seal_day()

    def test_existing_wal_requires_resume(self, tmp_path, make_system, make_tasks):
        service = IngestionService(make_system(), tmp_path)
        _run_day(service, make_tasks())
        service.close()
        with pytest.raises(ServiceError, match="resume"):
            IngestionService(make_system(), tmp_path)
        IngestionService(make_system(), tmp_path, resume=True).close()


class TestScreening:
    def _service(self, tmp_path, make_system):
        system = make_system()
        schema = IngestSchema(n_users=system.n_users, n_tasks=6, min_day=0, max_day=3)
        return IngestionService(
            system, tmp_path, schema=schema, metrics=MetricsRegistry(), tracer=RunTracer()
        )

    def test_bad_reports_rejected_before_durability(self, tmp_path, make_system, make_tasks):
        service = self._service(tmp_path, make_system)
        service.open_day(0, make_tasks())
        batch = ReportBatch(
            submitter=0,
            day=0,
            reports=[(0, 0, 1.0), (99, 0, 1.0), (0, 99, 1.0)],
            batch_id="mixed",
        )
        result = service.submit(batch)
        assert result.accepted
        assert {reason for _, reason in result.rejected_reports} == {
            "unknown_user",
            "unknown_task",
        }
        counter = service.metrics.counter("repro_serve_rejected_total")
        assert counter.value(reason="unknown_user") == 1
        assert counter.value(reason="unknown_task") == 1
        # Only the clean report became durable.
        from repro.serve.wal import read_wal

        batch_records = [r for r in read_wal(tmp_path) if r["type"] == "batch"]
        assert batch_records[0]["data"]["reports"] == [[0, 0, 1.0]]

    def test_fully_bad_batch_rejected(self, tmp_path, make_system, make_tasks):
        service = self._service(tmp_path, make_system)
        service.open_day(0, make_tasks())
        result = service.submit(
            ReportBatch(submitter=0, day=0, reports=[(99, 0, float("nan"))])
        )
        assert not result.accepted and result.reason == "schema"
        assert service.tracer.events("serve.rejected"), "serve.rejected must be traced"

    def test_out_of_schema_day_cannot_open(self, tmp_path, make_system, make_tasks):
        service = self._service(tmp_path, make_system)
        with pytest.raises(ValueError, match="outside the ingest schema"):
            service.open_day(99, make_tasks())

    @pytest.mark.parametrize("loose_schema", [False, True], ids=["no-schema", "loose-schema"])
    def test_ids_outside_the_open_day_never_reach_the_wal(
        self, tmp_path, make_system, make_tasks, loose_schema
    ):
        """A report naming a user past the roster or a task past the open
        day's list would make every replay of the day fail; it is rejected
        before durability even when no schema (or a wider one) lets it by."""
        system = make_system()
        schema = (
            IngestSchema(n_users=system.n_users + 4, n_tasks=10) if loose_schema else None
        )
        service = IngestionService(system, tmp_path, schema=schema)
        tasks = make_tasks()  # 6 tasks
        service.open_day(0, tasks)
        result = service.submit(
            ReportBatch(
                submitter=0,
                day=0,
                reports=[(0, 0, 10.0), (system.n_users, 0, 10.0), (1, 8, 10.0)],
                batch_id="mixed",
            )
        )
        assert result.accepted
        assert [reason for _, reason in result.rejected_reports] == [
            "unknown_user",
            "unknown_task",
        ]
        fully_bad = service.submit(ReportBatch(submitter=1, day=0, reports=[(1, 8, 10.0)]))
        assert not fully_bad.accepted and fully_bad.reason == "schema"
        for batch in _batches(np.random.default_rng(5), system.n_users, len(tasks), 0):
            assert service.submit(batch).accepted
        service.seal_day()
        assert service.applied_days == 1
        fingerprint = service.state_fingerprint()
        service.close()

        # Drop the checkpoints so recovery must replay the sealed day from
        # the WAL alone.
        for path in service.checkpoints.directory.iterdir():
            path.unlink()
        resumed = IngestionService(make_system(), tmp_path, resume=True, schema=schema)
        assert resumed.applied_days == 1
        assert resumed.state_fingerprint() == fingerprint
        resumed.close()


class TestFailureAndBreaker:
    def test_failed_day_rolls_back_and_retry_day_heals(
        self, tmp_path, make_system, make_tasks
    ):
        clock = FakeClock()
        system = make_system()
        service = IngestionService(
            system,
            tmp_path,
            breaker=CircuitBreaker(failure_threshold=1, recovery_time=5.0, clock=clock),
            clock=clock,
        )
        before = service.state_fingerprint()
        boom = {"left": 1}
        real_step = system.step_from_batch

        def flaky_step(tasks, reports):
            if boom["left"]:
                boom["left"] -= 1
                raise RuntimeError("transient truth-analysis failure")
            return real_step(tasks, reports)

        system.step_from_batch = flaky_step
        tasks = make_tasks()
        rng = np.random.default_rng(17)
        service.open_day(0, tasks)
        for batch in _batches(rng, system.n_users, len(tasks), 0):
            service.submit(batch)
        with pytest.raises(DayProcessingError):
            service.seal_day()
        # Rolled back: nothing half-applied, breaker open, health DEGRADED.
        assert service.state_fingerprint() == before
        assert service.applied_days == 0
        assert service.health == DEGRADED
        # Still degraded inside the recovery window.
        with pytest.raises(DayProcessingError, match="circuit breaker"):
            service.retry_day()
        clock.now = 5.0
        result = service.retry_day()
        assert result is not None and service.applied_days == 1
        assert service.health == READY

    def test_later_day_rolls_back_from_checkpoint(
        self, tmp_path, make_system, make_tasks
    ):
        """Day >= 1 rolls back via the previous day's checkpoint (the
        happy path takes no eager snapshot) and retries bit-identically."""
        tasks = make_tasks()
        clean = IngestionService(make_system(), tmp_path / "clean")
        for day in range(2):
            _run_day(clean, tasks, day=day)
        expected = clean.state_fingerprint()

        from repro.reliability.retry import RetryPolicy

        system = make_system()
        service = IngestionService(
            system, tmp_path / "flaky", retry=RetryPolicy(max_attempts=1)
        )
        _run_day(service, tasks, day=0)
        after_day0 = service.state_fingerprint()
        boom = {"left": 1}
        real_step = system.step_from_batch

        def flaky_step(tasks, reports):
            if boom["left"]:
                boom["left"] -= 1
                raise RuntimeError("transient failure on day 1")
            return real_step(tasks, reports)

        system.step_from_batch = flaky_step
        rng = np.random.default_rng(17 + 1)
        service.open_day(1, tasks)
        for batch in _batches(rng, system.n_users, len(tasks), 1):
            service.submit(batch)
        with pytest.raises(DayProcessingError):
            service.seal_day()
        assert service.state_fingerprint() == after_day0  # checkpoint rollback
        assert service.retry_day() is not None
        assert service.applied_days == 2
        assert service.state_fingerprint() == expected

    def test_resume_points_admission_at_restored_tracker(self, tmp_path):
        """Recovery replaces ``system.reputation``; shedding must rank by it."""
        from repro.core.pipeline import ETA2System
        from repro.serve.drill import drive_trace
        from repro.simulation.engine import generate_traffic

        trace = generate_traffic(n_users=12, n_tasks=30, n_days=3, seed=1)

        def system():
            built = ETA2System(
                n_users=trace.n_users, capacities=np.asarray(trace.capacities), seed=3
            )
            built.enable_reputation()
            return built

        service = IngestionService(system(), tmp_path)
        drive_trace(service, trace)
        service.close()
        resumed = IngestionService(system(), tmp_path, resume=True)
        assert resumed.applied_days == 3
        assert resumed.admission.reputation is resumed.system.reputation
        assert resumed.admission.reputation.day == service.system.reputation.day
        resumed.close()

    def test_retry_without_failure_raises(self, tmp_path, make_system):
        service = IngestionService(make_system(), tmp_path)
        with pytest.raises(ServiceError):
            service.retry_day()


class TestBackpressure:
    def _shedding_service(self, tmp_path, make_system, **kwargs):
        system = make_system(n_users=20)
        return IngestionService(
            system,
            tmp_path,
            max_queue=10,
            high_watermark=8,
            low_watermark=4,
            metrics=MetricsRegistry(),
            **kwargs,
        )

    def _burst(self, service, tasks, factor=10):
        """Submit a burst of ``factor * max_queue`` one-report batches."""
        outcomes = []
        n_users = service.system.n_users
        for i in range(service.admission.max_queue * factor):
            batch = ReportBatch(
                submitter=i % n_users,
                day=0,
                reports=[(i % n_users, i % len(tasks), 10.0)],
                batch_id=f"burst-{i}",
            )
            outcomes.append(service.submit(batch))
        return outcomes

    def test_burst_sheds_then_recovers_to_ready(self, tmp_path, make_system, make_tasks):
        service = self._shedding_service(tmp_path, make_system)
        tasks = make_tasks()
        service.open_day(0, tasks)
        outcomes = self._burst(service, tasks)
        assert service.health == SHEDDING
        accepted = [o for o in outcomes if o.accepted]
        shed = [o for o in outcomes if o.reason in ("queue_full", "shed_low_reputation")]
        assert len(accepted) <= service.admission.max_queue
        assert len(accepted) + len(shed) == len(outcomes)
        assert service.metrics.counter("repro_serve_shed_total").value(
            reason="queue_full"
        ) + service.metrics.counter("repro_serve_shed_total").value(
            reason="shed_low_reputation"
        ) == len(shed)
        # Sealing empties the queue: the next day starts READY again.
        service.seal_day()
        service.open_day(1, tasks)
        probe = ReportBatch(submitter=0, day=1, reports=[(0, 0, 10.0)], batch_id="probe")
        assert service.submit(probe).accepted
        assert service.health == READY

    def test_shedding_is_deterministic(self, tmp_path, make_system, make_tasks):
        runs = []
        for attempt in range(2):
            wal_dir = tmp_path / f"run-{attempt}"
            service = self._shedding_service(wal_dir, make_system)
            tasks = make_tasks()
            service.open_day(0, tasks)
            runs.append([o.accepted for o in self._burst(service, tasks)])
            service.close()
        assert runs[0] == runs[1]

    def test_day_cycle_never_blocked_by_backpressure(
        self, tmp_path, make_system, make_tasks
    ):
        """Sealing works mid-shedding — admission never blocks the cycle."""
        service = self._shedding_service(tmp_path, make_system)
        tasks = make_tasks()
        service.open_day(0, tasks)
        self._burst(service, tasks)
        assert service.health == SHEDDING
        result = service.seal_day()  # returns immediately with a result
        assert result is not None and service.applied_days == 1


class TestDrainAndMetrics:
    def test_drain_rejects_new_work(self, tmp_path, make_system, make_tasks):
        service = IngestionService(make_system(), tmp_path)
        service.open_day(0, make_tasks())
        service.request_drain()
        assert service.health == DRAINING
        refused = service.submit(ReportBatch(submitter=0, day=0, reports=[(0, 0, 1.0)]))
        assert refused.reason == "draining"
        with pytest.raises(ServiceError, match="draining"):
            service.open_day(1, make_tasks())

    def test_metrics_export_validates(self, tmp_path, make_system, make_tasks):
        service = IngestionService(
            make_system(), tmp_path, metrics=MetricsRegistry(), tracer=RunTracer()
        )
        _run_day(service, make_tasks())
        service.submit(ReportBatch(submitter=0, day=9, reports=[(0, 0, 1.0)]))  # rejected
        text = service.metrics.to_prometheus_text()
        validate_prometheus_text(text)  # raises on any malformed sample
        for name in (
            "repro_serve_batches_total",
            "repro_serve_queue_depth",
            "repro_serve_health",
            "repro_serve_wal_records_total",
            "repro_serve_days_total",
        ):
            assert name in text
