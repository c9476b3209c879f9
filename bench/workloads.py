"""The four benchmark workloads: inputs, warm-up, timed passes, checks, metrics.

Three workloads are closed loops with one client that calls
``run_simulation`` back to back (ETA2 max-quality and ETA2-mc on the
Section 6.1.3 synthetic data; ETA2 with text clustering on the survey and
SFV datasets).  The fourth is an open loop: generated report batches
offered at a fixed rate to one ``IngestionService``, the ``repro serve``
write path.  Every workload uses the ``repro simulate`` defaults
(``gamma=0.3``, ``alpha=0.5``) and makes all of its timed inputs from the
seed before anything is timed.

A speed probe runs after every simulated run and every served day, and
every timing is scaled to reference machine speed by the probes around it
(:func:`harness.speed_factors`).  A simulation run makes one timed pass over
its inputs.  The serving workload makes two over its traffic and each batch
and day keeps its faster pass: a served batch takes about 50 us, and the
median of one pass moved by twice as much between runs.  The medians are
taken over those timings.

``est_error`` and ``recruit_cost`` come from an untimed accuracy panel:
inputs made from :data:`PANEL_SEED`, whatever the run's seed.  They are
deterministic, so they read the same on every run of one commit and move
only when the program's results change.

:func:`run` measures one workload.  Untraced, it reports the end-to-end
metrics.  Traced, it makes a plain pass and then one that records spans
around each layer's entry points (:func:`trace_points`), and it reports the
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from harness import SpanRecorder, patched, percentile, speed_factors, speed_probe
from repro.clustering.dynamic import DynamicHierarchicalClustering
from repro.core import pipeline
from repro.core.allocation import max_quality
from repro.core.allocation.base import AllocationProblem
from repro.core.allocation.baselines import RandomAllocator
from repro.core.allocation.max_quality import MaxQualityAllocator
from repro.core.allocation.min_cost import MinCostAllocator
from repro.core.pipeline import ETA2System
from repro.core.serialization import state_fingerprint
from repro.core.update import ExpertiseUpdater
from repro.datasets import sfv_dataset, survey_dataset, synthetic_dataset
from repro.datasets.base import evenly_distributed_days
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.sanitize import IngestSchema
from repro.rng import ensure_rng
from repro.serve import drive_trace
from repro.serve.admission import AdmissionController
from repro.serve.service import IngestionService
from repro.serve.wal import WriteAheadLog
from repro.simulation.approaches import ETA2Approach
from repro.simulation.engine import SimulationConfig, generate_traffic, run_simulation
from repro.simulation.metrics import normalized_estimation_error
from repro.simulation.world import World

__all__ = [
    "WORKLOADS",
    "Outcome",
    "ServeWorkload",
    "SimulationWorkload",
    "layer_metrics",
    "run",
    "trace_points",
]

GAMMA = 0.3
ALPHA = 0.5
N_DAYS = 5
#: Set-up (input generation plus one untimed warm-up run) is repeated this
#: many times in an untraced run and its median reported.
SETUP_REPEATS = 5
#: Submit outcomes that admission control counts as shed, not rejected.
SHED_REASONS = ("rate_limited", "queue_full", "shed_low_reputation")
#: Seed of the accuracy panel's inputs, the same for every run.
PANEL_SEED = 2017
#: Fewest timed inputs of a simulation run: ``request_p50_ms`` and
#: ``slow_day_p50_ms`` take one sample per input, and a p50 needs 20.
MIN_INPUTS = 20
#: Timed passes over the serving traffic; each batch and day keeps its
#: faster pass.
SERVE_PASSES = 2
#: Fewest served days of a pass: ``slow_day_p50_ms`` takes one sample per
#: five days.
MIN_DAYS = 20 * N_DAYS

clock = time.perf_counter


@dataclass(frozen=True)
class SimulationWorkload:
    """Closed loop, one client: back-to-back ``run_simulation`` calls.

    Input *i* is ``datasets[i % len(datasets)](seed=seed + i)`` simulated
    for five days with run seed ``seed + i``; every pass of an input must
    reproduce its fingerprint.
    """

    name: str
    datasets: tuple
    approach: dict
    #: Inputs per requested second, sized so that the timed pass takes
    #: about that long on an unloaded 2-vCPU machine.
    inputs_per_second: float
    #: Correctness ceiling on the timed inputs' typical error.
    error_ceiling: float
    #: Inputs of the accuracy panel.
    panel_inputs: int

    def timed_inputs(self, seed: int, seconds: float) -> list:
        return self.inputs(seed, max(MIN_INPUTS, round(self.inputs_per_second * seconds)))

    def inputs(self, seed: int, count: int) -> list:
        return [
            (self.datasets[i % len(self.datasets)](seed=seed + i), seed + i)
            for i in range(count)
        ]


@dataclass(frozen=True)
class ServeWorkload:
    """Open loop: ``generate_traffic`` batches offered at ``rate`` per second.

    Each user submits about one batch per day, so each of the
    :data:`SERVE_PASSES` passes of a ``seconds`` run serves
    ``rate * seconds / (SERVE_PASSES * n_users)`` days.
    """

    name: str
    n_users: int
    n_domains: int
    tasks_per_day: int
    reporters: int
    rate: float
    #: Days served, closed loop and untimed, by the set-up's warm-up.
    warmup_days: int
    #: Correctness ceiling on the timed days' typical error.
    error_ceiling: float
    #: Days of the accuracy panel, served closed loop.
    panel_days: int

    def days(self, seconds: float) -> int:
        return max(MIN_DAYS, round(self.rate * seconds / (SERVE_PASSES * self.n_users)))

    def traffic(self, days: int, seed: int):
        return generate_traffic(
            n_users=self.n_users,
            n_tasks=days * self.tasks_per_day,
            n_days=days,
            n_domains=self.n_domains,
            reporters_per_task=self.reporters,
            seed=seed,
        )


WORKLOADS = {
    "synthetic-eta2": SimulationWorkload(
        name="synthetic-eta2",
        datasets=(synthetic_dataset,),
        approach={},
        inputs_per_second=3.2,
        error_ceiling=0.35,
        panel_inputs=4,
    ),
    "synthetic-mc": SimulationWorkload(
        name="synthetic-mc",
        datasets=(synthetic_dataset,),
        approach={"allocator": "min-cost", "min_cost_round_budget": 100.0},
        inputs_per_second=8.0,
        error_ceiling=0.6,
        panel_inputs=8,
    ),
    "text-cluster": SimulationWorkload(
        name="text-cluster",
        datasets=(survey_dataset, sfv_dataset),
        approach={},
        inputs_per_second=6.0,
        error_ceiling=0.45,
        panel_inputs=8,
    ),
    "serve-ingest": ServeWorkload(
        name="serve-ingest",
        n_users=100,
        n_domains=8,
        tasks_per_day=100,
        reporters=5,
        rate=1000.0,
        warmup_days=3,
        error_ceiling=0.6,
        panel_days=40,
    ),
}


@dataclass
class Outcome:
    """What one workload run reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    #: SHA-256 over the inputs' ``SimulationResult.fingerprint()``s, or the
    #: service's ``state_fingerprint()``.
    digest: str
    #: Human-readable notes: sample counts, machine speed, checks.
    lines: list


class Checks:
    """Named pass/fail correctness checks, printed with the result."""

    def __init__(self):
        self.items: list = []

    def add(self, label: str, ok: bool) -> None:
        self.items.append((label, bool(ok)))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.items)

    def lines(self) -> list:
        return [f"  check {'ok  ' if ok else 'FAIL'} {label}" for label, ok in self.items]


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    startup: float = 0.0,
    spans_path=None,
    workload=None,
) -> Outcome:
    """Measure one workload; ``workload`` overrides the named definition.

    ``startup`` is the time from process start until the program was
    imported; it is counted in ``setup_s``.
    """
    workload = WORKLOADS[name] if workload is None else workload
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if isinstance(workload, ServeWorkload):
        return _run_serve(workload, seed, seconds, trace, workdir, startup, spans_path)
    return _run_simulations(workload, seed, seconds, trace, startup, spans_path)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(make, repeats: int, startup: float):
    """Call ``make()`` ``repeats`` times: ``(last result, setup seconds)``.

    Set-up seconds are ``startup`` plus the median call, at reference speed.
    """
    probes = [speed_probe()]
    durations = []
    for _ in range(repeats):
        begin = clock()
        result = make()
        durations.append(clock() - begin)
        probes.append(speed_probe())
    speeds = speed_factors(probes)
    scaled = [duration * speed for duration, speed in zip(durations, speeds)]
    return result, startup * speeds[0] + statistics.median(scaled)


def _slowest_days(days: list) -> list:
    """The slowest day of every run of ``N_DAYS`` consecutive days.

    A day's tail is dominated by which inputs are hard, so a p90 over days
    moved by 10% between seeds; the median over runs of their slowest day
    moves by a few percent.
    """
    return [max(days[k : k + N_DAYS]) for k in range(0, len(days) - N_DAYS + 1, N_DAYS)]


def _speed_line(speeds: list) -> str:
    return (
        f"  machine ran at {statistics.median(speeds):.0%} of reference speed "
        f"(median of {len(speeds)} timed intervals, range {min(speeds):.0%}-{max(speeds):.0%})"
    )


# ---------------------------------------------------------------------- #
# Simulation workloads
# ---------------------------------------------------------------------- #


@dataclass
class SimulationPass:
    """One pass over the inputs; lists are indexed by input.  Timings are at
    reference speed."""

    walls: list = field(default_factory=list)  #: run_simulation seconds
    day_walls: list = field(default_factory=list)  #: Approach.run_day seconds, per day
    speeds: list = field(default_factory=list)  #: reference-speed factor per run
    fingerprints: list = field(default_factory=list)
    errors: list = field(default_factory=list)  #: mean normalised error
    recruits: list = field(default_factory=list)  #: assigned pairs per task
    failed: int = 0  #: runs with a non-finite day error
    wall: float = 0.0  #: seconds the pass took, as measured


def _approach(workload: SimulationWorkload, day_walls: list, recorder=None) -> ETA2Approach:
    """A fresh approach whose ``run_day`` is timed by wrapping it on the instance."""
    approach = ETA2Approach(gamma=GAMMA, alpha=ALPHA, **workload.approach)
    run_day = approach.run_day

    def timed_run_day(day, tasks, observe):
        index = recorder.open("simulation.day") if recorder is not None else -1
        start = clock()
        try:
            return run_day(day, tasks, observe)
        finally:
            day_walls.append(clock() - start)
            if recorder is not None:
                recorder.close(index)

    approach.run_day = timed_run_day
    return approach


def _simulation_pass(workload, inputs, recorder=None) -> SimulationPass:
    out = SimulationPass()
    start = clock()
    probes = [speed_probe()]
    for i, (dataset, run_seed) in enumerate(inputs):
        day_walls: list = []
        approach = _approach(workload, day_walls, recorder)
        config = SimulationConfig(n_days=N_DAYS, seed=run_seed)
        if recorder is not None:
            recorder.run = i
            index = recorder.open("simulation.run")
        begin = clock()
        result = run_simulation(dataset, approach, config)
        out.walls.append(clock() - begin)
        if recorder is not None:
            recorder.close(index)
        probes.append(speed_probe())
        out.day_walls.append(day_walls)
        out.failed += int(not np.all(np.isfinite(result.errors_by_day())))
        out.fingerprints.append(result.fingerprint())
        out.errors.append(result.mean_estimation_error)
        out.recruits.append(sum(day.pair_count for day in result.days) / dataset.n_tasks)
    out.wall = clock() - start
    out.speeds = speed_factors(probes)
    out.walls = [wall * speed for wall, speed in zip(out.walls, out.speeds)]
    out.day_walls = [[day * speed for day in days] for days, speed in zip(out.day_walls, out.speeds)]
    return out


def _typical_error(errors: list, kinds: int = 1) -> float:
    """Median error of each dataset kind (every ``kinds``-th input), averaged.

    The error ceilings apply to this.  Per-run errors are heavy-tailed (an
    SFV run can err three times the median) and survey and SFV runs differ,
    so a mean or a pooled median would need a looser ceiling.
    """
    return statistics.fmean(statistics.median(errors[k::kinds]) for k in range(kinds))


def _simulation_checks(workload, passes: list, warm_fingerprint: str) -> Checks:
    first = passes[0]
    error = _typical_error(first.errors, len(workload.datasets))
    failed = sum(p.failed for p in passes)
    checks = Checks()
    checks.add(f"every day's error is finite ({failed} runs failed)", failed == 0)
    checks.add(
        "the warm-up run reproduces input 0's fingerprint",
        first.fingerprints[0] == warm_fingerprint,
    )
    if len(passes) > 1:
        checks.add(
            "the traced pass reproduces every input's fingerprint",
            all(p.fingerprints == first.fingerprints for p in passes),
        )
    checks.add(
        f"error {error:.4f} is below the ceiling {workload.error_ceiling}",
        error <= workload.error_ceiling,
    )
    return checks


def _digest(fingerprints) -> str:
    return hashlib.sha256("\n".join(fingerprints).encode("ascii")).hexdigest()


def _run_simulations(workload, seed, seconds, trace, startup, spans_path) -> Outcome:
    def make():
        inputs = workload.timed_inputs(seed, seconds)
        dataset, run_seed = inputs[0]
        warm = run_simulation(
            dataset, _approach(workload, []), SimulationConfig(n_days=N_DAYS, seed=run_seed)
        )
        return inputs, warm.fingerprint()

    (inputs, warm_fingerprint), setup_s = _setup(make, 1 if trace else SETUP_REPEATS, startup)
    if trace:
        recorder = SpanRecorder()
        plain = _simulation_pass(workload, inputs)
        with patched(trace_points(recorder)):
            origin = clock()
            traced = _simulation_pass(workload, inputs, recorder)
        if spans_path is not None:
            recorder.write_jsonl(spans_path, workload.name, origin)
        passes = [plain, traced]
    else:
        passes = [_simulation_pass(workload, inputs)]
    checks = _simulation_checks(workload, passes, warm_fingerprint)
    first = passes[0]
    lines = [
        f"  {len(inputs)} inputs, timed in "
        + ", ".join(f"{p.wall:.2f}" for p in passes)
        + " s",
        _speed_line([s for p in passes for s in p.speeds]),
    ]
    outcome = Outcome(
        correct=checks.ok,
        attempted=len(passes) * len(inputs),
        failed=sum(p.failed for p in passes),
        metrics={},
        digest=_digest(first.fingerprints),
        lines=lines,
    )
    if trace:
        overhead = statistics.median(traced.walls) / statistics.median(plain.walls) - 1.0
        outcome.metrics = layer_metrics(recorder, traced.wall, overhead)
        outcome.lines += _share_lines(outcome.metrics, traced.wall) + checks.lines()
        return outcome

    panel = _simulation_pass(workload, workload.inputs(PANEL_SEED, workload.panel_inputs))
    panel_error = statistics.fmean(panel.errors)
    checks.add(
        f"every accuracy panel day's error is finite ({panel.failed} runs failed)", panel.failed == 0
    )
    outcome.attempted += len(panel.errors)
    outcome.failed += panel.failed
    outcome.correct = checks.ok

    days = [day for per_input in first.day_walls for day in per_input]
    outcome.metrics = {
        "request_p50_ms": percentile(first.walls, 50) * 1e3,
        "day_p50_ms": percentile(days, 50) * 1e3,
        "slow_day_p50_ms": percentile(_slowest_days(days), 50) * 1e3,
        "capacity_per_s": len(days) / sum(first.walls),
        "est_error": panel_error,
        "recruit_cost": statistics.fmean(panel.recruits),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    outcome.lines.append(
        f"  accuracy panel: {len(panel.errors)} inputs of seed {PANEL_SEED}, "
        f"mean error {panel_error:.6f}"
    )
    outcome.lines += checks.lines()
    return outcome


# ---------------------------------------------------------------------- #
# The serving workload
# ---------------------------------------------------------------------- #


@dataclass
class ServePass:
    """One pass over the traffic.  Timings are at reference speed."""

    latencies: list = field(default_factory=list)  #: per batch: submit seconds from due
    seals: list = field(default_factory=list)  #: per day: seal_day seconds
    busy: list = field(default_factory=list)  #: per day: seconds inside the service
    speeds: list = field(default_factory=list)  #: reference-speed factor per day
    busy_measured: float = 0.0  #: seconds inside the service, as measured
    wall: float = 0.0  #: seconds the pass took, as measured, probes excluded
    end_lag: float = 0.0  #: how late the last operation finished, as measured
    shed: int = 0
    rejected: int = 0
    errors: list = field(default_factory=list)  #: normalised error per day
    observations: int = 0
    tasks: int = 0
    fingerprint: str = ""


def _system(traffic, seed) -> ETA2System:
    return ETA2System(
        n_users=traffic.n_users, capacities=traffic.capacities, gamma=GAMMA, alpha=ALPHA, seed=seed
    )


def _service(traffic, seed, directory, resume=False) -> IngestionService:
    """The service as ``repro serve`` configures it (strict ingest schema)."""
    schema = IngestSchema(
        n_users=traffic.n_users,
        n_tasks=max(len(day.tasks) for day in traffic.days),
        min_day=0,
        max_day=traffic.days[-1].day,
    )
    return IngestionService(
        _system(traffic, seed), directory, resume=resume, schema=schema, sync="commit"
    )


def _traffic_truths(workload: ServeWorkload, traffic, seed) -> list:
    """Per-day ``(true_values, base_numbers)`` of the generated traffic.

    ``generate_traffic`` keeps its world to itself, so this rebuilds the
    same synthetic dataset and day schedule from the same seed streams and
    checks that the tasks line up with the trace.
    """
    days = len(traffic.days)
    data_rng, schedule_rng = ensure_rng(seed).spawn(5)[:2]
    dataset = synthetic_dataset(
        n_users=workload.n_users,
        n_tasks=days * workload.tasks_per_day,
        n_domains=workload.n_domains,
        seed=data_rng,
    )
    schedule = evenly_distributed_days(dataset.n_tasks, days, schedule_rng)
    truths = []
    for day in traffic.days:
        tasks = [dataset.tasks[j] for j in np.flatnonzero(schedule == day.day)]
        if [t.processing_time for t in tasks] != [t.processing_time for t in day.tasks]:
            raise RuntimeError(f"rebuilt tasks of day {day.day} do not match the traffic")
        truths.append(
            (np.array([t.true_value for t in tasks]), np.array([t.base_number for t in tasks]))
        )
    return truths


def _wait_until(due: float, recorder=None) -> None:
    """Sleep until 0.3 ms before ``due``, then spin, so the schedule holds."""
    remaining = due - clock()
    if remaining <= 0.0:
        return
    index = recorder.open("loadgen.wait") if recorder is not None else -1
    if remaining > 3e-4:
        time.sleep(remaining - 3e-4)
    while clock() < due:
        pass
    if recorder is not None:
        recorder.close(index)


def _serve_pass(workload, traffic, truths, seed, directory, recorder=None) -> ServePass:
    service = _service(traffic, seed, directory)
    out = ServePass()
    interval = 1.0 / workload.rate
    offered = 0
    day_latencies: list = []
    probes = [speed_probe()]
    start = clock()
    try:
        for ordinal, day in enumerate(traffic.days):
            if recorder is not None:
                recorder.run = ordinal
            latencies = []
            begin = clock()
            service.open_day(day.day, day.tasks)
            busy = clock() - begin
            for batch in day.batches:
                due = start + offered * interval
                offered += 1
                _wait_until(due, recorder)
                begin = clock()
                submitted = service.submit(batch)
                done = clock()
                busy += done - begin
                latencies.append(done - due)
                if not submitted.accepted:
                    if submitted.reason in SHED_REASONS:
                        out.shed += 1
                    else:
                        out.rejected += 1
            begin = clock()
            result = service.seal_day()
            seal = clock() - begin
            busy += seal
            # The schedule stops while the generator probes the machine.
            halted = clock()
            probes.append(speed_probe())
            start += clock() - halted
            day_latencies.append(latencies)
            out.seals.append(seal)
            out.busy.append(busy)
            out.busy_measured += busy
            true_values, base_numbers = truths[ordinal]
            out.errors.append(normalized_estimation_error(result.truths, true_values, base_numbers))
            out.observations += result.observations.observation_count
            out.tasks += len(day.tasks)
        finished = clock()
        out.end_lag = finished - (start + offered * interval)
        out.wall = finished - start
    finally:
        service.close()
    out.fingerprint = service.state_fingerprint()
    out.speeds = speed_factors(probes)
    out.latencies = [x * s for day, s in zip(day_latencies, out.speeds) for x in day]
    out.seals = [seal * speed for seal, speed in zip(out.seals, out.speeds)]
    out.busy = [busy * speed for busy, speed in zip(out.busy, out.speeds)]
    return out


def _serve_panel(workload, directory) -> ServePass:
    """The accuracy panel, served closed loop and untimed."""
    traffic = workload.traffic(workload.panel_days, PANEL_SEED)
    truths = _traffic_truths(workload, traffic, PANEL_SEED)
    service = _service(traffic, PANEL_SEED, directory)
    try:
        results = drive_trace(service, traffic)
    finally:
        service.close()
    out = ServePass()
    for result, day, (true_values, base_numbers) in zip(results, traffic.days, truths):
        out.errors.append(normalized_estimation_error(result.truths, true_values, base_numbers))
        out.observations += result.observations.observation_count
        out.tasks += len(day.tasks)
    return out


def _serve_checks(workload, traffic, seed, passes: list, wal_dir: Path) -> Checks:
    first = passes[0]
    shed = sum(p.shed for p in passes)
    rejected = sum(p.rejected for p in passes)
    checks = Checks()
    checks.add(f"no batch shed ({shed}) or rejected ({rejected})", shed == 0 and rejected == 0)
    finite = bool(np.all(np.isfinite(first.errors)))
    checks.add("every day's error is finite", finite)
    error = _typical_error(first.errors) if finite else float("nan")
    checks.add(
        f"error {error:.4f} is below the ceiling {workload.error_ceiling}",
        finite and error <= workload.error_ceiling,
    )
    if len(passes) > 1:
        checks.add(
            f"all {len(passes)} passes end in the same state",
            all(p.fingerprint == first.fingerprint for p in passes),
        )
    reference = _system(traffic, seed)
    for day in traffic.days:
        reference.step_from_batch(day.tasks, [r for batch in day.batches for r in batch.reports])
    checks.add(
        "state equals a bare ETA2System fed the same reports",
        state_fingerprint(reference) == first.fingerprint,
    )
    recovered = _service(traffic, seed, wal_dir, resume=True)
    recovered.close()
    checks.add(
        "WAL + checkpoint recovery reproduces the state",
        recovered.applied_days == len(traffic.days)
        and recovered.state_fingerprint() == first.fingerprint,
    )
    return checks


def _run_serve(workload, seed, seconds, trace, workdir, startup, spans_path) -> Outcome:
    days = workload.days(seconds)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))

    def make():
        traffic = workload.traffic(days, seed)
        truths = _traffic_truths(workload, traffic, seed)
        warm = _service(traffic, seed, scratch / "warmup")
        drive_trace(warm, replace(traffic, days=traffic.days[: workload.warmup_days]))
        warm.close()
        shutil.rmtree(scratch / "warmup")
        return traffic, truths

    try:
        (traffic, truths), setup_s = _setup(make, 1 if trace else SETUP_REPEATS, startup)
        if trace:
            recorder = SpanRecorder()
            plain = _serve_pass(workload, traffic, truths, seed, scratch / "pass-0")
            with patched(trace_points(recorder)):
                origin = clock()
                traced = _serve_pass(workload, traffic, truths, seed, scratch / "pass-1", recorder)
            if spans_path is not None:
                recorder.write_jsonl(spans_path, workload.name, origin)
            passes = [plain, traced]
        else:
            passes = [
                _serve_pass(workload, traffic, truths, seed, scratch / f"pass-{k}")
                for k in range(SERVE_PASSES)
            ]
        checks = _serve_checks(workload, traffic, seed, passes, scratch / "pass-0")
        first = passes[0]
        lines = [
            f"  {len(passes)} passes of {len(first.latencies)} batches over {len(first.seals)} days "
            f"at {workload.rate:g}/s: busy "
            + ", ".join(f"{p.busy_measured / p.wall:.0%}" for p in passes)
            + ", ended "
            + ", ".join(f"{p.end_lag * 1e3:.2f}" for p in passes)
            + " ms behind schedule",
            _speed_line([s for p in passes for s in p.speeds]),
        ]
        outcome = Outcome(
            correct=checks.ok,
            attempted=len(passes) * (len(first.latencies) + len(first.seals)),
            failed=sum(p.shed + p.rejected for p in passes)
            + sum(int(not np.isfinite(e)) for p in passes for e in p.errors),
            metrics={},
            digest=first.fingerprint,
            lines=lines,
        )
        if trace:
            wal_bytes = sum(p.stat().st_size for p in (scratch / "pass-1").glob("wal-*.jsonl"))
            outcome.metrics = layer_metrics(
                recorder,
                traced.wall,
                sum(traced.busy) / sum(plain.busy) - 1.0,
                serve={
                    "serve.wal_bytes": wal_bytes,
                    "serve.shed": traced.shed,
                    "serve.rejected": traced.rejected,
                    "serve.busy_frac": traced.busy_measured / traced.wall,
                    "loadgen.end_lag_ms": traced.end_lag * 1e3,
                    "loadgen.submit_p99_ms": percentile(traced.latencies, 99) * 1e3,
                },
            )
            outcome.lines += _share_lines(outcome.metrics, traced.wall) + checks.lines()
            return outcome

        panel = _serve_panel(workload, scratch / "panel")
        panel_error = statistics.fmean(panel.errors)
        panel_tasks = workload.panel_days * workload.tasks_per_day
        checks.add(
            f"the accuracy panel applies all {panel_tasks} tasks ({panel.tasks})",
            panel.tasks == panel_tasks,
        )
        checks.add("every accuracy panel day's error is finite", np.isfinite(panel_error))
        outcome.attempted += len(panel.errors)
        outcome.failed += sum(int(not np.isfinite(e)) for e in panel.errors)
        outcome.correct = checks.ok

        # Each batch's, day's and day's busy time's faster pass.
        latencies = [min(batch) for batch in zip(*(p.latencies for p in passes))]
        seals = [min(day) for day in zip(*(p.seals for p in passes))]
        busy = sum(min(day) for day in zip(*(p.busy for p in passes)))
        outcome.metrics = {
            "request_p50_ms": percentile(latencies, 50) * 1e3,
            "day_p50_ms": percentile(seals, 50) * 1e3,
            "slow_day_p50_ms": percentile(_slowest_days(seals), 50) * 1e3,
            "capacity_per_s": len(latencies) / busy,
            "est_error": panel_error,
            "recruit_cost": panel.observations / panel.tasks,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        }
        outcome.lines.insert(
            1, f"  submit p99 {percentile(latencies, 99) * 1e3:.3f} ms at reference speed"
        )
        outcome.lines.append(
            f"  accuracy panel: {len(panel.errors)} days of seed {PANEL_SEED}, "
            f"mean error {panel_error:.6f}"
        )
        outcome.lines += checks.lines()
        return outcome
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------- #
# Tracing: wrappers at each layer's call site, and the per-layer metrics
# ---------------------------------------------------------------------- #


def trace_points(recorder: SpanRecorder) -> list:
    """``(owner, attr, factory)`` for every layer entry point the benchmark times.

    Each name is replaced where the pipeline resolves it, so module-level
    functions are patched in the importing module (``pipeline``,
    ``max_quality``) and methods on their class.
    ``max_quality.lazy_greedy_allocate`` covers the max-quality passes and
    every min-cost round.
    """
    r = recorder

    def span(name, observe=None):
        return lambda original: r.wrap(name, original, observe)

    def stepper(name):
        # The observe callback handed to warmup/step is the simulation
        # engine's collection closure: a child span of the step.
        def factory(original):
            def step(self, tasks, observe):
                return original(self, tasks, r.wrap("simulation.observe", observe))

            return r.wrap(name, step)

        return factory

    def min_cost(original):
        # Algorithm 2's estimate callback (an uncommitted truth preview) is
        # a child span; its observe callback already is one via stepper().
        def run_min_cost(self, problem, observe, estimate=None):
            if estimate is not None:
                estimate = r.wrap("truth.preview", estimate)
            return original(self, problem, observe, estimate)

        return r.wrap("allocation.min_cost", run_min_cost, min_cost_counts)

    def incorporate(original):
        committed = r.wrap("truth.incorporate", original, solve_counts)
        preview = r.wrap("truth.preview_solve", original, solve_counts)

        def dispatch(self, *args, **kwargs):
            return (committed if kwargs.get("commit", True) else preview)(self, *args, **kwargs)

        return dispatch

    def greedy_counts(outcome, args, kwargs):
        if outcome.stats is not None:
            r.count("picks", outcome.stats.picks)
            r.count("evaluations", outcome.stats.evaluations)

    def min_cost_counts(outcome, args, kwargs):
        r.count("mc_rounds", outcome.round_count)
        r.count("mc_satisfied", int(outcome.satisfied.sum()))
        r.count("mc_tasks", int(outcome.satisfied.size))

    def solve_counts(result, args, kwargs):
        r.count("solves")
        r.count("iterations", result.iterations)
        r.count("nonconverged", int(not result.converged))

    def clustering_counts(result, args, kwargs):
        r.count("new_domains", len(result.new_domains))
        r.count("merges", len(result.merges))

    def pair_counts(values, args, kwargs):
        r.count("pairs", len(args[1]))

    def description_counts(items, args, kwargs):
        r.count("descriptions", len(args[0]))

    def checkpoint_counts(path, args, kwargs):
        r.count("checkpoint_bytes", path.stat().st_size)

    return [
        (World, "observe_pairs", span("simulation.observe_pairs", pair_counts)),
        (ETA2System, "warmup", stepper("pipeline.warmup")),
        (ETA2System, "step", stepper("pipeline.step")),
        (ETA2System, "step_from_batch", span("pipeline.step_from_batch")),
        (pipeline, "default_embedding", span("semantics.embed_train")),
        (pipeline, "semantics_for_descriptions", span("semantics.extract", description_counts)),
        (DynamicHierarchicalClustering, "fit", span("clustering.fit", clustering_counts)),
        (DynamicHierarchicalClustering, "add", span("clustering.add", clustering_counts)),
        (RandomAllocator, "allocate", span("allocation.random")),
        (MaxQualityAllocator, "allocate", span("allocation.max_quality")),
        (MinCostAllocator, "run", min_cost),
        (max_quality, "lazy_greedy_allocate", span("allocation.greedy", greedy_counts)),
        (AllocationProblem, "accuracy_matrix", span("allocation.accuracy")),
        (pipeline, "estimate_truth", span("truth.batch", solve_counts)),
        (ExpertiseUpdater, "incorporate", incorporate),
        (IngestionService, "open_day", span("serve.open_day")),
        (IngestionService, "submit", span("serve.submit")),
        (IngestionService, "seal_day", span("serve.seal")),
        (AdmissionController, "offer", span("serve.admission")),
        (WriteAheadLog, "append", span("serve.wal_append")),
        (CheckpointManager, "save", span("reliability.checkpoint", checkpoint_counts)),
    ]


#: Per-layer metrics only the serving workload produces (0 elsewhere).
SERVE_ONLY = (
    "serve.wal_bytes",
    "serve.shed",
    "serve.rejected",
    "serve.busy_frac",
    "loadgen.end_lag_ms",
    "loadgen.submit_p99_ms",
)


def layer_metrics(recorder: SpanRecorder, wall: float, overhead: float, serve=None) -> dict:
    """Per-layer metrics of one traced pass of ``wall`` seconds.

    Times are as measured, not scaled to reference speed.  ``*_s`` metrics
    are inclusive seconds summed over the pass, except ``*.self_s`` and
    ``simulation.engine_self_s``, which exclude child spans.
    """
    totals = recorder.totals()
    counts = recorder.counts

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def count(name):
        return counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = ("pipeline.warmup", "pipeline.step", "pipeline.step_from_batch")
    metrics = {
        "allocation.self_s": own("allocation.random", "allocation.max_quality", "allocation.min_cost"),
        "allocation.greedy_s": total("allocation.greedy"),
        "allocation.greedy_calls": calls("allocation.greedy"),
        "allocation.accuracy_s": total("allocation.accuracy"),
        "allocation.picks": count("picks"),
        "allocation.evaluations": count("evaluations"),
        "allocation.evals_per_pick": ratio(count("evaluations"), count("picks")),
        "allocation.mc_rounds": count("mc_rounds"),
        "allocation.mc_satisfied_frac": ratio(count("mc_satisfied"), count("mc_tasks")),
        "semantics.embed_train_s": total("semantics.embed_train"),
        "semantics.embed_trains": calls("semantics.embed_train"),
        "semantics.extract_s": total("semantics.extract"),
        "semantics.descriptions": count("descriptions"),
        "clustering.self_s": own("clustering.fit", "clustering.add"),
        "clustering.calls": calls("clustering.fit", "clustering.add"),
        "clustering.new_domains": count("new_domains"),
        "clustering.merges": count("merges"),
        "truth.batch_s": total("truth.batch"),
        "truth.incorporate_s": total("truth.incorporate"),
        "truth.preview_s": total("truth.preview"),
        "truth.solves": count("solves"),
        "truth.iterations": count("iterations"),
        "truth.iters_per_solve": ratio(count("iterations"), count("solves")),
        "truth.nonconverged": count("nonconverged"),
        "pipeline.self_s": own(*steps),
        "pipeline.steps": calls(*steps),
        "simulation.collect_s": total("simulation.observe_pairs"),
        "simulation.pairs": count("pairs"),
        "simulation.engine_self_s": own("simulation.run", "simulation.day", "simulation.observe"),
        "serve.submit_s": total("serve.submit"),
        "serve.admission_s": total("serve.admission"),
        "serve.wal_append_s": total("serve.wal_append"),
        "serve.wal_records": calls("serve.wal_append"),
        "serve.seal_s": total("serve.seal"),
        "serve.step_s": total("pipeline.step_from_batch"),
        "reliability.checkpoint_s": total("reliability.checkpoint"),
        "reliability.checkpoints": calls("reliability.checkpoint"),
        "reliability.checkpoint_bytes": count("checkpoint_bytes"),
        "bench.trace_overhead": overhead,
        "bench.coverage": sum(own_s for _c, _t, own_s in totals.values()) / wall,
    }
    metrics.update({name: 0 for name in SERVE_ONLY})
    metrics.update(serve or {})
    return metrics


def _share_lines(metrics: dict, wall: float) -> list:
    allocation = (
        metrics["allocation.self_s"] + metrics["allocation.greedy_s"] + metrics["allocation.accuracy_s"]
    )
    identify = (
        metrics["semantics.embed_train_s"] + metrics["semantics.extract_s"] + metrics["clustering.self_s"]
    )
    truth = metrics["truth.batch_s"] + metrics["truth.incorporate_s"] + metrics["truth.preview_s"]
    return [
        f"  share of traced wall: allocation {allocation / wall:.0%}, identify {identify / wall:.0%}, "
        f"truth {truth / wall:.0%}, collect {metrics['simulation.collect_s'] / wall:.0%}, "
        f"coverage {metrics['bench.coverage']:.3f}"
    ]
