"""Crash-tolerant supervised execution for sweep jobs.

The parallel sweep layer (:func:`repro.perf.sweep.run_jobs`) is a bare
``ProcessPoolExecutor.map``: one worker OOM/segfault raises
``BrokenProcessPool`` and discards every completed replication of a
Fig. 4/5/6 grid, a hung MLE job stalls the sweep forever, and a killed
sweep restarts from zero.  :class:`SupervisedExecutor` wraps the same job
model (anything with a ``.run()`` method, canonically
:class:`~repro.perf.sweep.SimulationJob`) with production-grade fault
handling while keeping results *bit-identical* to serial ``run_jobs``:

- **crash detection** — a worker death breaks the pool; every job that was
  in flight is charged one ``crash`` attempt (the culprit is not
  identifiable from the parent) and resubmitted to a rebuilt pool.
  Completed results are never discarded.
- **per-job deadlines** — enforced *inside* each worker with a
  ``SIGALRM`` itimer (POSIX itimers reset on fork, so neither the
  parent's pytest timeout plugin nor stale timers leak in), raising
  :class:`JobTimeout` which the worker reports as a structured outcome.
- **hung-worker watchdog** — a worker that outlives
  ``job_timeout + watchdog_grace`` on the parent clock (a hang that blocks
  or ignores ``SIGALRM``) is SIGKILLed with its pool; the overdue job is
  charged a ``watchdog`` attempt, innocent in-flight jobs resubmit free.
- **deterministic retries** — failed jobs back off per the shared
  :class:`~repro.reliability.retry.RetryPolicy` (jitter keyed on the job
  key, so retry timing replays).
- **dead-letter quarantine** — a job failing ``max_attempts`` times
  becomes a :class:`DeadLetter` (exception class, traceback, full attempt
  timeline) instead of failing the sweep; its result slot is ``None``.
- **graceful shutdown** — SIGINT/SIGTERM stop new submissions, drain
  in-flight jobs, journal them, and raise :class:`SweepInterrupted`
  (a ``KeyboardInterrupt`` carrying the partial result).  A second signal
  aborts immediately.
- **durable run journal** — every outcome appends one canonical-JSON line
  (results carried as checksummed pickles) to a JSONL journal, written
  line-buffered so a crash truncates at most the final line — which
  :func:`read_journal` tolerates, exactly like
  :func:`repro.observability.summarize.read_trace`.  Resuming from a
  journal skips completed jobs and reproduces the identical result list.

Determinism: every job's seeds are self-contained (see
:class:`~repro.perf.sweep.SimulationJob`), so a retried attempt reruns the
same pure function; supervision changes *when and where* jobs run, never
what they compute.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import logging
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.observability.tracer import canonical_json
from repro.reliability.faults import FaultError, SimulatedCrash, WorkerFaultProfile
from repro.reliability.retry import RetryPolicy

__all__ = [
    "JOURNAL_VERSION",
    "JobTimeout",
    "SweepInterrupted",
    "Attempt",
    "DeadLetter",
    "SupervisedStats",
    "SupervisedResult",
    "SupervisorConfig",
    "SupervisedExecutor",
    "job_key",
    "read_journal",
    "load_journal_results",
]

_LOG = logging.getLogger(__name__)

JOURNAL_VERSION = 1

#: Exit code used by injected worker kills (recognizable in ps/wait output).
_KILL_EXIT_CODE = 137


class JobTimeout(RuntimeError):
    """A supervised job exceeded its per-job deadline."""


class SweepInterrupted(KeyboardInterrupt):
    """A supervised sweep was stopped by SIGINT/SIGTERM after draining.

    Subclasses :class:`KeyboardInterrupt` so generic ``except Exception``
    recovery code does not swallow an operator's interrupt.  ``partial``
    holds the :class:`SupervisedResult` at shutdown; with a journal
    attached, rerunning with ``resume_journal`` completes the remainder.
    """

    def __init__(self, partial: "SupervisedResult"):
        completed = partial.stats.completed + partial.stats.resumed
        super().__init__(
            f"sweep interrupted after {completed}/{len(partial.results)} jobs"
        )
        self.partial = partial


# --------------------------------------------------------------------- #
# Job identity
# --------------------------------------------------------------------- #


def _fingerprint(value):
    """JSON-coercible identity view of a job (dataclasses recurse)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _fingerprint(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_fingerprint(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _fingerprint(v) for k, v in value.items()}
    return repr(value)


def job_key(job) -> str:
    """A stable 16-hex-digit fingerprint of a job's full identity.

    Two jobs share a key iff their dataclass fields (dataset, approach
    spec, config, replication, scenario, tag) are equal — the property journal
    resume matches on, so a journal survives reordering of the job list.
    """
    text = canonical_json({"job": _fingerprint(job)})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------- #
# Outcome records
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Attempt:
    """One entry of a job's attempt timeline."""

    number: int
    outcome: str  # "ok" | "error" | "timeout" | "crash" | "watchdog"
    error_class: "str | None" = None
    message: "str | None" = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DeadLetter:
    """A job quarantined after exhausting ``max_attempts``."""

    index: int
    key: str
    error_class: str
    message: str
    traceback: str
    attempts: tuple

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "error_class": self.error_class,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": [attempt.as_dict() for attempt in self.attempts],
        }


@dataclass
class SupervisedStats:
    """Counters for one supervised run."""

    completed: int = 0
    resumed: int = 0
    retries: int = 0
    worker_restarts: int = 0
    dead_lettered: int = 0
    timeouts: int = 0
    crashes: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class SupervisedResult:
    """Everything a supervised sweep produced.

    ``results`` aligns with the submitted job list; dead-lettered jobs
    leave ``None`` holes (callers aggregating figure grids skip them).
    """

    results: list
    dead_letters: list
    stats: SupervisedStats
    journal_path: "Path | None" = None

    @property
    def ok(self) -> bool:
        return not self.dead_letters


# --------------------------------------------------------------------- #
# Journal
# --------------------------------------------------------------------- #


def read_journal(path: "str | Path") -> list:
    """Load a JSONL run journal, tolerating a truncated final line.

    Mirrors :func:`repro.observability.summarize.read_trace`: a crash (or
    SIGKILL) mid-append truncates at most the last line, which is replaced
    by a ``journal.truncated`` marker; corruption anywhere else raises.
    """
    import json

    records: list = []
    lines = Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines):
                records.append({"type": "journal.truncated", "line": lineno})
                break
            raise ValueError(f"journal line {lineno} is not valid JSON") from None
    return records


def load_journal_results(path: "str | Path") -> dict:
    """Completed results from a journal, keyed by job key.

    Returns ``{key: deque of results in journal order}`` (a deque per key
    so duplicate jobs in one list resume one-for-one).  Records whose
    pickled payload fails its SHA-256 checksum are skipped with a warning —
    the affected job simply reruns.
    """
    completed: dict = {}
    for record in read_journal(path):
        if record.get("type") != "job.complete":
            continue
        blob = record.get("result")
        stored = record.get("sha256")
        key = record.get("key")
        if not (isinstance(blob, str) and isinstance(stored, str) and isinstance(key, str)):
            _LOG.warning("journal %s: malformed job.complete record skipped", path)
            continue
        try:
            data = base64.b64decode(blob.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError):
            _LOG.warning("journal %s: undecodable result payload for job %s", path, key)
            continue
        if hashlib.sha256(data).hexdigest() != stored:
            _LOG.warning(
                "journal %s: checksum mismatch for job %s; it will be rerun", path, key
            )
            continue
        completed.setdefault(key, deque()).append(pickle.loads(data))
    return completed


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _error_info(error: BaseException) -> dict:
    return {
        "error_class": type(error).__name__,
        "message": str(error),
        "traceback": traceback.format_exc(),
    }


def _run_with_deadline(thunk: Callable, timeout: "float | None", preemptive: bool):
    """Run ``thunk`` under a deadline.

    ``preemptive=True`` (worker processes) arms a ``SIGALRM`` itimer that
    raises :class:`JobTimeout` mid-call.  ``preemptive=False`` (serial
    mode, where the alarm would clobber the host's — e.g. pytest's — timer)
    falls back to a cooperative elapsed-time check after the call returns.
    """
    if timeout is None:
        return thunk()
    use_alarm = (
        preemptive
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        start = time.monotonic()
        result = thunk()
        if time.monotonic() - start > timeout:
            raise JobTimeout(f"job exceeded its {timeout:g}s deadline (measured after return)")
        return result

    def _expired(signum, frame):
        raise JobTimeout(f"job exceeded its {timeout:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return thunk()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _apply_worker_fault(faults: "WorkerFaultProfile | None", key: str, attempt: int, in_worker: bool):
    """Roll and apply the injected fault for one attempt (chaos harness)."""
    if faults is None:
        return
    action = faults.action(key, attempt)
    if action is None:
        return
    if action == "kill":
        if in_worker:
            os._exit(_KILL_EXIT_CODE)  # an abrupt worker death, not an exception
        raise SimulatedCrash(f"injected worker kill for job {key} (raised in serial mode)")
    if action == "hang":
        if in_worker and faults.hard_hang and hasattr(signal, "pthread_sigmask"):
            # A hang the in-worker alarm cannot reach: only the parent
            # watchdog reclaims this worker.
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(faults.hang_seconds)
        return
    raise FaultError(f"injected worker fault for job {key} attempt {attempt}")


def _worker_initializer() -> None:
    """Reset signal dispositions in a fresh worker.

    Forked workers inherit the parent's handlers, including the
    supervisor's drain-on-SIGINT/SIGTERM handler — which must not run in a
    worker (a worker told to terminate would "drain" instead of dying).
    Workers ignore SIGINT (the parent coordinates the drain and lets
    in-flight jobs finish) and die by default on SIGTERM (what the pool's
    own broken-pool cleanup sends).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError, AttributeError):  # pragma: no cover — platform quirks
        pass


def _supervised_worker(payload: tuple) -> tuple:
    """Top-level worker entry point (must be picklable by reference).

    Returns ``(index, status, payload)`` where status is ``"ok"`` (payload
    is the job's result), ``"timeout"``, or ``"error"`` (payload is an
    error-info dict).  Only an abrupt process death escapes this function.
    """
    index, key, job, attempt, timeout, faults = payload
    try:
        result = _run_with_deadline(
            lambda: (_apply_worker_fault(faults, key, attempt, in_worker=True), job.run())[1],
            timeout,
            preemptive=True,
        )
    except JobTimeout as error:
        return index, "timeout", _error_info(error)
    except BaseException as error:  # noqa: BLE001 — report, never kill the worker loop
        return index, "error", _error_info(error)
    return index, "ok", result


# --------------------------------------------------------------------- #
# Supervisor
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SupervisorConfig:
    """Picklable knobs for supervised execution, plumbed through
    ``run_jobs`` / ``replicate`` / the figure sweeps / the CLI."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    job_timeout: "float | None" = None
    journal: "str | Path | None" = None
    resume_journal: "str | Path | None" = None
    watchdog_grace: float = 2.0
    worker_faults: "WorkerFaultProfile | None" = None

    def __post_init__(self):
        if self.job_timeout is not None and self.job_timeout <= 0.0:
            raise ValueError("job_timeout must be positive (or None)")
        if self.watchdog_grace < 0.0:
            raise ValueError("watchdog_grace must be non-negative")

    def executor(self, n_jobs: "int | None" = None, **kwargs) -> "SupervisedExecutor":
        """Build a :class:`SupervisedExecutor` for this config."""
        return SupervisedExecutor(
            n_jobs=n_jobs,
            retry=self.retry,
            job_timeout=self.job_timeout,
            journal=self.journal,
            resume_journal=self.resume_journal,
            watchdog_grace=self.watchdog_grace,
            worker_faults=self.worker_faults,
            **kwargs,
        )


class _RunState:
    """Mutable per-run bookkeeping (index-aligned with the job list)."""

    def __init__(self, jobs: list, keys: list):
        self.jobs = jobs
        self.keys = keys
        self.results: list = [None] * len(jobs)
        self.attempts: list = [[] for _ in jobs]
        self.done: list = [False] * len(jobs)
        self.dead_letters: list = []


class SupervisedExecutor:
    """Run sweep jobs under crash/hang/retry supervision.

    Parameters
    ----------
    n_jobs:
        Worker processes; ``None``/0/1 runs jobs in-process (still with
        retries, deadlines — cooperative there — journaling, and
        dead-lettering).  Negative means one per CPU.
    retry:
        Shared :class:`~repro.reliability.retry.RetryPolicy`;
        ``max_attempts`` failures dead-letter the job.
    job_timeout:
        Per-job deadline in seconds (in-worker ``SIGALRM``); ``None``
        disables both the deadline and the watchdog.
    journal / resume_journal:
        JSONL run-journal paths.  ``journal`` appends every outcome;
        ``resume_journal`` preloads completed results (matched by job key)
        before running.  They may name the same file — the normal
        crash-resume pattern.
    watchdog_grace:
        Extra seconds past ``job_timeout`` before the parent declares a
        worker hung and SIGKILLs the pool.
    worker_faults:
        Optional :class:`~repro.reliability.faults.WorkerFaultProfile`
        injected into workers (chaos harness).
    tracer / metrics:
        Optional :class:`~repro.observability.tracer.RunTracer` and
        :class:`~repro.observability.metrics.MetricsRegistry`; events are
        ``job.start`` / ``job.retry`` / ``job.complete`` /
        ``job.dead_letter`` / ``pool.restart``.
    sleep / clock:
        Injectable time sources (tests pass a no-op sleep).
    """

    def __init__(
        self,
        n_jobs: "int | None" = None,
        retry: "RetryPolicy | None" = None,
        job_timeout: "float | None" = None,
        journal: "str | Path | None" = None,
        resume_journal: "str | Path | None" = None,
        watchdog_grace: float = 2.0,
        worker_faults: "WorkerFaultProfile | None" = None,
        tracer=None,
        metrics=None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        if job_timeout is not None and job_timeout <= 0.0:
            raise ValueError("job_timeout must be positive (or None)")
        if watchdog_grace < 0.0:
            raise ValueError("watchdog_grace must be non-negative")
        if n_jobs is not None and n_jobs < 0:
            n_jobs = os.cpu_count() or 1
        self._n_jobs = n_jobs
        self._retry = retry if retry is not None else RetryPolicy()
        self._timeout = job_timeout
        self._journal_path = None if journal is None else Path(journal)
        self._resume_path = None if resume_journal is None else Path(resume_journal)
        self._grace = float(watchdog_grace)
        self._faults = worker_faults
        self._tracer = tracer
        self._metrics = metrics
        self._sleep = sleep
        self._clock = clock
        self._journal_file = None
        self._shutdown = False
        self._signal_count = 0
        #: The :class:`SupervisedResult` of the most recent :meth:`run`.
        self.last_run: "SupervisedResult | None" = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(self, jobs: Sequence) -> SupervisedResult:
        """Execute ``jobs``; returns results aligned with submission order."""
        jobs = list(jobs)
        state = _RunState(jobs, [job_key(job) for job in jobs])
        self._stats = SupervisedStats()
        self._shutdown = False
        self._signal_count = 0
        self._open_journal()
        self._resume(state)
        self._journal_write(
            {
                "type": "run.start",
                "journal_version": JOURNAL_VERSION,
                "total_jobs": len(jobs),
                "resumed": self._stats.resumed,
            }
        )
        pending = deque(i for i in range(len(jobs)) if not state.done[i])
        previous_handlers = self._install_signal_handlers()
        try:
            if pending:
                if self._n_jobs in (None, 0, 1) or len(pending) <= 1:
                    self._run_serial(state, pending)
                else:
                    self._run_pool(state, pending)
        finally:
            self._restore_signal_handlers(previous_handlers)
            self._close_journal()
        outcome = SupervisedResult(
            results=state.results,
            dead_letters=state.dead_letters,
            stats=self._stats,
            journal_path=self._journal_path,
        )
        self.last_run = outcome
        if self._shutdown and not all(state.done):
            raise SweepInterrupted(outcome)
        return outcome

    def request_shutdown(self) -> None:
        """Ask the running sweep to drain and stop (what SIGINT triggers)."""
        self._shutdown = True

    # ------------------------------------------------------------------ #
    # Signals
    # ------------------------------------------------------------------ #

    def _handle_signal(self, signum, frame) -> None:
        self._signal_count += 1
        if self._signal_count >= 2:
            # The operator insists: abandon the drain.
            raise KeyboardInterrupt("second interrupt during supervised sweep")
        name = signal.Signals(signum).name if hasattr(signal, "Signals") else str(signum)
        _LOG.warning("%s received: draining in-flight sweep jobs (again to abort)", name)
        self.request_shutdown()

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        try:
            return {
                signal.SIGINT: signal.signal(signal.SIGINT, self._handle_signal),
                signal.SIGTERM: signal.signal(signal.SIGTERM, self._handle_signal),
            }
        except (ValueError, OSError, AttributeError):  # non-main thread race / platform
            return None

    def _restore_signal_handlers(self, previous) -> None:
        if previous is None:
            return
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover — interpreter shutdown
                pass

    # ------------------------------------------------------------------ #
    # Journal
    # ------------------------------------------------------------------ #

    def _open_journal(self) -> None:
        if self._journal_path is None:
            return
        self._journal_path.parent.mkdir(parents=True, exist_ok=True)
        # Append + line buffering: a crashed sweep keeps every completed
        # outcome and truncates at most the line being written.
        self._journal_file = self._journal_path.open("a", buffering=1)

    def _close_journal(self) -> None:
        if self._journal_file is not None:
            self._journal_file.close()
            self._journal_file = None

    def _journal_write(self, record: dict) -> None:
        if self._journal_file is not None:
            self._journal_file.write(canonical_json(record) + "\n")

    def _resume(self, state: _RunState) -> None:
        if self._resume_path is None or not self._resume_path.exists():
            if self._resume_path is not None:
                _LOG.warning("resume journal %s does not exist; running cold", self._resume_path)
            return
        completed = load_journal_results(self._resume_path)
        for i, key in enumerate(state.keys):
            bucket = completed.get(key)
            if bucket:
                state.results[i] = bucket.popleft()
                state.done[i] = True
                self._stats.resumed += 1
                self._emit("job.resumed", index=i, key=key)
        if self._stats.resumed:
            _LOG.info(
                "resumed %d/%d jobs from journal %s",
                self._stats.resumed,
                len(state.jobs),
                self._resume_path,
            )

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def _emit(self, type: str, **data) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(type, **data)

    def _count(self, name: str, help_text: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, help_text).inc()

    # ------------------------------------------------------------------ #
    # Outcome handling (shared by serial and pool paths)
    # ------------------------------------------------------------------ #

    def _handle_success(self, state: _RunState, index: int, result) -> None:
        attempt_no = len(state.attempts[index]) + 1
        state.attempts[index].append(Attempt(attempt_no, "ok"))
        state.results[index] = result
        state.done[index] = True
        self._stats.completed += 1
        key = state.keys[index]
        data = pickle.dumps(result, protocol=4)
        self._journal_write(
            {
                "type": "job.complete",
                "index": index,
                "key": key,
                "attempts": attempt_no,
                "sha256": hashlib.sha256(data).hexdigest(),
                "result": base64.b64encode(data).decode("ascii"),
            }
        )
        self._emit("job.complete", index=index, key=key, attempts=attempt_no)
        self._count("repro_sweep_jobs_completed_total", "supervised sweep jobs completed")

    def _handle_failure(self, state: _RunState, index: int, outcome: str, info: dict) -> "float | None":
        """Record one failed attempt.

        Returns the backoff delay before the retry, or ``None`` when the
        job was dead-lettered (or retries are exhausted by shutdown).
        """
        attempt_no = len(state.attempts[index]) + 1
        key = state.keys[index]
        state.attempts[index].append(
            Attempt(attempt_no, outcome, info.get("error_class"), info.get("message"))
        )
        if outcome == "timeout" or outcome == "watchdog":
            self._stats.timeouts += 1
        if outcome == "crash":
            self._stats.crashes += 1
        if attempt_no >= self._retry.max_attempts:
            letter = DeadLetter(
                index=index,
                key=key,
                error_class=info.get("error_class") or outcome,
                message=info.get("message") or f"job failed with {outcome}",
                traceback=info.get("traceback") or "",
                attempts=tuple(state.attempts[index]),
            )
            state.dead_letters.append(letter)
            state.done[index] = True
            self._stats.dead_lettered += 1
            self._journal_write({"type": "job.dead_letter", **letter.as_dict()})
            self._emit(
                "job.dead_letter", index=index, key=key, error_class=letter.error_class
            )
            self._count("repro_sweep_dead_letters_total", "supervised sweep jobs dead-lettered")
            _LOG.error(
                "job %d (%s) dead-lettered after %d attempts: %s: %s",
                index,
                key,
                attempt_no,
                letter.error_class,
                letter.message,
            )
            return None
        self._stats.retries += 1
        delay = self._retry.delay(attempt_no, token=key)
        self._journal_write(
            {
                "type": "job.retry",
                "index": index,
                "key": key,
                "attempt": attempt_no,
                "outcome": outcome,
                "error_class": info.get("error_class"),
            }
        )
        self._emit("job.retry", index=index, key=key, attempt=attempt_no, outcome=outcome)
        self._count("repro_sweep_retries_total", "supervised sweep job retries")
        return delay

    def _record_pool_restart(self, reason: str) -> None:
        self._stats.worker_restarts += 1
        self._emit("pool.restart", reason=reason)
        self._count("repro_sweep_worker_restarts_total", "supervised sweep pool rebuilds")
        _LOG.warning("worker pool restarted (%s)", reason)

    # ------------------------------------------------------------------ #
    # Serial path
    # ------------------------------------------------------------------ #

    def _run_serial(self, state: _RunState, pending: deque) -> None:
        while pending:
            if self._shutdown:
                return
            index = pending.popleft()
            attempt_no = len(state.attempts[index]) + 1
            key = state.keys[index]
            self._emit("job.start", index=index, key=key, attempt=attempt_no)
            # Same execution as the pool path, minus preemptive alarms
            # (which would clobber the host process's own SIGALRM timer —
            # e.g. the repo's pytest timeout plugin).
            try:
                result = _run_with_deadline(
                    lambda: (
                        _apply_worker_fault(self._faults, key, attempt_no, in_worker=False),
                        state.jobs[index].run(),
                    )[1],
                    self._timeout,
                    preemptive=False,
                )
            except JobTimeout as error:
                status, info = "timeout", _error_info(error)
            except KeyboardInterrupt:
                raise
            except BaseException as error:  # noqa: BLE001 — degrade to dead letter
                status, info = "error", _error_info(error)
            else:
                self._handle_success(state, index, result)
                continue
            delay = self._handle_failure(state, index, status, info)
            if delay is not None:
                self._sleep(delay)
                pending.append(index)

    # ------------------------------------------------------------------ #
    # Pool path
    # ------------------------------------------------------------------ #

    def _new_pool(self, n_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=n_workers, initializer=_worker_initializer)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """SIGKILL every worker, then tear the pool down (hung workers)."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover — already gone
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _submit(self, pool, state: _RunState, index: int):
        attempt_no = len(state.attempts[index]) + 1
        key = state.keys[index]
        self._emit("job.start", index=index, key=key, attempt=attempt_no)
        payload = (index, key, state.jobs[index], attempt_no, self._timeout, self._faults)
        return pool.submit(_supervised_worker, payload)

    def _run_pool(self, state: _RunState, pending: deque) -> None:
        n_workers = min(self._n_jobs, len(pending))
        pool = self._new_pool(n_workers)
        in_flight: dict = {}  # future -> (index, submitted_at)
        retry_heap: list = []  # (ready_time, tiebreak, index)
        tiebreak = 0
        try:
            while pending or in_flight or retry_heap:
                now = self._clock()
                while retry_heap and retry_heap[0][0] <= now:
                    pending.append(heapq.heappop(retry_heap)[2])
                if self._shutdown:
                    if not in_flight:
                        return
                elif pending and len(in_flight) < n_workers:
                    # Bounded in-flight submission: every submitted job is
                    # (nearly) running, which is what makes the watchdog's
                    # per-future submit clock meaningful.
                    try:
                        while pending and len(in_flight) < n_workers:
                            index = pending.popleft()
                            in_flight[self._submit(pool, state, index)] = (index, self._clock())
                    except BrokenProcessPool:
                        pending.appendleft(index)
                        pool = self._recover_pool(pool, n_workers, state, in_flight, pending, "submit-to-broken-pool")
                        continue
                if not in_flight:
                    if retry_heap:
                        self._sleep(max(0.0, min(retry_heap[0][0] - self._clock(), 0.05)))
                    continue
                done_set, _ = wait(
                    list(in_flight), timeout=self._wait_timeout(in_flight, retry_heap), return_when=FIRST_COMPLETED
                )
                pool_broken = False
                for future in done_set:
                    index, _submitted = in_flight.pop(future)
                    try:
                        _, status, payload = future.result()
                    except CancelledError:  # pragma: no cover — racing shutdown
                        pending.appendleft(index)
                        continue
                    except BrokenProcessPool as error:
                        pool_broken = True
                        delay = self._handle_failure(
                            state, index, "crash", {"error_class": "BrokenProcessPool", "message": str(error)}
                        )
                        if delay is not None:
                            tiebreak += 1
                            heapq.heappush(retry_heap, (self._clock() + delay, tiebreak, index))
                        continue
                    if status == "ok":
                        self._handle_success(state, index, payload)
                    else:
                        delay = self._handle_failure(state, index, status, payload)
                        if delay is not None:
                            tiebreak += 1
                            heapq.heappush(retry_heap, (self._clock() + delay, tiebreak, index))
                if pool_broken:
                    pool = self._recover_pool(pool, n_workers, state, in_flight, pending, "worker-crash")
                    continue
                pool = self._watchdog(pool, n_workers, state, in_flight, pending, retry_heap)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _recover_pool(self, pool, n_workers, state, in_flight, pending, reason):
        """Charge surviving in-flight jobs a crash attempt and rebuild.

        A worker death breaks the whole ``ProcessPoolExecutor``, and the
        parent cannot tell which in-flight job crashed it — so every one is
        charged a ``crash`` attempt (innocent jobs clear it on retry, a
        deterministic crasher accumulates attempts and dead-letters).
        """
        for future, (index, _submitted) in list(in_flight.items()):
            delay = self._handle_failure(
                state,
                index,
                "crash",
                {"error_class": "BrokenProcessPool", "message": "worker pool broke while job was in flight"},
            )
            if delay is not None:
                # Resubmit immediately (the pool rebuild already costs more
                # than any early backoff step).
                pending.append(index)
        in_flight.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        self._record_pool_restart(reason)
        return self._new_pool(n_workers)

    def _watchdog(self, pool, n_workers, state, in_flight, pending, retry_heap):
        """Reclaim workers hung past ``job_timeout + watchdog_grace``."""
        if self._timeout is None or not in_flight:
            return pool
        now = self._clock()
        budget = self._timeout + self._grace
        overdue = {
            future for future, (_, submitted) in in_flight.items() if now - submitted > budget
        }
        overdue = {future for future in overdue if not future.done()}
        if not overdue:
            return pool
        for future, (index, _submitted) in list(in_flight.items()):
            if future in overdue:
                delay = self._handle_failure(
                    state,
                    index,
                    "watchdog",
                    {
                        "error_class": "JobTimeout",
                        "message": f"worker hung past {budget:g}s; killed by the watchdog",
                    },
                )
                if delay is not None:
                    pending.append(index)
            else:
                # Innocent in-flight jobs die with the pool but are not
                # charged an attempt — only the overdue ones are at fault
                # and identifiable.
                pending.appendleft(index)
        in_flight.clear()
        self._kill_pool(pool)
        self._record_pool_restart("hung-worker-watchdog")
        return self._new_pool(n_workers)

    def _wait_timeout(self, in_flight: dict, retry_heap: list) -> float:
        """How long to block in ``wait()`` before the next supervision tick."""
        candidates = [0.25]
        now = self._clock()
        if self._timeout is not None and in_flight:
            budget = self._timeout + self._grace
            earliest = min(submitted for _, submitted in in_flight.values())
            candidates.append(earliest + budget - now)
        if retry_heap:
            candidates.append(retry_heap[0][0] - now)
        return max(0.01, min(candidates))
