"""Resilient data collection: a fault-tolerant ``observe()`` wrapper.

:class:`ETA2System` drives data collection through an ``observe(pairs) ->
values`` callback.  Against live mobile users that callback is the least
trustworthy part of the whole loop: the transport can raise, hang past any
reasonable deadline, or return malformed payloads.  :class:`ResilientObserver`
wraps any such callback so the daily step *always* gets an answer:

- **retry with exponential backoff** (:class:`RetryPolicy`) for transient
  batch failures;
- a **circuit breaker** (:class:`CircuitBreaker`) that stops hammering a
  transport that is clearly down and lets it recover;
- a **per-call timeout** — the wall-clock (or injected virtual-clock) time
  of each call is measured and responses that arrive too late are
  discarded, since the slot they were meant for has passed;
- **per-pair salvage**: when a whole batch keeps failing, each pair is
  retried individually so one poison pair cannot sink the rest;
- **graceful degradation**: pairs that still fail come back as NaN, the
  pipeline's standard missing-observation marker, instead of an exception
  aborting the day.

Timeouts are detected *after* the call returns (cooperative, not
preemptive): a synchronous Python callback cannot be interrupted safely, so
a stuck transport should enforce its own transport-level deadline and raise
— which the retry/breaker machinery then handles.  The measured-elapsed
check still protects truth analysis from consuming answers that arrived too
late to matter, and gives the fault injector a deterministic hook.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from repro.reliability.retry import RetryPolicy
from repro.reliability.sanitize import ObservationSanitizer

# RetryPolicy moved to repro.reliability.retry (shared with the sweep
# supervisor) and stays importable from here.
__all__ = ["RetryPolicy", "CircuitBreaker", "ObserverReport", "ResilientObserver"]

_LOG = logging.getLogger(__name__)


class CircuitBreaker:
    """Classic three-state circuit breaker (closed / open / half-open).

    ``failure_threshold`` consecutive failures open the circuit; while open,
    :meth:`allow` refuses calls until ``recovery_time`` has elapsed on
    ``clock``, after which the breaker half-opens and lets probes through.
    A success closes it again; a failure in the half-open state re-opens it
    immediately.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if recovery_time < 0.0:
            raise ValueError("recovery_time must be non-negative")
        self._threshold = int(failure_threshold)
        self._recovery_time = float(recovery_time)
        self._clock = clock
        self._failures = 0
        self._opened_at: "float | None" = None
        self._half_open = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._half_open:
            return "half-open"
        if self._clock() - self._opened_at >= self._recovery_time:
            return "half-open"
        return "open"

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def allow(self) -> bool:
        """Whether a call may proceed right now (may half-open the breaker)."""
        if self._opened_at is None:
            return True
        if self._half_open or self._clock() - self._opened_at >= self._recovery_time:
            self._half_open = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._half_open = False

    def record_failure(self) -> None:
        self._failures += 1
        if self._half_open or self._failures >= self._threshold:
            self._opened_at = self._clock()
            self._half_open = False


@dataclass
class ObserverReport:
    """Running counters of everything a :class:`ResilientObserver` saw.

    One report can be shared between several observer instances (the
    simulation engine rebuilds the per-day closure but keeps one report for
    the whole run).
    """

    calls: int = 0
    retries: int = 0
    exceptions: int = 0
    timeouts: int = 0
    malformed: int = 0
    short_circuits: int = 0
    salvage_calls: int = 0
    salvaged_pairs: int = 0
    failed_pairs: int = 0
    delivered_pairs: int = 0

    @property
    def fault_count(self) -> int:
        """Total transport-level faults observed (not pairs lost)."""
        return self.exceptions + self.timeouts + self.malformed

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        parts = [f"{name}={value}" for name, value in self.as_dict().items() if value]
        return "ObserverReport(" + (", ".join(parts) or "clean") + ")"


class ResilientObserver:
    """Wrap an ``observe(pairs)`` callback so it degrades instead of failing.

    The wrapper is itself a valid ``observe`` callback: it returns one float
    per pair, with NaN for pairs whose collection ultimately failed (the
    pipeline already treats NaN as a missing observation).  The fault-free
    fast path adds only two clock reads and a couple of comparisons on top
    of the wrapped call — see the ``observer`` row of
    ``benchmarks/test_overhead.py``.

    Parameters
    ----------
    observe:
        The wrapped callback.
    retry:
        Backoff schedule for failed batch calls (default :class:`RetryPolicy`).
    breaker:
        Circuit breaker shared across calls; ``None`` builds a private one.
    call_timeout:
        Maximum measured duration (on ``clock``) of a single call; slower
        responses are discarded as timeouts.  ``None`` disables the check.
    sanitizer:
        Optional :class:`ObservationSanitizer` quarantining NaN/inf payloads
        and gross outliers from successful responses.
    salvage:
        When True (default), a batch that exhausts its retries is split into
        single-pair calls so healthy pairs are still collected.
    clock / sleep:
        Injectable time sources (tests and the simulation pass a
        :class:`~repro.reliability.faults.VirtualClock` and a no-op sleep).
    report:
        Optional shared :class:`ObserverReport` to accumulate into.
    """

    def __init__(
        self,
        observe: Callable,
        *,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        call_timeout: "float | None" = None,
        sanitizer: "ObservationSanitizer | None" = None,
        salvage: bool = True,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        report: "ObserverReport | None" = None,
    ):
        if call_timeout is not None and call_timeout <= 0.0:
            raise ValueError("call_timeout must be positive (or None)")
        self._observe = observe
        self._retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(clock=clock)
        self._timeout = call_timeout
        self._sanitizer = sanitizer
        self._salvage = bool(salvage)
        self._clock = clock
        self._sleep = sleep
        self.report = report if report is not None else ObserverReport()

    # ------------------------------------------------------------------ #

    def __call__(self, pairs: Sequence) -> np.ndarray:
        if type(pairs) is not list:  # the wrapped callback expects a list;
            pairs = list(pairs)  # skip the copy on the common case
        n = len(pairs)
        report = self.report
        report.calls += 1
        if n == 0:
            return np.zeros(0, dtype=float)
        if not self.breaker.allow():
            report.short_circuits += 1
            report.failed_pairs += n
            return np.full(n, np.nan)

        values = self._attempt(pairs)
        if values is None:
            if self._salvage and n > 1:
                values = self._salvage_pairs(pairs)
            else:
                report.failed_pairs += n
                values = np.full(n, np.nan)
        else:
            report.delivered_pairs += n
        if self._sanitizer is not None:
            values = self._sanitizer.sanitize(pairs, values)
        return values

    # ------------------------------------------------------------------ #

    def _single_call(self, pairs: list) -> "np.ndarray | None":
        """One call to the wrapped callback; None on any failure."""
        report = self.report
        start = self._clock()
        try:
            values = self._observe(pairs)
            if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
                values = np.asarray(values, dtype=float)
        except Exception as error:  # noqa: BLE001 — any transport error degrades
            report.exceptions += 1
            _LOG.debug("observe() raised %r for %d pairs", error, len(pairs))
            return None
        if values.shape != (len(pairs),):
            report.malformed += 1
            _LOG.warning(
                "observe() returned shape %s for %d pairs; discarding response",
                values.shape,
                len(pairs),
            )
            return None
        if self._timeout is not None and self._clock() - start > self._timeout:
            report.timeouts += 1
            return None
        return values

    def _attempt(self, pairs: list) -> "np.ndarray | None":
        """Call with retries/backoff; None once the batch is given up on."""
        for attempt in range(1, self._retry.max_attempts + 1):
            values = self._single_call(pairs)
            if values is not None:
                self.breaker.record_success()
                return values
            self.breaker.record_failure()
            if attempt == self._retry.max_attempts or not self.breaker.allow():
                return None
            self.report.retries += 1
            self._sleep(self._retry.delay(attempt))
        return None

    def _salvage_pairs(self, pairs: list) -> np.ndarray:
        """Single-pair fallback after a batch exhausted its retries."""
        report = self.report
        out = np.full(len(pairs), np.nan)
        for k, pair in enumerate(pairs):
            if not self.breaker.allow():
                report.short_circuits += 1
                report.failed_pairs += len(pairs) - k
                break
            report.salvage_calls += 1
            values = self._single_call([pair])
            if values is None:
                self.breaker.record_failure()
                report.failed_pairs += 1
            else:
                self.breaker.record_success()
                out[k] = values[0]
                report.salvaged_pairs += 1
        return out
