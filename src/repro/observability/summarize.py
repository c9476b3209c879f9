"""Render a per-day timeline from a JSONL trace.

``repro trace summarize run.jsonl`` answers the questions the telemetry
layer exists for — *which phases ran on which day, how the MLE converged,
what the clusterer decided, who was quarantined and when* — from the
trace alone, with no access to the run's in-memory objects.

The renderer is deliberately tolerant: unknown event types are counted
but never fatal, so traces from newer emitters still summarize.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from repro.observability.tracer import TRACE_SCHEMA_VERSION

__all__ = ["iter_trace", "read_trace", "summarize_trace", "render_summary"]


def _parse_record(line: str, lineno: int) -> dict:
    """One strict JSONL record; raises :class:`ValueError` otherwise."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        raise ValueError(f"trace line {lineno} is not valid JSON") from None
    if not isinstance(record, dict):
        raise ValueError(f"trace line {lineno} is not a JSON object")
    return record


def iter_trace(path: "str | Path"):
    """Stream event records from a JSONL trace, one at a time.

    The generator holds at most one line in memory, so arbitrarily long
    traces analyze in constant space (the property the query/profile
    engines are built on).  Corrupt *interior* lines raise
    :class:`ValueError` with the offending line number; a corrupt *final*
    line — the crashed-run case — yields a ``trace.truncated`` marker
    record instead.  Records declaring a ``schema`` version this reader
    does not know trigger one :class:`UserWarning` per file and are
    otherwise passed through unchanged (forward compatibility: new
    emitters may add fields, never reinterpret existing ones).
    """
    schema_warned = False
    pending: "tuple[int, str] | None" = None  # one-line lookahead
    with Path(path).open("r") as stream:
        lineno = 0
        for raw in stream:
            lineno += 1
            if not raw.strip():
                continue
            if pending is not None:
                # A line follows it, so the pending line is interior:
                # corruption here is real damage, not a torn tail.
                record = _parse_record(pending[1], pending[0])
                schema_warned = _check_schema(record, path, schema_warned)
                yield record
            pending = (lineno, raw)
        if pending is not None:
            try:
                record = _parse_record(pending[1], pending[0])
            except ValueError:
                yield {"type": "trace.truncated", "data": {"line": pending[0]}}
                return
            schema_warned = _check_schema(record, path, schema_warned)
            yield record


def _check_schema(record: dict, path, already_warned: bool) -> bool:
    version = record.get("schema")
    if already_warned or version is None or version == TRACE_SCHEMA_VERSION:
        return already_warned
    warnings.warn(
        f"{path}: trace records declare schema version {version!r}; this "
        f"reader understands version {TRACE_SCHEMA_VERSION} and will parse "
        "on a best-effort basis",
        UserWarning,
        stacklevel=3,
    )
    return True


def read_trace(path: "str | Path") -> list:
    """Load a JSONL trace file into a list of event records.

    Raises :class:`ValueError` with the offending line number on corrupt
    lines (a truncated *final* line — the crash case — is tolerated and
    skipped with a note in the summary instead).  Prefer
    :func:`iter_trace` when the records are folded rather than indexed.
    """
    return list(iter_trace(path))


def _data(record: dict) -> dict:
    return record.get("data") or {}


class _DaySummary:
    """Accumulator for one day's (or the preamble's) events."""

    def __init__(self, day: "int | None" = None):
        self.day = day
        self.kind: "str | None" = None
        self.n_tasks: "int | None" = None
        self.phases: list = []
        self.mle_iterations = 0
        self.final_delta: "float | None" = None
        self.converged: "bool | None" = None
        self.degraded = False
        self.new_domains: list = []
        self.merges: list = []
        self.quarantined: list = []
        self.probation: list = []
        self.reinstated: list = []
        self.excluded: list = []
        #: Summed ``allocation.greedy`` work counters (picks/pops/evaluations).
        self.greedy: "dict | None" = None
        self.guard_violations: list = []
        self.checkpoints: list = []
        self.error: "float | None" = None
        self.cost: "float | None" = None

    def lines(self) -> list:
        out: list = []
        header = f"day {self.day}" if self.day is not None else "preamble"
        if self.kind:
            header += f" ({self.kind})"
        if self.n_tasks is not None:
            header += f": {self.n_tasks} tasks"
        if self.error is not None:
            header += f", error {self.error:.4f}"
        if self.cost is not None:
            header += f", cost {self.cost:.1f}"
        out.append(header)
        if self.phases:
            out.append(f"  phases: {' -> '.join(self.phases)}")
        if self.mle_iterations:
            verdict = "converged" if self.converged else "NOT CONVERGED"
            if self.converged is None:
                verdict = "unknown"
            detail = "" if self.final_delta is None else f", final delta {self.final_delta:.4g}"
            out.append(f"  mle: {self.mle_iterations} iterations, {verdict}{detail}")
        if self.degraded:
            out.append("  DEGRADED: zero observations collected")
        if self.new_domains:
            out.append(f"  clustering: new domains {self.new_domains}")
        for kept, deleted in self.merges:
            out.append(f"  clustering: domain {deleted} merged into {kept} (Eqs. 7-9 carry-over)")
        if self.quarantined:
            out.append(f"  reputation: quarantined {self.quarantined}")
        if self.probation:
            out.append(f"  reputation: to probation {self.probation}")
        if self.reinstated:
            out.append(f"  reputation: reinstated {self.reinstated}")
        if self.greedy is not None:
            counts = ", ".join(f"{count} {name}" for name, count in self.greedy.items())
            out.append(f"  allocation: greedy {counts}")
        if self.excluded:
            out.append(f"  allocation: excluded quarantined users {self.excluded}")
        for check, phase, count in self.guard_violations:
            out.append(f"  guard: {phase}/{check} x{count}")
        for step, nbytes in self.checkpoints:
            size = "" if nbytes is None else f" ({nbytes} bytes)"
            out.append(f"  checkpoint: saved step {step}{size}")
        return out


def summarize_trace(records: list) -> dict:
    """Fold trace records into a structured summary.

    Returns ``{"manifest": ..., "days": [per-day dicts of _DaySummary],
    "anomalies": [...], "fault_counts": ..., "event_count": N,
    "unknown_types": {...}}``.  Use :func:`render_summary` for text.
    """
    manifest = None
    fault_counts = None
    days: list = []
    current = _DaySummary()
    preamble = current
    anomalies: list = []
    unknown: dict = {}
    truncated = False

    def day_label():
        return "warm-up/preamble" if current.day is None else f"day {current.day}"

    for record in records:
        rtype = record.get("type", "")
        data = _data(record)
        if rtype == "run.start":
            manifest = data.get("manifest")
        elif rtype == "run.end":
            fault_counts = data.get("fault_counts")
        elif rtype == "day.start":
            current = _DaySummary(day=data.get("day"))
            current.n_tasks = data.get("n_tasks")
            days.append(current)
        elif rtype == "day.end":
            current.error = data.get("error")
            current.cost = data.get("cost")
        elif rtype == "step.start":
            current.kind = data.get("kind")
            if current.n_tasks is None:
                current.n_tasks = data.get("n_tasks")
        elif rtype == "step.end":
            if data.get("converged") is not None:
                current.converged = bool(data.get("converged"))
            if data.get("iterations") is not None:
                current.mle_iterations = int(data.get("iterations"))
        elif rtype == "step.degraded":
            current.degraded = True
            anomalies.append(f"{day_label()}: degraded (zero observations)")
        elif rtype == "phase.start":
            name = data.get("phase")
            if name and (not current.phases or current.phases[-1] != name):
                current.phases.append(name)
        elif rtype == "phase.end":
            pass
        elif rtype == "mle.iteration":
            current.mle_iterations = max(current.mle_iterations, int(data.get("iteration", 0)))
            if data.get("delta") is not None:
                current.final_delta = float(data["delta"])
        elif rtype == "mle.converged":
            current.converged = True
            current.mle_iterations = int(data.get("iterations", current.mle_iterations))
            if data.get("final_delta") is not None:
                current.final_delta = float(data["final_delta"])
        elif rtype == "mle.non_convergence":
            current.converged = False
            current.mle_iterations = int(data.get("iterations", current.mle_iterations))
            if data.get("final_delta") is not None:
                current.final_delta = float(data["final_delta"])
            anomalies.append(
                f"{day_label()}: MLE did not converge "
                f"(final delta {current.final_delta}, {current.mle_iterations} iterations)"
            )
        elif rtype == "clustering.new_domain":
            current.new_domains.append(data.get("domain"))
        elif rtype == "clustering.merge":
            current.merges.append((data.get("kept"), data.get("deleted")))
        elif rtype == "reputation.quarantine":
            current.quarantined.extend(data.get("users", []))
            anomalies.append(f"{day_label()}: quarantined users {data.get('users', [])}")
        elif rtype == "reputation.probation":
            current.probation.extend(data.get("users", []))
        elif rtype == "reputation.reinstate":
            current.reinstated.extend(data.get("users", []))
        elif rtype == "allocation.greedy":
            greedy = current.greedy or dict.fromkeys(("picks", "pops", "evaluations"), 0)
            for name in greedy:
                greedy[name] += int(data.get(name, 0))
            current.greedy = greedy
        elif rtype == "allocation.excluded":
            current.excluded.extend(data.get("users", []))
        elif rtype == "guard.violation":
            current.guard_violations.append(
                (data.get("check"), data.get("phase"), data.get("count", 1))
            )
            anomalies.append(
                f"{day_label()}: guard violation {data.get('phase')}/{data.get('check')}"
            )
        elif rtype == "checkpoint.save":
            current.checkpoints.append((data.get("step"), data.get("bytes")))
        elif rtype == "checkpoint.config_drift":
            anomalies.append(
                f"{day_label()}: config drift vs checkpoint "
                f"(stored {data.get('stored')}, current {data.get('current')})"
            )
        elif rtype == "trace.truncated":
            truncated = True
        elif rtype.startswith(("fault.", "observer.", "clustering.", "run.")):
            pass
        else:
            unknown[rtype] = unknown.get(rtype, 0) + 1

    return {
        "manifest": manifest,
        "preamble": preamble,
        "days": days,
        "anomalies": anomalies,
        "fault_counts": fault_counts,
        "event_count": len(records),
        "unknown_types": unknown,
        "truncated": truncated,
    }


def render_summary(summary: dict) -> str:
    """Human-readable timeline text for one :func:`summarize_trace` result."""
    out: list = []
    manifest = summary.get("manifest")
    if manifest:
        # config_hash is None for manifest-only runs (no config captured);
        # slicing None would crash exactly on the traces most in need of
        # a summary, so fall back to an explicit placeholder.
        config = manifest.get("config_hash") or "(none)"
        out.append(
            f"run: repro {manifest.get('repro_version', '?')}, "
            f"seed {manifest.get('seed')}, config {config[:12]}…"
        )
    preamble = summary["preamble"]
    if preamble.phases or preamble.mle_iterations:
        out.extend(preamble.lines())
    for day in summary["days"]:
        out.extend(day.lines())
    if not summary["days"]:
        # Empty and metadata-only traces (a run that crashed before its
        # first day, or a trace holding only run.start/run.end) summarize
        # to an explicit verdict rather than a silent blank timeline.
        out.append("no days recorded")
    fault_counts = summary.get("fault_counts")
    if fault_counts:
        injected = ", ".join(f"{kind}={count}" for kind, count in fault_counts.items() if count)
        out.append(f"injected faults: {injected or 'none'}")
    anomalies = summary["anomalies"]
    if anomalies:
        out.append(f"anomalies ({len(anomalies)}):")
        out.extend(f"  - {entry}" for entry in anomalies)
    else:
        out.append("anomalies: none")
    if summary.get("truncated"):
        out.append("note: trace ends mid-line (crashed run); final event dropped")
    out.append(f"events: {summary['event_count']}")
    return "\n".join(out)
