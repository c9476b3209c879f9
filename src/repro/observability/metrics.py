"""A small metrics registry with Prometheus-text and JSON exporters.

Counters, gauges, and histograms for the quantities the closed loop
already computes but never aggregates — tasks per domain, observations
collected, allocator cost, MLE iterations-to-convergence, checkpoint
bytes.  The registry is plain Python (no external
client library, per the repo's stdlib+numpy constraint) and exports in
the two formats operators actually consume:

- :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  exposition format, with the run manifest attached as a
  ``repro_build_info`` info-style metric;
- :meth:`MetricsRegistry.to_json` — a structured dump with the manifest
  embedded verbatim.

:func:`parse_prometheus_text` / :func:`validate_prometheus_text` close
the loop for CI: an export that parses, has no duplicate samples, no
negative counters, and monotone histogram buckets is one a real scraper
will accept.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "validate_prometheus_text",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for MLE iteration counts and other
#: small-integer loop quantities.
DEFAULT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 100.0)


def _label_key(labels: dict) -> tuple:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(key: tuple, extra: "tuple | None" = None) -> str:
    items = list(key) + (list(extra) if extra else [])
    if not items:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in items)
    return "{" + body + "}"


class _Metric:
    """Shared bookkeeping: one named metric with labelled sample series."""

    type = "untyped"

    def __init__(self, name: str, help_text: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self._samples: dict = {}

    def labelled(self) -> list:
        """``(label_key, value)`` pairs in sorted label order."""
        return sorted(self._samples.items())

    def value(self, **labels) -> float:
        """Current value of one sample series (0.0 if never touched)."""
        return self._samples.get(_label_key(labels), 0.0)


class Counter(_Metric):
    """A monotonically non-decreasing sum."""

    type = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + float(amount)


class Gauge(_Metric):
    """A value that can go up and down."""

    type = "gauge"

    def set(self, value: float, **labels) -> None:
        self._samples[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + float(amount)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    type = "histogram"

    def __init__(self, name: str, help_text: str = "", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help_text)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be a non-empty increasing sequence")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        state = self._samples.get(key)
        if state is None:
            state = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._samples[key] = state
        value = float(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                state["counts"][i] += 1
        state["sum"] += value
        state["count"] += 1

    def value(self, **labels) -> dict:
        state = self._samples.get(_label_key(labels))
        if state is None:
            return {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
        return {"counts": list(state["counts"]), "sum": state["sum"], "count": state["count"]}


class MetricsRegistry:
    """Create-or-get metric factory plus the two exporters.

    ``manifest`` (see :func:`repro.observability.manifest.run_manifest`)
    is attached to every export: as a ``repro_build_info`` metric in the
    Prometheus text and verbatim in the JSON dump.
    """

    def __init__(self, manifest: "dict | None" = None):
        self._metrics: dict = {}
        self.manifest = manifest

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.type}, not {cls.type}"
                )
            return existing
        metric = cls(name, help_text, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def metrics(self) -> list:
        return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------------ #
    # Exporters
    # ------------------------------------------------------------------ #

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format (manifest included)."""
        lines: list = []
        if self.manifest is not None:
            info_labels = tuple(
                (key, str(self.manifest.get(key)))
                for key in ("repro_version", "config_hash", "seed", "start_day")
                if self.manifest.get(key) is not None
            )
            lines.append("# HELP repro_build_info Run manifest of the exporting process.")
            lines.append("# TYPE repro_build_info gauge")
            lines.append(f"repro_build_info{_render_labels(info_labels)} 1")
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.type}")
            if isinstance(metric, Histogram):
                for key, state in metric.labelled():
                    # Bucket counts are stored cumulatively (observe()
                    # increments every bucket the value fits in).
                    for bound, count in zip(metric.buckets, state["counts"]):
                        le = (("le", _format_value(bound)),)
                        lines.append(f"{metric.name}_bucket{_render_labels(key, le)} {count}")
                    lines.append(
                        f'{metric.name}_bucket{_render_labels(key, (("le", "+Inf"),))} '
                        f'{state["count"]}'
                    )
                    lines.append(
                        f"{metric.name}_sum{_render_labels(key)} {_format_value(state['sum'])}"
                    )
                    lines.append(f"{metric.name}_count{_render_labels(key)} {state['count']}")
            else:
                for key, value in metric.labelled():
                    lines.append(f"{metric.name}{_render_labels(key)} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """Structured dump: ``{"manifest": ..., "metrics": [...]}``."""
        dump: list = []
        for metric in self.metrics():
            entry = {"name": metric.name, "type": metric.type, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["samples"] = [
                    {
                        "labels": dict(key),
                        "counts": list(state["counts"]),
                        "sum": state["sum"],
                        "count": state["count"],
                    }
                    for key, state in metric.labelled()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(key), "value": value} for key, value in metric.labelled()
                ]
            dump.append(entry)
        return {"manifest": self.manifest, "metrics": dump}

    def write(self, path: "str | Path") -> Path:
        """Export to ``path``: JSON when it ends in ``.json``, else
        Prometheus text."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".json":
            path.write_text(json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n")
        else:
            path.write_text(self.to_prometheus_text())
        return path


# ---------------------------------------------------------------------- #
# Parsing / validation (used by the CI smoke test)
# ---------------------------------------------------------------------- #

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> "tuple[dict, list]":
    """Parse an exposition-format document.

    Returns ``(types, samples)`` where ``types`` maps metric name to its
    declared type and ``samples`` is a list of
    ``(name, labels_dict, value)`` tuples.  Raises :class:`ValueError`
    on malformed lines or duplicate ``# TYPE`` declarations.
    """
    types: dict = {}
    samples: list = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE comment: {line!r}")
            _, _, name, metric_type = parts
            if name in types:
                raise ValueError(f"line {lineno}: duplicate TYPE declaration for {name!r}")
            types[name] = metric_type
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line: {line!r}")
        labels: dict = {}
        if match.group("labels"):
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(match.group("labels")):
                labels[pair.group(1)] = pair.group(2)
                consumed += 1
            declared = match.group("labels").count("=")
            if consumed != declared:
                raise ValueError(f"line {lineno}: malformed label set: {line!r}")
        raw = match.group("value")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric sample value {raw!r}") from None
        samples.append((match.group("name"), labels, value))
    return types, samples


def validate_prometheus_text(text: str) -> "tuple[dict, list]":
    """Parse *and* sanity-check an export (the CI smoke contract).

    Beyond parsing, enforces: no duplicate (name, labels) sample, no
    negative counter values, histogram buckets cumulative-monotone in
    ``le`` with the ``+Inf`` bucket equal to ``_count``.  Returns the
    parse result on success; raises :class:`ValueError` otherwise.
    """
    types, samples = parse_prometheus_text(text)
    seen: set = set()
    for name, labels, _value in samples:
        key = (name, tuple(sorted(labels.items())))
        if key in seen:
            raise ValueError(f"duplicate sample for {name} {labels}")
        seen.add(key)

    def base_name(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in types:
                return sample_name[: -len(suffix)]
        return sample_name

    for name, labels, value in samples:
        if types.get(base_name(name)) == "counter" and value < 0:
            raise ValueError(f"counter {name} has negative value {value}")

    buckets: dict = {}
    for name, labels, value in samples:
        if not name.endswith("_bucket"):
            continue
        base = name[: -len("_bucket")]
        if types.get(base) != "histogram" or "le" not in labels:
            continue
        series = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        le = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
        buckets.setdefault((base, series), []).append((le, value))
    counts = {
        (base_name(name), tuple(sorted(labels.items()))): value
        for name, labels, value in samples
        if name.endswith("_count") and types.get(base_name(name)) == "histogram"
    }
    for (base, series), pairs in buckets.items():
        pairs.sort()
        values = [count for _, count in pairs]
        if any(later < earlier for earlier, later in zip(values, values[1:])):
            raise ValueError(f"histogram {base} {dict(series)} has non-monotone buckets")
        if pairs and pairs[-1][0] == float("inf"):
            total = counts.get((base, series))
            if total is not None and pairs[-1][1] != total:
                raise ValueError(
                    f"histogram {base} {dict(series)}: +Inf bucket {pairs[-1][1]} "
                    f"!= _count {total}"
                )
    return types, samples
