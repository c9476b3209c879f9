"""Compare benchmark results of two commits, metric by metric.

    python3 bench/compare.py --base base-*.json --head head-*.json

Each file is one ``bench/run.py --out`` result.  Files pair up in the
order given (base file *i* against head file *i*), so run the two commits
alternately, at least ten times each, with the same seed and settings.
Bounds and directions come from BENCHMARK.json.

For every workload and metric the report gives each side's median and
quartiles, the head's win fraction over the pairs, and one verdict:

- ``unresolved``: either side's quartile spread is wider than the bound,
  unless every head run beats every base run (``better``) or loses to it
  (``worse``);
- ``worse``: the head's median is worse than the base's by more than the
  metric's bound, or the head loses at least nine tenths of the pairs and
  the change is resolved;
- ``better``: the head wins at least nine tenths of the pairs and the
  change is resolved;
- ``same``: otherwise.

Ties count as neither a win nor a loss.  A change is resolved when the
medians differ by more than either side's quartile spread and by more than
a tenth of the bound, so float noise in a deterministic metric is not one.

Per-layer metrics have no bound; they get medians only.  Results of the
same workload and seed must carry the same digest; a mismatch is flagged.
A result whose checks failed (``correct`` false) is flagged, and so is a
head that failed more operations than the base.  The exit status is 1 when
any verdict is ``worse`` or anything is flagged, and 2 when the files
cannot be compared: different counts per side, traced against untraced,
or a pair whose seeds or seconds differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, head: list, bound: float, better: str) -> "tuple[str, float]":
    """``(verdict, head win fraction)`` for one metric; rules in the module docs."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(a, b):  # does reading a beat reading b?
        return sign * (b - a) > 0

    pairs = list(zip(base, head))
    win_fraction = sum(beats(h, b) for b, h in pairs) / len(pairs)
    loss_fraction = sum(beats(b, h) for b, h in pairs) / len(pairs)
    b1, b_median, b3 = quartiles(base)
    h1, h_median, h3 = quartiles(head)
    scale = abs(b_median) or 1.0
    spread = max((b3 - b1) / scale, (h3 - h1) / (abs(h_median) or 1.0))
    if spread > bound:
        if all(beats(h, b) for h in head for b in base):
            return "better", win_fraction
        if all(beats(b, h) for h in head for b in base):
            return "worse", win_fraction
        return "unresolved", win_fraction
    gain = sign * (b_median - h_median)  # > 0 when the head is better
    resolved = abs(gain) > max(b3 - b1, h3 - h1, scale * bound / 10)
    if -gain / scale > bound or (loss_fraction >= 0.9 and gain < 0 and resolved):
        return "worse", win_fraction
    if win_fraction >= 0.9 and gain > 0 and resolved:
        return "better", win_fraction
    return "same", win_fraction


def digest_mismatches(results: list) -> list:
    """``(workload, seed, digests)`` for every workload and seed with more than one digest."""
    seen: dict = {}
    for result in results:
        for name, workload in result["workloads"].items():
            seen.setdefault((name, result["seed"]), set()).add(workload["digest"])
    return [(name, seed, sorted(d)) for (name, seed), d in sorted(seen.items()) if len(d) > 1]


def compare(base: list, head: list, spec: dict) -> "tuple[list, bool]":
    """Report lines and whether the comparison passed."""
    if len(base) != len(head):
        raise ValueError(f"{len(base)} base files but {len(head)} head files; they pair up")
    for i, (b, h) in enumerate(zip(base, head)):
        if (b["seed"], b["seconds"]) != (h["seed"], h["seconds"]):
            raise ValueError(
                f"pair {i + 1}: base ran seed {b['seed']} for {b['seconds']:g} s, "
                f"head seed {h['seed']} for {h['seconds']:g} s; a pair must run the same inputs"
            )
    trace = {r["trace"] for r in base + head}
    if len(trace) != 1:
        raise ValueError("cannot compare traced results with untraced ones")
    specs = spec["per_layer"] if trace.pop() else spec["end_to_end"]
    lines = [
        f"{'workload':<15} {'metric':<28} {'base median [q1, q3]':>36} "
        f"{'head median [q1, q3]':>36} {'wins':>5}  verdict"
    ]
    passed = True
    workloads = [w for w in base[0]["workloads"] if all(w in r["workloads"] for r in base + head)]
    for name in workloads:
        for metric in specs:
            key = metric["name"]
            b = [r["workloads"][name]["metrics"][key]["value"] for r in base]
            h = [r["workloads"][name]["metrics"][key]["value"] for r in head]
            b1, bm, b3 = quartiles(b)
            h1, hm, h3 = quartiles(h)
            if "bound" in metric:
                outcome, wins = verdict(b, h, metric["bound"], metric["better"])
                wins_text = f"{wins:.2f}"
            else:
                outcome, wins_text = "-", ""
            passed &= outcome != "worse"
            lines.append(
                f"{name:<15} {key:<28} {bm:>14.6g} [{b1:.6g}, {b3:.6g}]".ljust(81)
                + f" {hm:>14.6g} [{h1:.6g}, {h3:.6g}]".ljust(37)
                + f" {wins_text:>5}  {outcome} ({metric['unit']}, {metric['better']} is better)"
            )
    for name, seed, digests in digest_mismatches(base + head):
        passed = False
        lines.append(f"DIGEST MISMATCH {name} seed {seed}: {', '.join(digests)}")
    for name in workloads:
        for side, results in (("base", base), ("head", head)):
            wrong = sum(not r["workloads"][name]["correct"] for r in results)
            if wrong:
                passed = False
                lines.append(f"INCORRECT {name}: {wrong} of the {side} results failed their checks")
        failed = [sum(r["workloads"][name]["failed"] for r in side) for side in (base, head)]
        if failed[1] > failed[0]:
            passed = False
            lines.append(f"MORE FAILURES {name}: head failed {failed[1]} operations, base {failed[0]}")
    return lines, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent commit")
    parser.add_argument("--head", nargs="+", required=True, help="result files of the change")
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    base = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.base]
    head = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.head]
    try:
        lines, passed = compare(base, head, spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
