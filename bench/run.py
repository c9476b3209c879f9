"""End-to-end ETA2 benchmark: four workloads, every metric by name and unit.

    python3 bench/run.py --seed 2017                        # all four workloads
    python3 bench/run.py --seed 2017 --out base-1.json      # keep results for compare.py
    python3 bench/run.py --workload serve-ingest --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --seed 2017 --trace 1 --spans spans.jsonl

Each workload runs in its own child process, one after another, with
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1.  ``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json,
measured with no tracing; ``est_error`` and ``recruit_cost`` come from an
accuracy panel whose inputs are the same for every seed, so they are exact
regression guards.  ``--trace 1`` is a separate run: each workload
is measured untraced, then again with spans recorded around every layer's
entry points, and the ``per_layer`` metrics are reported (``--spans``
also writes the spans as JSONL).

The last line of standard output is one JSON object.  The exit status is
1 when a correctness check fails and 2 when a workload cannot run (for
example when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: A workload child that runs longer than this is killed.
CHILD_TIMEOUT_S = 170.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="timed seconds per run (default: run_seconds); a run times at least "
        "20 simulated inputs or 100 served days, however short",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="with --trace 1, append spans here as JSONL")
    parser.add_argument("--out", default=None, help="also write the full results as JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        return _child(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else known
    seconds = float(spec["run_seconds"] if args.seconds is None else args.seconds)
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    if args.spans is not None:
        Path(args.spans).write_text("", encoding="utf-8")

    results = {}
    for name in names:
        print(f"workload {name} (seed {args.seed}, {seconds:g} s, trace {args.trace})", flush=True)
        result = _spawn(name, args, seconds)
        if result is None:
            return 2
        if set(result["metrics"]) != {m["name"] for m in metric_specs}:
            print(f"error: {name} reported metrics that differ from BENCHMARK.json", file=sys.stderr)
            return 2
        result["metrics"] = {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in metric_specs
        }
        for metric, reading in result["metrics"].items():
            print(f"  {metric:<28} {reading['value']:>16.6f} {reading['unit']}")
        print(f"  digest {result['digest']}")
        print(f"  correct {str(result['correct']).lower()}", flush=True)
        results[name] = result

    combined = {"seed": args.seed, "seconds": seconds, "trace": args.trace, "workloads": results}
    if args.out is not None:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    if args.workload is not None:
        only = results[args.workload]
        print(json.dumps({key: only[key] for key in ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps(combined))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _spawn(name: str, args, seconds: float) -> "dict | None":
    """Run one workload in a single-threaded child; its last line is JSON."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
    ]
    if args.spans is not None:
        command += ["--spans", str(Path(args.spans).resolve())]
    env = dict(os.environ, **THREAD_ENV)
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} exceeded {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
        return None
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stdout)
        print(f"error: workload {name} exited with status {child.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _child(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads  # imports the program; counted in set-up time

    startup = time.monotonic() - args.spawned_at
    outcome = workloads.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        workdir=ROOT / ".bench_work",
        startup=startup,
        spans_path=args.spans,
    )
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass  # still in use or already gone
    for line in outcome.lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
                "digest": outcome.digest,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
