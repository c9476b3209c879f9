"""Benchmark-regression harness for the optimised hot kernels.

``python -m repro.perf.baseline --write`` times each optimised kernel and
its frozen pre-optimisation reference (:mod:`repro.perf.reference`) at the
full sizes *and* the reduced quick sizes, and records the medians in
``BENCH_core.json``.  A write runs the suite three times and records, for
each kernel and each size, the run with the median speedup, so one noisy
run cannot move the baseline that CI checks against.  ``--check``
re-times the kernels once (``--quick`` uses the reduced sizes for CI) and
fails when a kernel regressed more than ``--threshold`` (default 2x)
against the committed baseline.  Only size-matched entries are compared —
speedups are size-dependent (the reference kernels have worse
complexity), so a quick run is checked against the baseline's quick
section, never against the full sizes:

- the optimised/reference *speedup ratio* is always compared: it is
  machine-independent, so CI catches a de-optimised kernel on any runner.
  Each timing round runs both sides back to back, and the speedup is the
  median of the per-round ratios;
- raw wall-clock (``median_s``) is compared only when the baseline was
  written on the same machine (matching ``meta.node``).

Refresh the committed baseline after intentional kernel changes with::

    PYTHONPATH=src python -m repro.perf.baseline --write

from the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["run_benchmarks", "compare", "main", "DEFAULT_BASELINE", "KERNELS"]

DEFAULT_BASELINE = "BENCH_core.json"

#: Kernel name -> {size-parameter: value} per mode.
SIZES = {
    "average_linkage_construction": {"full": {"k": 500}, "quick": {"k": 160}},
    "average_linkage_merge": {"full": {"k": 120}, "quick": {"k": 44}},
    "mle_sparse": {
        "full": {"n_users": 100, "n_tasks": 1000, "density": 0.2, "n_domains": 8},
        "quick": {"n_users": 60, "n_tasks": 300, "density": 0.2, "n_domains": 8},
    },
    "update_sparse": {
        "full": {"n_users": 100, "n_tasks": 200, "density": 0.06, "n_domains": 8},
        "quick": {"n_users": 50, "n_tasks": 100, "density": 0.06, "n_domains": 8},
    },
    "allocation_greedy": {
        "full": {"n_users": 2000, "n_tasks": 5000, "n_domains": 8, "capacity": 1.0},
        "quick": {"n_users": 300, "n_tasks": 600, "n_domains": 8, "capacity": 1.0},
    },
    "allocation_greedy_day": {
        "full": {"n_users": 100, "n_tasks": 200, "n_domains": 8, "tau": 12.0},
        "quick": {"n_users": 50, "n_tasks": 100, "n_domains": 8, "tau": 12.0},
    },
    "allocation_min_cost": {
        "full": {
            "n_users": 100, "n_tasks": 200, "n_domains": 8, "tau": 12.0, "round_budget": 100.0
        },
        "quick": {
            "n_users": 50, "n_tasks": 100, "n_domains": 8, "tau": 12.0, "round_budget": 50.0
        },
    },
}

KERNELS = tuple(SIZES)


#: Suite runs per ``--write``; each kernel records its median-speedup run.
_WRITE_RUNS = 3

#: Minimum wall-clock per timing round.  Sub-millisecond kernels (the quick
#: sizes) are repeated until a round lasts this long, timeit-style —
#: otherwise timer noise dominates and the regression check turns flaky.
_MIN_ROUND_SECONDS = 0.01


def _repeats(func) -> int:
    """Calls per timing round: one calibration call (which also warms caches)."""
    start = time.perf_counter()
    func()
    single = time.perf_counter() - start
    return min(1000, max(1, math.ceil(_MIN_ROUND_SECONDS / max(single, 1e-9))))


def _paired_timing(optimised, reference, rounds: int) -> dict:
    """Median seconds per call of both callables, and their median speedup.

    Each round times ``optimised`` and then ``reference``, so both sides
    of a round see the same machine load; ``speedup`` is the median of the
    per-round ``reference / optimised`` ratios, which a slow spell on one
    round cannot skew the way a ratio of two separate medians can.
    """
    numbers = _repeats(optimised), _repeats(reference)
    samples: "tuple[list, list]" = ([], [])
    for _ in range(rounds):
        for func, number, times in zip((optimised, reference), numbers, samples):
            start = time.perf_counter()
            for _ in range(number):
                func()
            times.append((time.perf_counter() - start) / number)
    ratios = [ref / opt if opt > 0 else float("inf") for opt, ref in zip(*samples)]
    return {
        "median_s": float(statistics.median(samples[0])),
        "reference_median_s": float(statistics.median(samples[1])),
        "speedup": float(statistics.median(ratios)),
    }


def _bench_average_linkage(size: dict, rounds: int) -> dict:
    from repro.clustering.linkage import AverageLinkage
    from repro.perf.reference import reference_linkage_sums

    k = size["k"]
    rng = np.random.default_rng(1234)
    points = rng.random((k, 3))
    base = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    np.fill_diagonal(base, 0.0)
    groups = [[i] for i in range(k)]

    return _paired_timing(
        lambda: AverageLinkage(base, groups),
        lambda: reference_linkage_sums(base, groups),
        rounds,
    )


def _bench_average_linkage_merge(size: dict, rounds: int) -> dict:
    from repro.clustering.linkage import AverageLinkage
    from repro.perf.reference import reference_merge_until

    # The whole §3.3.1 merge loop down to one cluster; each side builds its
    # own engine (merging consumes it), so both times include one
    # construction.
    k = size["k"]
    rng = np.random.default_rng(4321)
    points = rng.random((k, 3))
    base = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    np.fill_diagonal(base, 0.0)
    groups = [[i] for i in range(k)]

    return _paired_timing(
        lambda: AverageLinkage(base, groups).merge_until(np.inf),
        lambda: reference_merge_until(AverageLinkage(base, groups), np.inf),
        rounds,
    )


def _random_batch(seed: int, size: dict):
    """Seeded observations (every task observed at least once) and task domains."""
    from repro.truthdiscovery.base import ObservationMatrix

    rng = np.random.default_rng(seed)
    n_users, n_tasks = size["n_users"], size["n_tasks"]
    mask = rng.random((n_users, n_tasks)) < size["density"]
    for task in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(n_users), task] = True
    values = np.where(mask, rng.normal(5.0, 2.0, (n_users, n_tasks)), 0.0)
    observations = ObservationMatrix(values=values, mask=mask)
    return rng, observations, rng.integers(0, size["n_domains"], n_tasks)


def _bench_mle_sparse(size: dict, rounds: int) -> dict:
    from repro.core.truth import estimate_truth
    from repro.perf.reference import reference_estimate_truth

    _, observations, domains = _random_batch(5678, size)
    return _paired_timing(
        lambda: estimate_truth(observations, domains),
        lambda: reference_estimate_truth(observations, domains),
        rounds,
    )


def _bench_update_sparse(size: dict, rounds: int) -> dict:
    from repro.core.truth import _SparseObservations
    from repro.perf.reference import reference_denominator_sums

    # One synthetic day's Section 4.2 Eq. 8 sums, layout included on each side.
    rng, observations, domains = _random_batch(91011, size)
    k = size["n_domains"]
    truths, sigmas = rng.normal(5.0, 2.0, domains.size), rng.uniform(0.5, 3.0, domains.size)
    return _paired_timing(
        lambda: _SparseObservations(observations, domains, k).denominator_sums(truths, sigmas),
        lambda: reference_denominator_sums(observations, domains, k, truths, sigmas),
        rounds,
    )


def _bench_allocation_greedy(size: dict, rounds: int) -> dict:
    from repro.core.allocation.base import AllocationProblem

    rng = np.random.default_rng(121314)
    n_users, n_tasks = size["n_users"], size["n_tasks"]
    # Domain-structured expertise (the paper's setting): one strong user per
    # domain is cached-best for every task of that domain, so the eager
    # reference re-evaluates ~n_tasks / n_domains tasks after each pick —
    # exactly the access pattern the lazy kernel exists to avoid.
    domains = rng.integers(0, size["n_domains"], n_tasks)
    user_domain = rng.gamma(2.0, 2.0, (n_users, size["n_domains"]))
    problem = AllocationProblem(
        expertise=user_domain,
        domain_columns=domains,
        processing_times=rng.uniform(0.5, 1.5, n_tasks),
        capacities=np.full(n_users, float(size["capacity"])),
    )
    return _time_greedy(problem, rounds)


def _bench_allocation_greedy_day(size: dict, rounds: int) -> dict:
    from repro.core.allocation.base import AllocationProblem

    rng = np.random.default_rng(151617)
    n_users, n_tasks, tau = size["n_users"], size["n_tasks"], size["tau"]
    # One simulated day in the pipeline's shape (the Section 6.1.3 synthetic
    # recipe): expertise U[0, 3] per domain, t_j ~ U[0.5, 1.5] and
    # capacities U[tau - 4, tau + 4], so every user takes several tasks and
    # each task several users.
    domains = rng.integers(0, size["n_domains"], n_tasks)
    user_domain = rng.uniform(0.0, 3.0, (n_users, size["n_domains"]))
    problem = AllocationProblem(
        expertise=user_domain,
        domain_columns=domains,
        processing_times=rng.uniform(0.5, 1.5, n_tasks),
        capacities=rng.uniform(tau - 4.0, tau + 4.0, n_users),
    )
    return _time_greedy(problem, rounds)


def _bench_allocation_min_cost(size: dict, rounds: int) -> dict:
    from repro.core.allocation.base import AllocationProblem
    from repro.core.allocation.min_cost import MinCostAllocator
    from repro.perf.reference import reference_min_cost_run

    # One Algorithm 2 allocation on a pipeline-shaped day (the
    # allocation_greedy_day recipe) with the default Eq. 5 estimator,
    # against the loop that rebuilds every greedy pass from the running
    # assignment with the frozen eager greedy.  Observations are fixed per
    # pair, so every run recruits the same pairs.
    rng = np.random.default_rng(181920)
    n_users, n_tasks, tau = size["n_users"], size["n_tasks"], size["tau"]
    domains = rng.integers(0, size["n_domains"], n_tasks)
    user_domain = rng.uniform(0.0, 3.0, (n_users, size["n_domains"]))
    problem = AllocationProblem(
        expertise=user_domain,
        domain_columns=domains,
        processing_times=rng.uniform(0.5, 1.5, n_tasks),
        capacities=rng.uniform(tau - 4.0, tau + 4.0, n_users),
    )
    truths = rng.uniform(0.0, 20.0, n_tasks)
    noise = rng.standard_normal((n_users, n_tasks))
    values = truths + noise / np.maximum(user_domain[:, domains], 0.05)

    def observe(pairs):
        return [values[user, task] for user, task in pairs]

    allocator = MinCostAllocator(round_budget=size["round_budget"])
    return _paired_timing(
        lambda: allocator.run(problem, observe),
        lambda: reference_min_cost_run(allocator, problem, observe),
        rounds,
    )


def _time_greedy(problem, rounds: int) -> dict:
    from repro.core.allocation.lazy_greedy import lazy_greedy_allocate
    from repro.perf.reference import reference_greedy_allocate

    # One pass from a fresh start state, as an allocation's first pass
    # runs: the state makes the Eq. 11 accuracy matrix and the pass sorts
    # each domain's users (later passes from the same state reuse both).
    # The frozen reference also makes the accuracy matrix per pass.
    return _paired_timing(
        lambda: lazy_greedy_allocate(problem),
        lambda: reference_greedy_allocate(problem),
        rounds,
    )


_RUNNERS = {
    "average_linkage_construction": _bench_average_linkage,
    "average_linkage_merge": _bench_average_linkage_merge,
    "mle_sparse": _bench_mle_sparse,
    "update_sparse": _bench_update_sparse,
    "allocation_greedy": _bench_allocation_greedy,
    "allocation_greedy_day": _bench_allocation_greedy_day,
    "allocation_min_cost": _bench_allocation_min_cost,
}


def run_benchmarks(quick: bool = False, rounds: "int | None" = None) -> dict:
    """Time every kernel (optimised and reference); returns the record dict."""
    mode = "quick" if quick else "full"
    if rounds is None:
        rounds = 3 if quick else 5
    kernels: dict = {}
    for name in KERNELS:
        size = SIZES[name][mode]
        timing = _RUNNERS[name](size, rounds)
        kernels[name] = {"size": size, "rounds": rounds, **timing}
    return {
        "meta": {
            "command": "PYTHONPATH=src python -m repro.perf.baseline "
            + ("--write --quick" if quick else "--write"),
            "mode": mode,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "node": platform.node(),
        },
        "kernels": kernels,
    }


def _median_record(quick: bool, rounds: "int | None") -> dict:
    """``_WRITE_RUNS`` suite runs in one record: each kernel's entry is the
    run with its median ``speedup``."""
    records = [run_benchmarks(quick=quick, rounds=rounds) for _ in range(_WRITE_RUNS)]
    record = records[0]
    for name in record["kernels"]:
        runs = sorted((run["kernels"][name] for run in records), key=lambda entry: entry["speedup"])
        record["kernels"][name] = runs[len(runs) // 2]
    return record


def compare(current: dict, baseline: dict, threshold: float = 2.0) -> list:
    """Regressions of ``current`` against ``baseline`` (empty = pass).

    Each current kernel is matched against the baseline entry (full or
    quick section) recorded at the *same size*; speedups grow with size
    because the reference kernels have worse complexity, so cross-size
    comparison would false-fail.  The speedup ratio is always checked
    (machine-independent); raw medians only when ``meta.node`` matches.
    Kernels with no size-matched baseline entry are ignored: a new kernel
    or size has nothing to regress against.
    """
    failures = []
    same_node = current.get("meta", {}).get("node") == baseline.get("meta", {}).get("node")
    pools = (baseline.get("kernels", {}), baseline.get("quick_kernels", {}))
    for name, now in current.get("kernels", {}).items():
        base = next(
            (
                pool[name]
                for pool in pools
                if name in pool and pool[name].get("size") == now.get("size")
            ),
            None,
        )
        if base is None:
            continue
        ratio = base["speedup"] / max(now["speedup"], 1e-12)
        if ratio > threshold:
            failures.append(
                f"{name}: speedup fell to {now['speedup']:.2f}x vs baseline "
                f"{base['speedup']:.2f}x ({ratio:.2f}x worse, limit {threshold:.1f}x)"
            )
        if same_node:
            ratio = now["median_s"] / max(base["median_s"], 1e-12)
            if ratio > threshold:
                failures.append(
                    f"{name}: {now['median_s']:.4f}s vs baseline "
                    f"{base['median_s']:.4f}s ({ratio:.2f}x slower, limit {threshold:.1f}x)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.baseline",
        description="Record or check the optimised-kernel benchmark baseline.",
    )
    parser.add_argument("--write", action="store_true", help="write the record to --path")
    parser.add_argument(
        "--check", action="store_true", help="compare a fresh run against --path; exit 1 on regression"
    )
    parser.add_argument("--quick", action="store_true", help="reduced sizes (CI mode)")
    parser.add_argument("--rounds", type=int, default=None, help="timing rounds per kernel")
    parser.add_argument("--path", default=DEFAULT_BASELINE, help="baseline file (default BENCH_core.json)")
    parser.add_argument("--out", default=None, help="also write the fresh record here")
    parser.add_argument("--threshold", type=float, default=2.0, help="regression factor (default 2x)")
    args = parser.parse_args(argv)
    if not (args.write or args.check):
        parser.error("pass --write and/or --check")
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")

    if args.write:
        record = _median_record(args.quick, args.rounds)
    else:
        record = run_benchmarks(quick=args.quick, rounds=args.rounds)
    for name, kernel in record["kernels"].items():
        print(
            f"{name}: optimised {kernel['median_s']:.4f}s, "
            f"reference {kernel['reference_median_s']:.4f}s, "
            f"speedup {kernel['speedup']:.2f}x"
        )
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {out}")
    if args.write:
        if not args.quick:
            # A full-size baseline also records the quick sizes, so CI's
            # --check --quick has size-matched entries to compare against.
            quick_record = _median_record(True, args.rounds)
            record["quick_kernels"] = quick_record["kernels"]
            for name, kernel in quick_record["kernels"].items():
                print(f"{name} (quick): speedup {kernel['speedup']:.2f}x")
        Path(args.path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"baseline written to {args.path}")
    if args.check:
        baseline_path = Path(args.path)
        if not baseline_path.exists():
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            return 2
        failures = compare(record, json.loads(baseline_path.read_text()), threshold=args.threshold)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"no regressions against {baseline_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
