"""Command-line interface: reproduce figures and run simulations.

Examples::

    python -m repro list
    python -m repro figure fig5 --dataset survey --replications 5
    python -m repro figure table1
    python -m repro simulate --dataset sfv --approach eta2 --days 5 --seed 7
    python -m repro simulate --dataset synthetic --approach eta2-mc --round-budget 40
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments import (
    ExperimentConfig,
    fig2_error_distribution,
    fig4_parameter_sweep,
    fig5_error_over_days,
    fig6_capability_sweep,
    fig7_expertise_vs_error,
    fig8_bias_robustness,
    fig9_fig10_mincost_comparison,
    fig11_expertise_accuracy,
    fig12_convergence_cdf,
    table1_normality,
    table2_allocation_audit,
)
from repro.experiments.config import DATASET_NAMES, dataset_factory
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach, MeanApproach, ReliabilityApproach
from repro.truthdiscovery import AverageLog, HubsAuthorities, TruthFinder

__all__ = ["main", "build_parser"]

#: Figure id -> (runner, needs_dataset_argument, description).  Runners take
#: (config, dataset, jobs, supervisor); only the embarrassingly-parallel
#: sweep figures (4, 5, 6) fan out across --jobs worker processes and honour
#: the supervised-execution flags (--retry/--job-timeout/--journal/...).
FIGURES = {
    "fig2": (lambda cfg, ds, jobs, sup: fig2_error_distribution(cfg), False, "observation-error distribution vs N(0,1)"),
    "table1": (lambda cfg, ds, jobs, sup: table1_normality(cfg), False, "chi-square normality non-rejection rates"),
    "fig4": (lambda cfg, ds, jobs, sup: fig4_parameter_sweep(ds or "survey", cfg, jobs=jobs, supervisor=sup), True, "(alpha, gamma) parameter sweep"),
    "fig5": (lambda cfg, ds, jobs, sup: fig5_error_over_days(ds or "survey", cfg, jobs=jobs, supervisor=sup), True, "estimation error by day, all approaches"),
    "fig6": (lambda cfg, ds, jobs, sup: fig6_capability_sweep(ds or "survey", cfg, jobs=jobs, supervisor=sup), True, "error vs processing capability"),
    "fig7": (lambda cfg, ds, jobs, sup: fig7_expertise_vs_error(cfg, dataset_name=ds or "sfv"), True, "observation error vs user expertise"),
    "fig8": (lambda cfg, ds, jobs, sup: fig8_bias_robustness(cfg), False, "robustness to non-normal observations"),
    "fig9-10": (
        lambda cfg, ds, jobs, sup: fig9_fig10_mincost_comparison(ds or "synthetic", cfg),
        True,
        "ETA2 vs ETA2-mc: error and cost vs tau",
    ),
    "fig11": (lambda cfg, ds, jobs, sup: fig11_expertise_accuracy(cfg), False, "expertise estimation accuracy"),
    "fig12": (lambda cfg, ds, jobs, sup: fig12_convergence_cdf(cfg), False, "CDF of MLE convergence iterations"),
    "table2": (lambda cfg, ds, jobs, sup: table2_allocation_audit(cfg), False, "users-per-task allocation audit"),
}

#: Figure ids that execute through run_jobs and honour supervised execution.
SWEEP_FIGURES = ("fig4", "fig5", "fig6")

APPROACHES = {
    "eta2": lambda args: ETA2Approach(
        gamma=args.gamma,
        alpha=args.alpha,
        exploration_rate=args.exploration,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_keep=args.checkpoint_keep,
        resume=args.resume,
        reputation=_build_reputation(args),
        guards=args.guards,
    ),
    "eta2-mc": lambda args: ETA2Approach(
        gamma=args.gamma,
        alpha=args.alpha,
        allocator="min-cost",
        min_cost_round_budget=args.round_budget,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_keep=args.checkpoint_keep,
        resume=args.resume,
        reputation=_build_reputation(args),
        guards=args.guards,
    ),
    "hubs-authorities": lambda args: ReliabilityApproach(HubsAuthorities()),
    "average-log": lambda args: ReliabilityApproach(AverageLog()),
    "truthfinder": lambda args: ReliabilityApproach(TruthFinder()),
    "mean": lambda args: MeanApproach(),
}


def _rate(text: str) -> float:
    """Argparse type: a float in [0, 1] (fault rates, fractions)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a rate in [0, 1], got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: a strictly positive float (thresholds)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer (day counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ETA2 (ICDCS 2017) reproduction: figures and simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures/tables")

    figure = sub.add_parser("figure", help="regenerate one paper figure/table")
    figure.add_argument("figure_id", choices=sorted(FIGURES))
    figure.add_argument("--dataset", choices=DATASET_NAMES, default=None)
    figure.add_argument("--replications", type=int, default=3)
    figure.add_argument("--seed", type=int, default=2017)
    figure.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the sweep figures (fig4/5/6); "
        "-1 = one per CPU; results are identical to the serial run",
    )
    supervised = figure.add_argument_group(
        "supervised execution",
        "crash-tolerant sweeps (fig4/5/6): retries, per-job deadlines, and a "
        "resumable journal (repro.reliability.supervisor)",
    )
    supervised.add_argument(
        "--retry",
        type=_positive_int,
        default=None,
        help="max attempts per sweep job before it is dead-lettered (default 3)",
    )
    supervised.add_argument(
        "--job-timeout",
        type=_positive_float,
        default=None,
        dest="job_timeout",
        help="per-job deadline in seconds, enforced inside workers",
    )
    supervised.add_argument(
        "--journal",
        default=None,
        help="append a JSONL run journal here (one record per job outcome)",
    )
    supervised.add_argument(
        "--resume-journal",
        default=None,
        dest="resume_journal",
        help="skip jobs already completed in this journal from a prior run "
        "(implies --journal at the same path unless one is given)",
    )

    simulate = sub.add_parser("simulate", help="run one simulation and print per-day results")
    simulate.add_argument("--dataset", choices=DATASET_NAMES, default="synthetic")
    simulate.add_argument("--approach", choices=sorted(APPROACHES), default="eta2")
    simulate.add_argument("--days", type=int, default=5)
    simulate.add_argument("--tau", type=float, default=12.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--gamma", type=float, default=0.3)
    simulate.add_argument("--alpha", type=float, default=0.5)
    simulate.add_argument("--exploration", type=float, default=0.0)
    simulate.add_argument("--round-budget", type=float, default=100.0, dest="round_budget")
    simulate.add_argument("--drift", type=float, default=0.0, help="per-day expertise drift std")
    simulate.add_argument("--bias", type=float, default=0.0, help="non-normal observation fraction")
    telemetry = simulate.add_argument_group(
        "telemetry", "structured tracing and metrics export (repro.observability)"
    )
    telemetry.add_argument(
        "--trace-out",
        default=None,
        dest="trace_out",
        help="write a JSONL event trace of the run here (enables tracing)",
    )
    telemetry.add_argument(
        "--metrics-out",
        default=None,
        dest="metrics_out",
        help="write a metrics export here after the run "
        "(.json = JSON dump, anything else = Prometheus text)",
    )
    reliability = simulate.add_argument_group(
        "reliability", "crash-safe checkpointing and deterministic fault injection"
    )
    reliability.add_argument(
        "--checkpoint-dir",
        default=None,
        dest="checkpoint_dir",
        help="checkpoint the ETA2 system state here after every day (eta2/eta2-mc only)",
    )
    reliability.add_argument(
        "--checkpoint-keep",
        type=int,
        default=3,
        dest="checkpoint_keep",
        help="number of rotated checkpoints to retain (default 3)",
    )
    reliability.add_argument(
        "--resume",
        action="store_true",
        help="restore the newest valid checkpoint from --checkpoint-dir before running",
    )
    reliability.add_argument(
        "--fault-exceptions", type=_rate, default=0.0, help="injected per-call transport exception rate"
    )
    reliability.add_argument(
        "--fault-timeouts", type=_rate, default=0.0, help="injected per-call transport timeout rate"
    )
    reliability.add_argument(
        "--fault-drops", type=_rate, default=0.0, help="injected per-pair dropped-response rate"
    )
    reliability.add_argument(
        "--fault-nan", type=_rate, default=0.0, help="injected per-pair NaN-payload rate"
    )
    reliability.add_argument(
        "--fault-outliers", type=_rate, default=0.0, help="injected per-pair gross-outlier rate"
    )
    robustness = simulate.add_argument_group(
        "robustness", "Byzantine hardening: adversaries, reputation, guards"
    )
    robustness.add_argument(
        "--adversaries", type=_rate, default=0.0, help="fraction of users given adversarial behaviour"
    )
    robustness.add_argument(
        "--adversary-kind",
        choices=("constant", "random", "biased", "colluding"),
        default="colluding",
        dest="adversary_kind",
        help="adversary behaviour model (default: colluding)",
    )
    robustness.add_argument(
        "--guards",
        choices=("warn", "raise", "repair"),
        default=None,
        help="runtime invariant guards at phase boundaries (eta2/eta2-mc only)",
    )
    robustness.add_argument(
        "--reputation",
        action="store_true",
        help="enable cross-day reputation tracking and quarantine (eta2/eta2-mc only)",
    )
    robustness.add_argument(
        "--reputation-bias-threshold",
        type=_positive_float,
        default=None,
        dest="reputation_bias_threshold",
        help="bias t-score quarantine threshold (default: ReputationConfig default)",
    )
    robustness.add_argument(
        "--reputation-variance-threshold",
        type=_positive_float,
        default=None,
        dest="reputation_variance_threshold",
        help="variance-score quarantine threshold",
    )
    robustness.add_argument(
        "--reputation-consistency-threshold",
        type=_positive_float,
        default=None,
        dest="reputation_consistency_threshold",
        help="consistency-score quarantine threshold",
    )
    robustness.add_argument(
        "--reputation-duplicate-threshold",
        type=_rate,
        default=None,
        dest="reputation_duplicate_threshold",
        help="duplicate-fraction quarantine threshold (a rate in (0, 1])",
    )
    robustness.add_argument(
        "--reputation-min-observations",
        type=_positive_float,
        default=None,
        dest="reputation_min_observations",
        help="decayed observation count below which no score is evaluated",
    )
    robustness.add_argument(
        "--reputation-probation-days",
        type=_positive_int,
        default=None,
        dest="reputation_probation_days",
        help="days a quarantined user sits out before probation",
    )

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe streaming ingestion service over generated traffic",
    )
    serve.add_argument(
        "--wal-dir",
        required=True,
        dest="wal_dir",
        help="write-ahead-log directory (checkpoints live in <wal-dir>/checkpoints)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="recover sealed/unsealed days from an existing WAL before serving",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=256,
        dest="max_queue",
        help="bound on batches queued for the open day (default 256)",
    )
    serve.add_argument(
        "--shed-policy",
        choices=("reputation", "tail"),
        default="reputation",
        dest="shed_policy",
        help="load-shedding order above the high watermark (default: reputation)",
    )
    serve.add_argument(
        "--high-watermark", type=_positive_int, default=None, dest="high_watermark"
    )
    serve.add_argument(
        "--low-watermark", type=int, default=None, dest="low_watermark"
    )
    serve.add_argument(
        "--rate-limit",
        type=_positive_float,
        default=None,
        dest="rate_limit",
        help="per-submitter token-bucket refill rate (batches/second)",
    )
    serve.add_argument(
        "--sync",
        choices=("always", "commit", "none"),
        default="commit",
        help="WAL fsync policy (default: commit — group commit at day seals)",
    )
    traffic = serve.add_argument_group(
        "traffic", "deterministic generated traffic driven through the service"
    )
    traffic.add_argument("--days", type=_positive_int, default=3)
    traffic.add_argument("--users", type=_positive_int, default=20)
    traffic.add_argument("--tasks", type=_positive_int, default=60)
    traffic.add_argument(
        "--reporters", type=_positive_int, default=3, help="reporting users per task"
    )
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--gamma", type=float, default=0.3)
    traffic.add_argument("--alpha", type=float, default=0.5)
    traffic.add_argument(
        "--fault-drops", type=_rate, default=0.0, help="injected dropped-report rate"
    )
    traffic.add_argument(
        "--fault-nan", type=_rate, default=0.0, help="injected NaN-payload rate"
    )
    traffic.add_argument(
        "--fault-outliers", type=_rate, default=0.0, help="injected gross-outlier rate"
    )
    drill = serve.add_argument_group(
        "crash drill", "kill the process at chosen WAL offsets (exit code 3)"
    )
    drill.add_argument(
        "--kill-at",
        default=None,
        dest="kill_at",
        help="comma-separated absolute WAL sequence numbers to crash after",
    )
    serve_telemetry = serve.add_argument_group("telemetry")
    serve_telemetry.add_argument("--trace-out", default=None, dest="trace_out")
    serve_telemetry.add_argument("--metrics-out", default=None, dest="metrics_out")
    serve_telemetry.add_argument(
        "--slos",
        default=None,
        metavar="SPEC",
        help="enable live SLO monitoring: 'default' for the stock serving "
        "SLOs or the path of a spec file (requires --metrics-out)",
    )

    trace = sub.add_parser("trace", help="inspect and analyze JSONL run traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="render a per-day timeline from a JSONL trace"
    )
    summarize.add_argument("trace_path", help="path of a --trace-out JSONL file")

    query = trace_sub.add_parser(
        "query", help="filter/project/aggregate trace events (streaming)"
    )
    query.add_argument("trace_path", help="path of a --trace-out JSONL file")
    query.add_argument(
        "--type",
        action="append",
        default=[],
        dest="types",
        help="event-type prefix filter, repeatable ('mle.' matches all MLE events)",
    )
    query.add_argument(
        "--day",
        action="append",
        type=int,
        default=[],
        dest="days",
        help="restrict to these day indices (repeatable)",
    )
    query.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="field equality filter, repeatable (e.g. data.phase=truth)",
    )
    query.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="PATH",
        help="project each row to these field paths (default: whole record)",
    )
    query.add_argument(
        "--aggregate",
        choices=("count", "sum", "mean", "min", "max", "quantile"),
        default=None,
        help="fold matching events instead of listing them",
    )
    query.add_argument(
        "--field", default=None, help="field path to aggregate (data.delta, ts, ...)"
    )
    query.add_argument(
        "--q", type=float, default=None, help="quantile in (0,1) for --aggregate quantile"
    )
    query.add_argument(
        "--group-by", default=None, dest="group_by", help="group aggregation by this field"
    )
    query.add_argument("--limit", type=int, default=None, help="stop after N rows")

    profile = trace_sub.add_parser(
        "profile", help="hierarchical span profile (flamegraph-exportable)"
    )
    profile.add_argument("trace_path", help="path of a --trace-out JSONL file")
    profile.add_argument(
        "--per-day",
        action="store_true",
        dest="per_day",
        help="keep each day as its own subtree instead of merging",
    )
    profile.add_argument(
        "--weight",
        choices=("auto", "time", "events"),
        default="auto",
        help="frame weight: wall time when the trace carries it, else event counts",
    )
    profile.add_argument(
        "--collapsed",
        action="store_true",
        help="emit collapsed stacks ('stack;frame count') for flamegraph tools",
    )
    profile.add_argument(
        "--json", action="store_true", help="emit the profile tree as JSON"
    )

    digest = trace_sub.add_parser(
        "digest", help="fold a trace into its committable comparison digest"
    )
    digest.add_argument("trace_path", help="path of a --trace-out JSONL file")
    digest.add_argument(
        "--out", default=None, help="write the digest JSON here instead of stdout"
    )

    diff = trace_sub.add_parser(
        "diff",
        help="compare two runs (trace/digest or metrics export); exits 1 on drift",
    )
    diff.add_argument("path_a", help="trace .jsonl, digest .json, or metrics .json")
    diff.add_argument("path_b", help="the other side (same kind)")
    diff.add_argument(
        "--max-count-ratio",
        type=float,
        default=0.0,
        dest="max_count_ratio",
        help="allowed relative drift in event counts (default 0: exact)",
    )
    diff.add_argument(
        "--max-count-abs",
        type=float,
        default=0.0,
        dest="max_count_abs",
        help="allowed absolute drift in event counts",
    )
    diff.add_argument(
        "--max-iteration-ratio",
        type=float,
        default=0.0,
        dest="max_iteration_ratio",
        help="allowed relative drift in per-day MLE iteration counts",
    )
    diff.add_argument(
        "--max-metric-ratio",
        type=float,
        default=0.0,
        dest="max_metric_ratio",
        help="allowed relative drift in numeric outcomes (errors, costs, samples)",
    )
    diff.add_argument(
        "--max-metric-abs",
        type=float,
        default=0.0,
        dest="max_metric_abs",
        help="allowed absolute drift in numeric outcomes",
    )
    diff.add_argument(
        "--max-phase-time-ratio",
        type=float,
        default=None,
        dest="max_phase_time_ratio",
        help="also compare cumulative phase seconds under this relative budget "
        "(default: wall time is ignored)",
    )
    diff.add_argument("--json", action="store_true", help="emit the verdict as JSON")

    slo = trace_sub.add_parser(
        "slo", help="grade SLO rules against a trace or a metrics export"
    )
    slo.add_argument(
        "source",
        help="trace .jsonl, metrics .json, or Prometheus .prom/.txt export",
    )
    slo.add_argument(
        "--spec",
        default=None,
        help="SLO spec file (default: the stock serving SLOs)",
    )
    slo.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any SLO is breached (report-only otherwise)",
    )
    slo.add_argument("--json", action="store_true", help="emit statuses as JSON")

    report = sub.add_parser("report", help="run every experiment and write a Markdown report")
    report.add_argument("--out", default=None, help="output path (default: stdout)")
    report.add_argument("--replications", type=int, default=3)
    report.add_argument("--seed", type=int, default=2017)
    report.add_argument(
        "--sections",
        nargs="*",
        default=None,
        help="subset of report sections (default: all; see repro.experiments.report)",
    )
    return parser


def _run_list() -> int:
    print("reproducible figures/tables (run with: repro figure <id>):")
    for figure_id in sorted(FIGURES):
        _, needs_dataset, description = FIGURES[figure_id]
        suffix = "  [--dataset]" if needs_dataset else ""
        print(f"  {figure_id:<8} {description}{suffix}")
    return 0


def _build_supervisor(args: argparse.Namespace):
    """SupervisorConfig (or None) from the figure subcommand's flags."""
    if (
        args.retry is None
        and args.job_timeout is None
        and args.journal is None
        and args.resume_journal is None
    ):
        return None
    from repro.reliability.retry import RetryPolicy
    from repro.reliability.supervisor import SupervisorConfig

    journal = args.journal
    if journal is None and args.resume_journal is not None:
        journal = args.resume_journal  # keep appending to the resumed journal
    return SupervisorConfig(
        retry=RetryPolicy(max_attempts=args.retry if args.retry is not None else 3),
        job_timeout=args.job_timeout,
        journal=journal,
        resume_journal=args.resume_journal,
    )


def _run_figure(args: argparse.Namespace) -> int:
    runner, _, _ = FIGURES[args.figure_id]
    config = ExperimentConfig(replications=args.replications, seed=args.seed)
    supervisor = _build_supervisor(args)
    if args.jobs is not None and args.figure_id not in SWEEP_FIGURES:
        print(
            f"note: --jobs is ignored for {args.figure_id} "
            f"(parallel runs apply to {', '.join(SWEEP_FIGURES)})"
        )
    if supervisor is not None and args.figure_id not in SWEEP_FIGURES:
        print(
            f"note: --retry/--job-timeout/--journal are ignored for "
            f"{args.figure_id} (supervision applies to {', '.join(SWEEP_FIGURES)})"
        )
        supervisor = None
    result = runner(config, args.dataset, args.jobs, supervisor)
    print(result.render())
    if supervisor is not None and supervisor.journal is not None:
        from repro.reliability.supervisor import read_journal

        records = read_journal(supervisor.journal)
        completed = sum(1 for r in records if r.get("type") == "job.complete")
        dead = sum(1 for r in records if r.get("type") == "job.dead_letter")
        retries = sum(1 for r in records if r.get("type") == "job.retry")
        line = f"journal: {supervisor.journal} — {completed} completed, {retries} retries"
        if dead:
            line += f", {dead} DEAD-LETTERED"
        print(line)
    return 0


def _build_fault_profile(args: argparse.Namespace):
    rates = (
        args.fault_exceptions,
        args.fault_timeouts,
        args.fault_drops,
        args.fault_nan,
        args.fault_outliers,
    )
    if not any(rate > 0.0 for rate in rates):
        return None
    from repro.reliability.faults import FaultProfile

    return FaultProfile(
        exception_rate=args.fault_exceptions,
        timeout_rate=args.fault_timeouts,
        drop_rate=args.fault_drops,
        nan_rate=args.fault_nan,
        outlier_rate=args.fault_outliers,
    )


def _build_reputation(args: argparse.Namespace):
    """True/False/ReputationConfig for ETA2Approach from the CLI flags."""
    overrides = {
        "bias_threshold": args.reputation_bias_threshold,
        "variance_threshold": args.reputation_variance_threshold,
        "consistency_threshold": args.reputation_consistency_threshold,
        "duplicate_threshold": args.reputation_duplicate_threshold,
        "min_observations": args.reputation_min_observations,
        "probation_days": args.reputation_probation_days,
    }
    overrides = {name: value for name, value in overrides.items() if value is not None}
    if not args.reputation:
        if overrides:
            raise ValueError("--reputation-* thresholds require --reputation")
        return False
    if not overrides:
        return True  # let the system default the tracker (alpha follows the updater)
    from repro.reliability.reputation import ReputationConfig

    return ReputationConfig(alpha=args.alpha, **overrides)


def _run_simulate(args: argparse.Namespace) -> int:
    if args.checkpoint_dir is not None and args.approach not in ("eta2", "eta2-mc"):
        print(f"note: --checkpoint-dir is ignored for approach {args.approach!r}")
    if args.approach not in ("eta2", "eta2-mc") and (args.reputation or args.guards is not None):
        print(f"note: --reputation/--guards are ignored for approach {args.approach!r}")
    config = ExperimentConfig(replications=1, n_days=args.days, tau=args.tau, seed=args.seed)
    dataset = dataset_factory(args.dataset, config, seed=args.seed)
    try:
        approach = APPROACHES[args.approach](args)
        sim_config = SimulationConfig(
            n_days=args.days,
            seed=args.seed,
            drift_rate=args.drift,
            bias_fraction=args.bias,
            adversary_fraction=args.adversaries,
            adversary_kind=args.adversary_kind,
            faults=_build_fault_profile(args),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    telemetry = None
    if args.trace_out is not None or args.metrics_out is not None:
        from repro.observability import Telemetry

        telemetry = Telemetry.create(
            trace_path=args.trace_out,
            metrics_path=args.metrics_out,
            config=sim_config,
            seed=args.seed,
            start_day=sim_config.start_day,
        )
    elif args.checkpoint_dir is not None and args.approach in ("eta2", "eta2-mc"):
        # No tracing requested, but checkpoints should still carry the run
        # manifest so a later --resume can detect config drift.  A
        # manifest-only bundle keeps the tracer on the NULL_TRACER path.
        from repro.observability import Telemetry, run_manifest

        telemetry = Telemetry(
            manifest=run_manifest(
                config=sim_config, seed=args.seed, start_day=sim_config.start_day
            )
        )
    result = run_simulation(dataset, approach, sim_config, telemetry=telemetry)
    if telemetry is not None:
        telemetry.finalize(
            fault_counts=result.fault_counts or {},
            mean_error=float(result.mean_estimation_error),
            total_cost=float(result.total_cost),
        )
        if args.trace_out is not None:
            print(f"trace: {telemetry.tracer.event_count} events written to {args.trace_out}")
        if args.metrics_out is not None:
            print(f"metrics: written to {args.metrics_out}")
    print(f"{result.approach_name} on {result.dataset_name} "
          f"({dataset.n_users} users, {dataset.n_tasks} tasks, tau={args.tau:g})")
    print(f"{'day':>4}  {'error':>8}  {'cost':>8}  {'pairs':>6}  {'coverage':>8}")
    for day in result.days:
        print(
            f"{day.day + 1:>4}  {day.estimation_error:8.4f}  {day.allocation_cost:8.1f}"
            f"  {day.pair_count:6d}  {day.observed_task_fraction:8.2f}"
        )
    print(f"mean error {result.mean_estimation_error:.4f}   total cost {result.total_cost:.1f}")
    if result.fault_counts is not None:
        injected = ", ".join(f"{kind}={count}" for kind, count in result.fault_counts.items() if count)
        print(f"injected faults: {injected or 'none'}")
        print(f"collection: {result.observer_report.summary()}")
        print(f"quarantine: {result.sanitize_report.summary()}")
    if args.adversaries > 0.0:
        print(f"adversaries ({args.adversary_kind}): users {sorted(result.adversary_users)}")
    if args.reputation and args.approach in ("eta2", "eta2-mc"):
        print(
            f"reputation: quarantined {sorted(result.final_quarantined)}"
            f"  probation {sorted(result.final_probation)}"
            f"  ever-quarantined {sorted(result.ever_quarantined)}"
        )
    if args.checkpoint_dir is not None and args.approach in ("eta2", "eta2-mc"):
        manager = approach._system.checkpoint_manager
        print(f"checkpoints: {len(manager.checkpoints())} retained in {manager.directory}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.core.pipeline import ETA2System
    from repro.reliability.faults import FaultProfile, SimulatedCrash
    from repro.reliability.sanitize import IngestSchema
    from repro.serve import IngestionService, drive_trace, kill_hook
    from repro.simulation.engine import generate_traffic

    faults = FaultProfile(
        drop_rate=args.fault_drops,
        nan_rate=args.fault_nan,
        outlier_rate=args.fault_outliers,
    )
    trace = generate_traffic(
        n_users=args.users,
        n_tasks=args.tasks,
        n_days=args.days,
        reporters_per_task=args.reporters,
        faults=faults,
        seed=args.seed,
    )
    telemetry = None
    if args.trace_out is not None or args.metrics_out is not None:
        from repro.observability import Telemetry

        telemetry = Telemetry.create(
            trace_path=args.trace_out,
            metrics_path=args.metrics_out,
            seed=args.seed,
        )
    slo_rules = None
    if args.slos is not None:
        from repro.observability.analyze import default_serving_slos, load_slo_spec

        if telemetry is None:
            print("error: --slos needs --metrics-out or --trace-out", file=sys.stderr)
            return 2
        try:
            slo_rules = (
                default_serving_slos() if args.slos == "default"
                else load_slo_spec(args.slos)
            )
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    system = ETA2System(
        n_users=trace.n_users,
        capacities=trace.capacities,
        gamma=args.gamma,
        alpha=args.alpha,
        seed=args.seed,
    )
    schema = IngestSchema(
        n_users=trace.n_users,
        n_tasks=max(len(day.tasks) for day in trace.days),
        min_day=0,
        max_day=trace.days[-1].day,
    )
    kill_seqs = None
    if args.kill_at:
        try:
            kill_seqs = [int(part) for part in args.kill_at.replace(",", " ").split()]
        except ValueError:
            print(f"error: --kill-at expects integers, got {args.kill_at!r}", file=sys.stderr)
            return 2
    try:
        service = IngestionService(
            system,
            args.wal_dir,
            resume=args.resume,
            max_queue=args.max_queue,
            high_watermark=args.high_watermark,
            low_watermark=args.low_watermark,
            shed_policy=args.shed_policy,
            rate_limit=args.rate_limit,
            schema=schema,
            sync=args.sync,
            wal_fault_hook=kill_hook(kill_seqs) if kill_seqs else None,
            manifest=telemetry.manifest if telemetry is not None else None,
            tracer=telemetry.tracer if telemetry is not None else None,
            metrics=telemetry.metrics if telemetry is not None else None,
            slos=slo_rules,
        )
    except Exception as error:  # noqa: BLE001 — ServiceError/WALError/OSError alike
        print(f"error: {error}", file=sys.stderr)
        return 2
    service.install_signal_handlers()
    crashed = False
    try:
        results = drive_trace(service, trace)
    except SimulatedCrash as crash:
        crashed = True
        print(f"crash: {crash}")
        print("restart with --resume to recover the WAL")
    if telemetry is not None:
        telemetry.finalize(
            applied_days=service.applied_days,
            health=service.health,
            crashed=crashed,
        )
    if crashed:
        return 3
    service.close()
    accepted = ""
    if service.metrics is not None:
        count = int(
            service.metrics.counter("repro_serve_batches_total").value(outcome="accepted")
        )
        accepted = f"{count} batches accepted, "
    print(
        f"served {service.applied_days}/{len(trace.days)} days "
        f"({accepted}{len(results)} applied this run)"
    )
    print(f"health: {service.health}   wal records: {service.wal.next_seq}")
    print(f"state fingerprint: {service.state_fingerprint()}")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """Dispatch ``repro trace <subcommand>`` behind one error boundary.

    Every subcommand streams to stdout, so all of them share the same
    two exits: a closed pipe (``| head``) ends the command successfully
    with the interpreter's stderr epilogue suppressed, and unreadable
    input (missing file, corrupt interior line, malformed spec) reports
    on stderr with exit code 2.  ``BrokenPipeError`` must be caught
    before ``OSError`` — it is a subclass.
    """
    handlers = {
        "summarize": _trace_summarize,
        "query": _trace_query,
        "profile": _trace_profile,
        "digest": _trace_digest,
        "diff": _trace_diff,
        "slo": _trace_slo,
    }
    try:
        return handlers[args.trace_command](args)
    except BrokenPipeError:  # output piped to head/less and closed early
        sys.stderr.close()  # suppress the interpreter's epilogue warning
        return 0
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _trace_summarize(args: argparse.Namespace) -> int:
    from repro.observability import read_trace, render_summary, summarize_trace

    print(render_summary(summarize_trace(read_trace(args.trace_path))))
    return 0


def _trace_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.observability.analyze import QuerySpec, aggregate_events, select_events

    where = []
    for clause in args.where:
        path, sep, value = clause.partition("=")
        if not sep or not path:
            raise ValueError(f"--where expects PATH=VALUE, got {clause!r}")
        where.append((path, value))
    spec = QuerySpec(
        types=tuple(args.types),
        days=tuple(args.days),
        where=tuple(where),
        select=tuple(args.select),
        group_by=args.group_by,
        aggregate=args.aggregate,
        agg_field=args.field,
        q=args.q,
        limit=args.limit,
    )
    if spec.aggregate is not None:
        print(_json.dumps(aggregate_events(args.trace_path, spec), sort_keys=True, indent=2))
        return 0
    # Print as we stream: one record in memory at a time, however long
    # the trace is.
    for row in select_events(args.trace_path, spec):
        print(_json.dumps(row, sort_keys=True))
    return 0


def _trace_profile(args: argparse.Namespace) -> int:
    import json as _json

    from repro.observability.analyze import (
        build_profile,
        collapsed_stacks,
        render_profile,
    )

    root = build_profile(args.trace_path, per_day=args.per_day)
    if args.collapsed:
        for line in collapsed_stacks(root, weight=args.weight):
            print(line)
    elif args.json:
        print(_json.dumps(root.to_dict(), sort_keys=True, indent=2))
    else:
        print(render_profile(root, weight=args.weight))
    return 0


def _trace_digest(args: argparse.Namespace) -> int:
    import json as _json

    from repro.observability.analyze import trace_digest, write_digest

    digest = trace_digest(args.trace_path)
    if args.out is not None:
        path = write_digest(digest, args.out)
        print(f"digest written to {path}")
    else:
        print(_json.dumps(digest, sort_keys=True, indent=2))
    return 0


def _trace_diff(args: argparse.Namespace) -> int:
    import json as _json

    from repro.observability.analyze import DiffThresholds, diff_sources

    thresholds = DiffThresholds(
        count_ratio=args.max_count_ratio,
        count_abs=args.max_count_abs,
        iteration_ratio=args.max_iteration_ratio,
        metric_ratio=args.max_metric_ratio,
        metric_abs=args.max_metric_abs,
        phase_time_ratio=args.max_phase_time_ratio,
    )
    result = diff_sources(args.path_a, args.path_b, thresholds)
    if args.json:
        print(_json.dumps(result.to_dict(), sort_keys=True, indent=2))
    else:
        print(result.render())
    return 0 if result.ok else 1


def _trace_slo(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path as _Path

    from repro.observability.analyze import (
        MetricsView,
        default_serving_slos,
        evaluate_metrics_slos,
        evaluate_trace_slos,
        load_slo_spec,
        render_slo_report,
    )

    rules = default_serving_slos() if args.spec is None else load_slo_spec(args.spec)
    source = _Path(args.source)
    if source.suffix == ".jsonl":
        statuses = evaluate_trace_slos(source, rules)
    elif source.suffix == ".json":
        view = MetricsView.from_json(_json.loads(source.read_text()))
        statuses = evaluate_metrics_slos(view, rules)
    else:
        view = MetricsView.from_prometheus_text(source.read_text())
        statuses = evaluate_metrics_slos(view, rules)
    if args.json:
        print(_json.dumps([s.to_dict() for s in statuses], sort_keys=True, indent=2))
    else:
        print(render_slo_report(statuses))
    if args.check and any(s.breached for s in statuses):
        return 1
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    config = ExperimentConfig(replications=args.replications, seed=args.seed)
    text = generate_report(config, sections=args.sections, out=args.out)
    if args.out is None:
        print(text)
    else:
        print(f"report written to {args.out}")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _run_list()
    if args.command == "figure":
        return _run_figure(args)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "report":
        return _run_report(args)
    raise AssertionError(f"unhandled command: {args.command}")  # pragma: no cover
