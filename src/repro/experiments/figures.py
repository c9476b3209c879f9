"""One entry point per paper table/figure (Section 2.3 and Section 6).

Every function returns a small result object carrying the raw series plus a
``render()`` method that prints the same rows the paper reports.  Absolute
numbers differ from the paper (our substrate regenerates the datasets per
DESIGN.md's substitutions); the *shape* — who wins, whether curves fall or
rise, where crossovers sit — is the reproduction target and is asserted by
the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.experiments.config import ExperimentConfig, dataset_factory
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import average_day_errors, replicate
from repro.perf.sweep import ApproachSpec, group_by_tag, replication_jobs, run_jobs
from repro.rng import ensure_rng
from repro.simulation.metrics import expertise_estimation_error
from repro.stats.descriptive import BoxplotStats, boxplot_stats, empirical_cdf, histogram
from repro.stats.chi_square import normality_pass_rate
from repro.stats.normal import standard_normal_pdf

__all__ = [
    "fig2_error_distribution",
    "table1_normality",
    "fig4_parameter_sweep",
    "fig5_error_over_days",
    "fig6_capability_sweep",
    "fig7_expertise_vs_error",
    "fig8_bias_robustness",
    "fig9_fig10_mincost_comparison",
    "fig11_expertise_accuracy",
    "fig12_convergence_cdf",
    "table2_allocation_audit",
]

#: Approach order used throughout the comparison figures.
COMPARISON_APPROACHES = ("ETA2", "hubs-authorities", "average-log", "truthfinder", "baseline-mean")


def _eta2_spec(dataset_name: str, config: ExperimentConfig, **options) -> ApproachSpec:
    """ETA2 at the dataset's best (alpha, gamma), plus ``options``."""
    best = config.best_parameters(dataset_name)
    return ApproachSpec.eta2(gamma=best["gamma"], alpha=best["alpha"], **options)


def _approach_specs(dataset_name: str, config: ExperimentConfig) -> dict:
    """The comparison approaches, as picklable factories for parallel sweeps."""
    return {
        "ETA2": _eta2_spec(dataset_name, config),
        "hubs-authorities": ApproachSpec(kind="hubs-authorities"),
        "average-log": ApproachSpec(kind="average-log"),
        "truthfinder": ApproachSpec(kind="truthfinder"),
        "baseline-mean": ApproachSpec(kind="mean"),
    }


def _full_responses(world) -> np.ndarray:
    """Every user answers every task once (the raw-survey setting of §2.3).

    Drawn task by task: row ``j`` holds task ``j``'s answers in user order.
    """
    tasks, users = np.divmod(np.arange(world.n_tasks * world.n_users), world.n_users)
    draws = world.observe_pairs(np.column_stack([users, tasks]))
    return np.reshape(draws, (world.n_tasks, world.n_users))


def _full_response_errors(dataset, seed) -> "tuple[np.ndarray, np.ndarray]":
    """Per-observation ``(errors, expertise)`` of :func:`_full_responses`.

    The error is ``(x_ij - mu_j) / std_j`` with ``std_j`` the empirical
    per-task observation standard deviation — the paper's Fig. 2
    normalisation.
    """
    world = dataset.world(seed=seed)
    # C order: a transposed view would change the last bits of the std below.
    values = np.ascontiguousarray(_full_responses(world).T)
    expertise = world.pair_expertise(*np.indices(values.shape))
    stds = values.std(axis=0, ddof=1)
    stds = np.maximum(stds, 1e-12)
    errors = (values - world.true_values()[None, :]) / stds[None, :]
    return errors.ravel(), expertise.ravel()


# --------------------------------------------------------------------- #
# Fig. 2 — observation errors follow the standard normal
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig2Result:
    dataset_names: tuple
    histograms: dict
    #: Mean absolute deviation between each histogram and the N(0,1) density.
    density_gaps: dict

    def render(self) -> str:
        blocks = []
        for name in self.dataset_names:
            hist = self.histograms[name]
            rows = [
                (float(center), float(density), float(standard_normal_pdf(center)))
                for center, density in zip(hist.centers, hist.density)
            ]
            blocks.append(
                format_table(
                    ["bin_center", "observed_density", "normal_pdf"],
                    rows,
                    title=f"Fig. 2 ({name}): observation-error distribution",
                )
            )
            blocks.append(f"mean |observed - N(0,1)| density gap: {self.density_gaps[name]:.4f}")
        return "\n\n".join(blocks)


def fig2_error_distribution(
    config: ExperimentConfig = ExperimentConfig(),
    dataset_names: Sequence[str] = ("survey", "sfv"),
    bins: int = 25,
    value_range: "tuple[float, float]" = (-4.0, 4.0),
) -> Fig2Result:
    """Fig. 2: pooled observation errors vs. the standard normal density."""
    rng = ensure_rng(config.seed)
    histograms: dict = {}
    gaps: dict = {}
    for name in dataset_names:
        dataset_seed, observe_seed = rng.spawn(2)
        dataset = dataset_factory(name, config, seed=dataset_seed)
        errors, _ = _full_response_errors(dataset, seed=observe_seed)
        hist = histogram(errors, bins=bins, value_range=value_range)
        histograms[name] = hist
        gaps[name] = float(np.mean(np.abs(hist.density - standard_normal_pdf(hist.centers))))
    return Fig2Result(dataset_names=tuple(dataset_names), histograms=histograms, density_gaps=gaps)


# --------------------------------------------------------------------- #
# Table 1 — chi-square normality non-rejection rates
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table1Result:
    alphas: tuple
    pass_rates: tuple

    def render(self) -> str:
        headers = ["alpha=" + str(a) for a in self.alphas]
        return format_table(
            headers,
            [self.pass_rates],
            title="Table 1: non-rejection rate of the chi-square normality test (survey)",
        )


def table1_normality(
    config: ExperimentConfig = ExperimentConfig(),
    alphas: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
    dataset_name: str = "survey",
) -> Table1Result:
    """Table 1: per-task chi-square normality tests on full responses."""
    rng = ensure_rng(config.seed)
    dataset_seed, observe_seed = rng.spawn(2)
    dataset = dataset_factory(dataset_name, config, seed=dataset_seed)
    samples = _full_responses(dataset.world(seed=observe_seed))
    # subtract_fitted=False reproduces the paper's degrees-of-freedom
    # convention (see chi_square_normality_test's docstring).
    pass_rates = tuple(
        normality_pass_rate(samples, alpha, subtract_fitted=False) for alpha in alphas
    )
    return Table1Result(alphas=tuple(alphas), pass_rates=pass_rates)


# --------------------------------------------------------------------- #
# Fig. 4 — parameter sweep over (alpha, gamma)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig4Result:
    dataset_name: str
    alphas: tuple
    gammas: tuple
    #: errors[i, j] for (alphas[i], gammas[j]); a single column when the
    #: dataset has pre-known domains (gamma unused).
    errors: np.ndarray

    @property
    def best(self) -> "tuple[float, float | None, float]":
        """(alpha, gamma or None, error) of the best grid point."""
        position = int(np.nanargmin(self.errors))
        i, j = divmod(position, self.errors.shape[1])
        gamma = self.gammas[j] if len(self.gammas) > 1 or self.gammas else None
        gamma_value = self.gammas[j] if self.gammas else None
        return (self.alphas[i], gamma_value, float(self.errors[i, j]))

    def render(self) -> str:
        if self.errors.shape[1] == 1:
            rows = [(a, float(e)) for a, e in zip(self.alphas, self.errors[:, 0])]
            return format_table(
                ["alpha", "estimation_error"],
                rows,
                title=f"Fig. 4 ({self.dataset_name}): error vs alpha (domains pre-known)",
            )
        headers = ["alpha\\gamma", *[str(g) for g in self.gammas]]
        rows = [
            (str(a), *[float(e) for e in self.errors[i]])
            for i, a in enumerate(self.alphas)
        ]
        return format_table(
            headers, rows, title=f"Fig. 4 ({self.dataset_name}): error over the (alpha, gamma) grid"
        )


def fig4_parameter_sweep(
    dataset_name: str,
    config: ExperimentConfig = ExperimentConfig(),
    alphas: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    gammas: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7),
    jobs: "int | None" = None,
    supervisor=None,
) -> Fig4Result:
    """Fig. 4: mean estimation error over the parameter grid.

    Every (grid point, replication) cell is an independent simulation, so
    the whole grid fans out across ``jobs`` worker processes at once;
    results are identical to the serial sweep for any ``jobs``.
    ``supervisor`` (a :class:`~repro.reliability.supervisor.SupervisorConfig`)
    adds crash/retry supervision; dead-lettered cells are skipped when the
    grid is averaged.
    """
    probe = dataset_factory(dataset_name, config, seed=0)
    use_gamma = not probe.domains_known
    gamma_grid = tuple(gammas) if use_gamma else (0.5,)
    job_list = []
    for i, alpha in enumerate(alphas):
        for j, gamma in enumerate(gamma_grid):
            job_list.extend(
                replication_jobs(
                    dataset_name,
                    ApproachSpec.eta2(gamma=gamma, alpha=alpha),
                    config,
                    tag=(i, j),
                )
            )
    grouped = group_by_tag(job_list, run_jobs(job_list, n_jobs=jobs, supervisor=supervisor))
    errors = np.full((len(alphas), len(gamma_grid)), np.nan)
    for (i, j), results in grouped.items():
        values = [r.mean_estimation_error for r in results if r is not None]
        if values:
            errors[i, j] = float(np.nanmean(values))
    return Fig4Result(
        dataset_name=dataset_name,
        alphas=tuple(alphas),
        gammas=gamma_grid if use_gamma else (),
        errors=errors,
    )


# --------------------------------------------------------------------- #
# Fig. 5 — estimation error over days, all approaches
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig5Result:
    dataset_name: str
    days: tuple
    series: dict

    def render(self) -> str:
        return format_series(
            "day",
            self.days,
            self.series,
            title=f"Fig. 5 ({self.dataset_name}): estimation error by day",
        )


def fig5_error_over_days(
    dataset_name: str,
    config: ExperimentConfig = ExperimentConfig(),
    jobs: "int | None" = None,
    supervisor=None,
) -> Fig5Result:
    """Fig. 5: per-day estimation error for ETA2 and the four baselines."""
    specs = _approach_specs(dataset_name, config)
    job_list = []
    for name in COMPARISON_APPROACHES:
        job_list.extend(replication_jobs(dataset_name, specs[name], config, tag=name))
    grouped = group_by_tag(job_list, run_jobs(job_list, n_jobs=jobs, supervisor=supervisor))
    series = {name: average_day_errors(grouped[name]).tolist() for name in COMPARISON_APPROACHES}
    days = tuple(range(1, config.n_days + 1))
    return Fig5Result(dataset_name=dataset_name, days=days, series=series)


# --------------------------------------------------------------------- #
# Fig. 6 — estimation error vs. average processing capability tau
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig6Result:
    dataset_name: str
    taus: tuple
    series: dict

    def render(self) -> str:
        return format_series(
            "tau",
            self.taus,
            self.series,
            title=f"Fig. 6 ({self.dataset_name}): estimation error vs processing capability",
        )


def fig6_capability_sweep(
    dataset_name: str,
    config: ExperimentConfig = ExperimentConfig(),
    taus: Sequence[float] = (6.0, 9.0, 12.0, 15.0, 18.0),
    jobs: "int | None" = None,
    supervisor=None,
) -> Fig6Result:
    """Fig. 6: mean estimation error as tau varies."""
    job_list = []
    for tau in taus:
        tau_config = config.with_tau(tau)
        specs = _approach_specs(dataset_name, tau_config)
        for name in COMPARISON_APPROACHES:
            job_list.extend(
                replication_jobs(dataset_name, specs[name], tau_config, tag=(name, tau))
            )
    grouped = group_by_tag(job_list, run_jobs(job_list, n_jobs=jobs, supervisor=supervisor))

    def _cell(name, tau):
        values = [r.mean_estimation_error for r in grouped[(name, tau)] if r is not None]
        return float(np.nanmean(values)) if values else float("nan")

    series = {
        name: [_cell(name, tau) for tau in taus] for name in COMPARISON_APPROACHES
    }
    return Fig6Result(dataset_name=dataset_name, taus=tuple(taus), series=series)


# --------------------------------------------------------------------- #
# Fig. 7 — observation error vs. user expertise
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig7Result:
    dataset_name: str
    bin_edges: tuple
    boxplots: tuple

    def render(self) -> str:
        rows = []
        for (low, high), stats in zip(zip(self.bin_edges[:-1], self.bin_edges[1:]), self.boxplots):
            rows.append(
                (
                    f"[{low:.1f}, {high:.1f})",
                    stats.q1,
                    stats.median,
                    stats.q3,
                    stats.mean,
                    stats.count,
                )
            )
        return format_table(
            ["expertise_bin", "q1", "median", "q3", "mean", "count"],
            rows,
            title=f"Fig. 7 ({self.dataset_name}): |observation error| by user expertise",
        )


def fig7_expertise_vs_error(
    config: ExperimentConfig = ExperimentConfig(),
    dataset_name: str = "survey",
    bin_edges: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
) -> Fig7Result:
    """Fig. 7: boxplots of |observation error| per expertise bin."""
    rng = ensure_rng(config.seed)
    dataset_seed, observe_seed = rng.spawn(2)
    dataset = dataset_factory(dataset_name, config, seed=dataset_seed)
    errors, expertise = _full_response_errors(dataset, seed=observe_seed)
    abs_errors = np.abs(errors)
    boxplots = []
    edges = tuple(bin_edges)
    for low, high in zip(edges[:-1], edges[1:]):
        in_bin = (expertise >= low) & (expertise < high)
        if np.any(in_bin):
            boxplots.append(boxplot_stats(abs_errors[in_bin]))
        else:
            boxplots.append(BoxplotStats(np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, 0))
    return Fig7Result(dataset_name=dataset_name, bin_edges=edges, boxplots=tuple(boxplots))


# --------------------------------------------------------------------- #
# Fig. 8 — robustness to non-normal observations
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig8Result:
    bias_fractions: tuple
    errors: tuple

    def render(self) -> str:
        return format_series(
            "bias_fraction",
            self.bias_fractions,
            {"ETA2_error": list(self.errors)},
            title="Fig. 8 (synthetic): error vs fraction of non-normal observations",
        )


def fig8_bias_robustness(
    config: ExperimentConfig = ExperimentConfig(),
    bias_fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
) -> Fig8Result:
    """Fig. 8: ETA2 error as uniform-noise observations replace normal ones."""
    errors = []
    for fraction in bias_fractions:
        results = replicate(
            "synthetic", _eta2_spec("synthetic", config), config, bias_fraction=fraction
        )
        errors.append(float(np.nanmean([r.mean_estimation_error for r in results])))
    return Fig8Result(bias_fractions=tuple(bias_fractions), errors=tuple(errors))


# --------------------------------------------------------------------- #
# Figs. 9 & 10 — ETA2 vs ETA2-mc: error and cost vs tau
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class MinCostComparison:
    dataset_name: str
    taus: tuple
    error_limit: float
    #: series name -> per-tau values; includes "ETA2" and one
    #: "ETA2-mc(c0=...)" entry per round budget.
    error_series: dict
    cost_series: dict

    def render_errors(self) -> str:
        return format_series(
            "tau",
            self.taus,
            self.error_series,
            title=(
                f"Fig. 9 ({self.dataset_name}): estimation error vs tau "
                f"(quality requirement eps_bar={self.error_limit})"
            ),
        )

    def render_costs(self) -> str:
        return format_series(
            "tau",
            self.taus,
            self.cost_series,
            precision=1,
            title=f"Fig. 10 ({self.dataset_name}): task-allocation cost vs tau",
        )

    def render(self) -> str:
        return self.render_errors() + "\n\n" + self.render_costs()


def fig9_fig10_mincost_comparison(
    dataset_name: str,
    config: ExperimentConfig = ExperimentConfig(),
    taus: Sequence[float] = (9.0, 12.0, 15.0),
    round_budgets: Sequence[float] = (30.0, 60.0),
    error_limit: float = 0.5,
    confidence: float = 0.95,
) -> MinCostComparison:
    """Figs. 9-10: ETA2 vs ETA2-mc on estimation error and allocation cost."""
    error_series: dict = {"ETA2": []}
    cost_series: dict = {"ETA2": []}
    for budget in round_budgets:
        error_series[f"ETA2-mc(c0={budget:g})"] = []
        cost_series[f"ETA2-mc(c0={budget:g})"] = []

    for tau in taus:
        tau_config = config.with_tau(tau)
        results = replicate(dataset_name, _eta2_spec(dataset_name, tau_config), tau_config)
        error_series["ETA2"].append(float(np.nanmean([r.mean_estimation_error for r in results])))
        cost_series["ETA2"].append(float(np.mean([r.total_cost for r in results])))
        for budget in round_budgets:
            key = f"ETA2-mc(c0={budget:g})"
            spec = _eta2_spec(
                dataset_name,
                tau_config,
                allocator="min-cost",
                min_cost_round_budget=budget,
                min_cost_error_limit=error_limit,
                min_cost_confidence=confidence,
            )
            results = replicate(dataset_name, spec, tau_config)
            error_series[key].append(float(np.nanmean([r.mean_estimation_error for r in results])))
            cost_series[key].append(float(np.mean([r.total_cost for r in results])))
    return MinCostComparison(
        dataset_name=dataset_name,
        taus=tuple(taus),
        error_limit=error_limit,
        error_series=error_series,
        cost_series=cost_series,
    )


# --------------------------------------------------------------------- #
# Fig. 11 — accuracy of expertise estimation (synthetic)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig11Result:
    taus: tuple
    expertise_errors: tuple

    def render(self) -> str:
        return format_series(
            "tau",
            self.taus,
            {"expertise_error": list(self.expertise_errors)},
            title="Fig. 11 (synthetic): expertise estimation error vs processing capability",
        )


def fig11_expertise_accuracy(
    config: ExperimentConfig = ExperimentConfig(),
    taus: Sequence[float] = (6.0, 9.0, 12.0, 15.0, 18.0),
) -> Fig11Result:
    """Fig. 11: mean |estimated - true| expertise as tau varies."""
    errors = []
    for tau in taus:
        tau_config = config.with_tau(tau)
        jobs = replication_jobs("synthetic", _eta2_spec("synthetic", tau_config), tau_config)
        per_run = []
        for job, result in zip(jobs, run_jobs(jobs)):
            snapshot = result.expertise_snapshot
            if snapshot is None:
                continue
            dataset = job.dataset()
            # Synthetic domains are pre-known, so discovered ids == true ids.
            identity = {domain_id: domain_id for domain_id in snapshot}
            per_run.append(
                expertise_estimation_error(snapshot, dataset.world().true_expertise_matrix(), identity)
            )
        errors.append(float(np.nanmean(per_run)))
    return Fig11Result(taus=tuple(taus), expertise_errors=tuple(errors))


# --------------------------------------------------------------------- #
# Fig. 12 — CDF of MLE iterations to convergence
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig12Result:
    cdfs: dict

    def render(self) -> str:
        blocks = []
        for name, (values, probs) in self.cdfs.items():
            rows = list(zip(values.tolist(), probs.tolist()))
            blocks.append(
                format_table(
                    ["iterations", "cdf"],
                    rows,
                    precision=3,
                    title=f"Fig. 12 ({name}): CDF of MLE iterations to convergence",
                )
            )
        return "\n\n".join(blocks)

    def quantile(self, dataset_name: str, probability: float) -> float:
        values, probs = self.cdfs[dataset_name]
        index = int(np.searchsorted(probs, probability))
        index = min(index, len(values) - 1)
        return float(values[index])


def fig12_convergence_cdf(
    config: ExperimentConfig = ExperimentConfig(),
    dataset_names: Sequence[str] = ("survey", "sfv", "synthetic"),
) -> Fig12Result:
    """Fig. 12: distribution of MLE iteration counts across runs and days."""
    cdfs: dict = {}
    for name in dataset_names:
        results = replicate(name, _eta2_spec(name, config), config)
        iterations: list = []
        for result in results:
            iterations.extend(result.mle_iterations)
        cdfs[name] = empirical_cdf(iterations)
    return Fig12Result(cdfs=cdfs)


# --------------------------------------------------------------------- #
# Table 2 — allocation audit: users per task and their expertise
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table2Result:
    buckets: tuple
    task_fractions: tuple
    mean_expertise: tuple

    def render(self) -> str:
        rows = [
            (f"[{low}, {high}]", f"{fraction * 100:.1f}%", expertise)
            for (low, high), fraction, expertise in zip(
                self.buckets, self.task_fractions, self.mean_expertise
            )
        ]
        return format_table(
            ["users_assigned", "tasks", "avg_expertise_of_users"],
            rows,
            precision=2,
            title="Table 2: users per task vs their average domain expertise",
        )


def table2_allocation_audit(
    config: ExperimentConfig = ExperimentConfig(),
    dataset_name: str = "synthetic",
    buckets: Sequence = ((1, 5), (6, 10), (11, 15), (16, 1_000_000)),
) -> Table2Result:
    """Table 2: how many users the max-quality heuristic gives each task."""
    jobs = replication_jobs(dataset_name, _eta2_spec(dataset_name, config), config)
    counts: list = []
    expertise_values: list = []
    for job, result in zip(jobs, run_jobs(jobs)):
        dataset = job.dataset()
        true_expertise = dataset.world().true_expertise_matrix()
        true_domains = dataset.world().true_domains()
        for day in result.days:
            if day.day == 0:
                continue  # warm-up is random allocation; audit the heuristic
            assignment = day.observations.mask
            for local, task in enumerate(day.task_indices):
                users = np.flatnonzero(assignment[:, local])
                if users.size == 0:
                    continue
                counts.append(users.size)
                expertise_values.append(
                    float(np.mean(true_expertise[users, true_domains[task]]))
                )
    counts_arr = np.asarray(counts)
    expertise_arr = np.asarray(expertise_values)
    fractions: list = []
    means: list = []
    for low, high in buckets:
        in_bucket = (counts_arr >= low) & (counts_arr <= high)
        fractions.append(float(np.mean(in_bucket)) if counts_arr.size else float("nan"))
        means.append(float(np.mean(expertise_arr[in_bucket])) if np.any(in_bucket) else float("nan"))
    return Table2Result(
        buckets=tuple(buckets),
        task_fractions=tuple(fractions),
        mean_expertise=tuple(means),
    )
