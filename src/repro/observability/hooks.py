"""The telemetry layer's step hook, installed by ``ETA2System.enable_telemetry``.

The events inside a step come from the loop itself; this hook adds the
step-level ones and the metrics after every counted step.
"""

from __future__ import annotations

import numpy as np

from repro.core.hooks import StepHook

__all__ = ["TelemetryHook"]

#: Help text of every metric the hook records.
_HELP = {
    "repro_allocation_picks_total": "Pairs picked by the lazy-greedy allocation kernel.",
    "repro_allocation_reevaluations_total": (
        "Stale heap entries re-evaluated by the lazy-greedy kernel."
    ),
    "repro_steps_total": "Completed warm-up/daily steps.",
    "repro_observations_total": "Observations collected across all steps.",
    "repro_assigned_pairs_total": "User/task pairs assigned by the allocators.",
    "repro_allocation_cost_total": "Cumulative allocation cost (Problem 2).",
    "repro_mle_iterations": "Iterations the Eq. 5-6 MLE took to converge, per step.",
    "repro_mle_non_convergence_total": "Steps whose truth analysis exhausted its iteration budget.",
    "repro_tasks_total": "Tasks processed, by expertise domain.",
    "repro_excluded_users_total": "User-steps excluded from allocation by quarantine.",
    "repro_guard_violations_total": "Invariant-guard violations.",
    "repro_domains": "Distinct expertise domains currently tracked.",
}


class TelemetryHook(StepHook):
    """Traces and counts every counted step, each only when attached."""

    def after_step(self, system, result, kind: str):
        tracer, stats = system.tracer, result.greedy_stats
        if tracer.enabled:
            if stats is not None:
                tracer.emit(
                    "allocation.greedy",
                    picks=int(stats.picks),
                    pops=int(stats.pops),
                    evaluations=int(stats.evaluations),
                )
            if result.excluded_users:
                tracer.emit("allocation.excluded", users=list(result.excluded_users))
            tracer.emit(
                "step.end",
                step=system.completed_steps,
                kind=kind,
                converged=bool(result.converged),
                iterations=int(result.mle_iterations),
                pairs=int(result.pair_count),
                observations=int(result.observations.observation_count),
                cost=float(result.allocation_cost),
            )
        metrics = system.metrics
        if metrics is None:
            return result

        def count(name, amount=1.0, **labels):
            metrics.counter(name, _HELP[name]).inc(amount, **labels)

        if stats is not None:
            count("repro_allocation_picks_total", int(stats.picks))
            count("repro_allocation_reevaluations_total", int(stats.evaluations))
        count("repro_steps_total", 1, kind=kind)
        count("repro_observations_total", int(result.observations.observation_count))
        count("repro_assigned_pairs_total", int(result.pair_count))
        count("repro_allocation_cost_total", float(result.allocation_cost))
        iterations = metrics.histogram("repro_mle_iterations", _HELP["repro_mle_iterations"])
        iterations.observe(int(result.mle_iterations))
        if not result.converged:
            count("repro_mle_non_convergence_total")
        domains, counts = np.unique(result.task_domains, return_counts=True)
        for domain, n_tasks in zip(domains.tolist(), counts.tolist()):
            count("repro_tasks_total", int(n_tasks), domain=str(domain))
        if result.excluded_users:
            count("repro_excluded_users_total", len(result.excluded_users))
        if result.guard_report is not None and not result.guard_report.ok:
            count("repro_guard_violations_total", int(result.guard_report.violation_count))
        metrics.gauge("repro_domains", _HELP["repro_domains"]).set(len(system._updater.domain_ids))
        return result
