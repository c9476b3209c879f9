"""One-shot report generation: every table/figure plus the extensions.

``generate_report`` runs the whole evaluation at a configurable scale and
returns (and optionally writes) a Markdown document with every rendered
table — the programmatic way to refresh EXPERIMENTS.md's numbers, also
exposed as ``python -m repro report``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

from repro.experiments.adversarial import adversarial_robustness
from repro.experiments.categorical import categorical_comparison
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
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

__all__ = ["REPORT_SECTIONS", "generate_report"]

#: Section name -> callable(config) -> rendered text.
REPORT_SECTIONS = {
    "fig2": lambda cfg: fig2_error_distribution(cfg).render(),
    "table1": lambda cfg: table1_normality(cfg).render(),
    "fig4-survey": lambda cfg: fig4_parameter_sweep("survey", cfg).render(),
    "fig4-synthetic": lambda cfg: fig4_parameter_sweep("synthetic", cfg).render(),
    "fig5-survey": lambda cfg: fig5_error_over_days("survey", cfg).render(),
    "fig5-sfv": lambda cfg: fig5_error_over_days("sfv", cfg).render(),
    "fig5-synthetic": lambda cfg: fig5_error_over_days("synthetic", cfg).render(),
    "fig6-survey": lambda cfg: fig6_capability_sweep("survey", cfg).render(),
    "fig6-synthetic": lambda cfg: fig6_capability_sweep("synthetic", cfg).render(),
    "fig7": lambda cfg: fig7_expertise_vs_error(cfg, dataset_name="sfv").render(),
    "fig8": lambda cfg: fig8_bias_robustness(cfg).render(),
    "fig9-10-synthetic": lambda cfg: fig9_fig10_mincost_comparison("synthetic", cfg).render(),
    "fig11": lambda cfg: fig11_expertise_accuracy(cfg).render(),
    "fig12": lambda cfg: fig12_convergence_cdf(cfg).render(),
    "table2": lambda cfg: table2_allocation_audit(cfg).render(),
    "ext-categorical": lambda cfg: categorical_comparison(
        replications=cfg.replications, seed=cfg.seed
    ).render(),
    "ext-adversarial": lambda cfg: adversarial_robustness(cfg).render(),
    "ext-reputation": lambda cfg: _reputation_section(cfg),
    "ext-incentives": lambda cfg: _incentive_section(cfg),
}


def _reputation_section(config: ExperimentConfig) -> str:
    from repro.experiments.reputation import reputation_defense

    return reputation_defense(config).render()


def _incentive_section(config: ExperimentConfig) -> str:
    from repro.experiments.incentives import incentive_comparison

    return incentive_comparison(replications=config.replications, seed=config.seed).render()


def generate_report(
    config: ExperimentConfig = ExperimentConfig(),
    sections: "Sequence[str] | None" = None,
    out: "str | Path | None" = None,
) -> str:
    """Run the selected report sections and return the Markdown text."""
    if sections is None:
        sections = list(REPORT_SECTIONS)
    unknown = [s for s in sections if s not in REPORT_SECTIONS]
    if unknown:
        raise ValueError(f"unknown report sections: {unknown}")

    lines = [
        "# ETA2 reproduction report",
        "",
        f"replications={config.replications}, n_days={config.n_days}, tau={config.tau}, "
        f"seed={config.seed}",
        "",
    ]
    for name in sections:
        started = time.perf_counter()
        rendered = REPORT_SECTIONS[name](config)
        elapsed = time.perf_counter() - started
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(rendered)
        lines.append("```")
        lines.append(f"_generated in {elapsed:.1f}s_")
        lines.append("")
    text = "\n".join(lines)
    if out is not None:
        Path(out).write_text(text)
    return text
