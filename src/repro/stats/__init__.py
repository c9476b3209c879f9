"""Statistics substrate used by the ETA2 reproduction.

The paper leans on a handful of classical statistical tools:

- the standard normal distribution (observation model, Eq. 11's
  ``p_ij = Phi(eps * u_ij) - Phi(-eps * u_ij)``),
- a chi-square goodness-of-fit normality test (Section 2.3 / Table 1),
- maximum-likelihood confidence intervals from the Fisher information
  (Section 5.2.2, Eqs. 22-24),
- descriptive statistics for the evaluation figures (histograms for Fig. 2,
  boxplot summaries for Fig. 7, empirical CDFs for Fig. 12).

Everything here is implemented from first principles on top of numpy/scipy
special functions so that the algorithmic content of the paper is visible in
this repository rather than hidden behind a stats package.
"""

from repro.stats.chi_square import (
    ChiSquareResult,
    chi_square_gof,
    chi_square_normality_test,
    normality_pass_rate,
)
from repro.stats.confidence import (
    ConfidenceInterval,
    mle_truth_confidence_interval,
    truth_fisher_information,
    truth_half_widths,
)
from repro.stats.descriptive import (
    BoxplotStats,
    Histogram,
    boxplot_stats,
    empirical_cdf,
    histogram,
)
from repro.stats.normal import (
    normal_cdf,
    normal_pdf,
    normal_quantile,
    standard_normal_cdf,
    standard_normal_pdf,
    standard_normal_quantile,
    symmetric_tail_probability,
)

__all__ = [
    "BoxplotStats",
    "ChiSquareResult",
    "ConfidenceInterval",
    "Histogram",
    "boxplot_stats",
    "chi_square_gof",
    "chi_square_normality_test",
    "empirical_cdf",
    "histogram",
    "mle_truth_confidence_interval",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "normality_pass_rate",
    "standard_normal_cdf",
    "standard_normal_pdf",
    "standard_normal_quantile",
    "symmetric_tail_probability",
    "truth_fisher_information",
    "truth_half_widths",
]
