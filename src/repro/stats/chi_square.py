"""Chi-square goodness-of-fit normality testing (Section 2.3, Table 1).

The paper validates the normal observation model by running a chi-square
goodness-of-fit test per task: bin the observations, compare observed bin
counts against the counts expected under a normal distribution fitted to the
sample, and compute a p-value from the chi-square distribution with
``bins - 1 - fitted_params`` degrees of freedom.  Table 1 reports the
*non-rejection rate* — the fraction of tasks whose normality hypothesis
survives at significance levels alpha in {0.5, 0.25, 0.1, 0.05}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.stats.normal import normal_cdf, normal_quantile

__all__ = [
    "ChiSquareResult",
    "chi_square_sf",
    "chi_square_gof",
    "chi_square_normality_test",
    "normality_pass_rate",
]

#: Observations are pooled into this many equiprobable bins by default. Small
#: samples automatically fall back to fewer bins (see ``_bin_count``).
DEFAULT_BINS = 8

#: Two parameters (mean, std) are fitted from the sample, costing two degrees
#: of freedom on top of the usual ``bins - 1``.
_FITTED_PARAMS = 2


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of a chi-square goodness-of-fit test."""

    statistic: float
    p_value: float
    dof: int

    def rejects_at(self, alpha: float) -> bool:
        """True when the null hypothesis is rejected at significance ``alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        return self.p_value < alpha


def chi_square_sf(statistic: float, dof: int) -> float:
    """Survival function of the chi-square distribution (the test p-value).

    Implemented via the regularised upper incomplete gamma function
    ``Q(dof/2, x/2)`` — the textbook identity — rather than a distribution
    object, keeping the dependency surface to scipy.special, which is
    imported here on first call so that loading this module loads no scipy.
    """
    from scipy import special

    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if statistic < 0:
        raise ValueError("chi-square statistic must be non-negative")
    return float(special.gammaincc(dof / 2.0, statistic / 2.0))


def chi_square_gof(observed: Sequence[float], expected: Sequence[float], fitted_params: int = 0) -> ChiSquareResult:
    """Generic chi-square goodness-of-fit between observed and expected counts."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape:
        raise ValueError("observed and expected must have the same shape")
    if obs.ndim != 1 or obs.size < 2:
        raise ValueError("need at least two bins")
    if np.any(exp <= 0):
        raise ValueError("expected counts must be positive")
    dof = obs.size - 1 - fitted_params
    if dof <= 0:
        raise ValueError("not enough bins for the requested fitted parameter count")
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    return ChiSquareResult(statistic=statistic, p_value=chi_square_sf(statistic, dof), dof=dof)


def _bin_count(sample_size: int, requested: int) -> int:
    """Pick a bin count that leaves positive degrees of freedom.

    A common rule of thumb keeps the expected count per bin at five or more;
    we additionally need ``bins >= fitted_params + 2`` for a valid test.
    """
    by_sample = max(sample_size // 5, _FITTED_PARAMS + 2)
    return int(min(requested, by_sample))


def chi_square_normality_test(
    sample: Sequence[float],
    bins: int = DEFAULT_BINS,
    subtract_fitted: bool = True,
) -> ChiSquareResult:
    """Chi-square normality test for one task's observation sample.

    The sample's mean and standard deviation are fitted, bin edges are placed
    at equiprobable quantiles of the fitted normal, and the observed bin
    counts are tested against the uniform expected counts.  Raises
    ``ValueError`` for degenerate samples (too small, or zero variance) —
    callers that sweep over tasks should catch and count those separately.

    ``subtract_fitted`` controls the degrees of freedom: the statistically
    correct test uses ``bins - 3`` (two parameters were fitted); the common
    applied convention — and, judging by its non-rejection rates far above
    the nominal level at alpha = 0.5, the paper's — uses ``bins - 1``.
    Table 1's experiment passes ``subtract_fitted=False`` to match.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if x.size < (_FITTED_PARAMS + 2) * 2:
        raise ValueError("sample too small for a chi-square normality test")
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    if std <= 0 or not np.isfinite(std):
        raise ValueError("sample has zero variance; normality test undefined")

    k = _bin_count(x.size, bins)
    # Equiprobable interior edges under the fitted normal; outer edges open.
    probs = np.arange(1, k) / k
    edges = normal_quantile(probs, mean, std)
    counts = np.zeros(k, dtype=float)
    idx = np.searchsorted(edges, x, side="right")
    for i in idx:
        counts[i] += 1.0
    expected = np.full(k, x.size / k, dtype=float)
    # Cross-check the binning against the fitted CDF mass (should be 1/k each).
    _assert_equiprobable(edges, mean, std, k)
    fitted = _FITTED_PARAMS if subtract_fitted else 0
    return chi_square_gof(counts, expected, fitted_params=fitted)


def _assert_equiprobable(edges: np.ndarray, mean: float, std: float, k: int) -> None:
    cdf = normal_cdf(edges, mean, std)
    full = np.concatenate(([0.0], cdf, [1.0]))
    mass = np.diff(full)
    if not np.allclose(mass, 1.0 / k, atol=1e-8):
        raise AssertionError("internal error: bins are not equiprobable")


def normality_pass_rate(
    samples: Iterable[Sequence[float]],
    alpha: float,
    bins: int = DEFAULT_BINS,
    subtract_fitted: bool = True,
) -> float:
    """Fraction of samples whose normality hypothesis is *not* rejected.

    This is the Table 1 statistic.  Samples too degenerate to test are
    skipped, mirroring the paper's per-task sweep over the survey dataset.
    Returns ``nan`` when no sample was testable.
    """
    tested = 0
    passed = 0
    for sample in samples:
        try:
            result = chi_square_normality_test(sample, bins=bins, subtract_fitted=subtract_fitted)
        except ValueError:
            continue
        tested += 1
        if not result.rejects_at(alpha):
            passed += 1
    if tested == 0:
        return float("nan")
    return passed / tested
