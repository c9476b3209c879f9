"""Normal-distribution primitives.

The paper's observation model assumes user *i* observes task *j* as a draw
from ``N(mu_j, (sigma_j / u_ij)^2)`` (Section 2.4).  The allocation objective
needs ``Phi(eps * u) - Phi(-eps * u)`` (Eq. 11) and the min-cost quality check
needs standard-normal quantiles ``Z_{alpha/2}`` (Eq. 24).

Eq. 11 and ``Phi`` run on :func:`erf`, a numpy port of the Cephes ``ndtr.c``
kernel that :func:`scipy.special.erf` itself evaluates: the same
polynomials, Horner order and underflow cut, so it returns scipy's bits for
every double.  The quantile needs ``erfinv``, which numpy lacks, so
:func:`standard_normal_quantile` imports :mod:`scipy.special` when first
called; importing this module loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "erf",
    "standard_normal_pdf",
    "standard_normal_cdf",
    "standard_normal_quantile",
    "normal_pdf",
    "normal_cdf",
    "normal_quantile",
    "symmetric_tail_probability",
]

_SQRT2 = float(np.sqrt(2.0))
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Cephes ndtr.c coefficients, highest degree first.  ``_U``, ``_Q`` and ``_S``
# omit their leading 1.0 (they are evaluated by ``_p1evl``).
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
#: ``log(2**1024)``: past ``x*x > _MAXLOG`` Cephes' ``erfc`` underflows to 0.
_MAXLOG = 7.08396418532264106224e2
_NEAR, _FAR = (_P, _Q), (_R, _S)


def _polevl(x, coef):
    """Cephes ``polevl``: Horner's rule, one multiply and one add per step
    (a Python float or an array, element-wise either way)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1.0."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_core(x):
    """``erf`` for ``|x| <= 1``: ``x T(x^2) / U(x^2)``."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_tail(a, exp_neg_square, fit):
    """``erfc(a)`` for ``1 < a`` with ``a*a <= _MAXLOG``, given
    ``exp(-a*a)`` and the rational ``fit``: ``_NEAR`` below 8, else ``_FAR``."""
    numerator, denominator = fit
    return exp_neg_square * _polevl(a, numerator) / _p1evl(a, denominator)


def _erf_float(x: float) -> float:
    """:func:`erf` of one Python float, with the array path's operations."""
    a = abs(x)
    if not a > 1.0:  # NaN included: it propagates through the polynomial
        return _erf_core(x)
    square = a * a
    if square > _MAXLOG:
        y = 1.0
    else:
        y = 1.0 - _erfc_tail(a, math.exp(-square), _FAR if a >= 8.0 else _NEAR)
    return y if x > 0.0 else -y


def erf(x):
    """The error function, bit for bit :func:`scipy.special.erf` on doubles.

    Cephes ``ndtr.c``: ``x T(x^2) / U(x^2)`` for ``|x| <= 1`` and
    ``sign(x) (1 - erfc(|x|))`` beyond, with ``erfc`` from its P/Q (below 8)
    or R/S fit times ``exp(-x^2)``, cut to 0 once ``x^2`` passes ``MAXLOG``.
    ``exp`` is :func:`math.exp`, the C library routine the compiled kernel
    calls (``np.exp`` may differ in the last bit).  A 0-d input takes a
    Python-float path; an array input returns a new float64 array.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(_erf_float(float(x)))
    a = np.abs(x)
    out = np.empty_like(x)
    core = ~(a > 1.0)  # NaN included
    out[core] = _erf_core(x[core])
    tail = ~core
    if tail.any():
        a = a[tail]
        with np.errstate(over="ignore"):  # a square past MAXLOG is cut anyway
            square = a * a
        live = square <= _MAXLOG
        y = np.ones_like(a)
        a, square = a[live], square[live]
        exp_neg_square = np.fromiter(map(math.exp, (-square).tolist()), float, a.size)
        far = a >= 8.0
        erfc = np.empty_like(a)
        erfc[~far] = _erfc_tail(a[~far], exp_neg_square[~far], _NEAR)
        erfc[far] = _erfc_tail(a[far], exp_neg_square[far], _FAR)
        y[live] = 1.0 - erfc
        out[tail] = np.copysign(y, x[tail])
    return out


def standard_normal_pdf(x):
    """Density of N(0, 1) at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def standard_normal_cdf(x):
    """``Phi(x)`` for scalar or array ``x``."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + erf(x / _SQRT2))


def standard_normal_quantile(p):
    """Inverse of ``Phi`` — the ``Z_p`` used in Eq. 24's confidence interval."""
    from scipy import special

    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile probability must lie strictly in (0, 1)")
    return _SQRT2 * special.erfinv(2.0 * p - 1.0)


def normal_pdf(x, mean: float, std: float):
    """Density of ``N(mean, std^2)`` at ``x``."""
    if std <= 0:
        raise ValueError("std must be positive")
    x = np.asarray(x, dtype=float)
    z = (x - mean) / std
    return standard_normal_pdf(z) / std


def normal_cdf(x, mean: float, std: float):
    """CDF of ``N(mean, std^2)`` at ``x``."""
    if std <= 0:
        raise ValueError("std must be positive")
    x = np.asarray(x, dtype=float)
    return standard_normal_cdf((x - mean) / std)


def normal_quantile(p, mean: float, std: float):
    """Quantile of ``N(mean, std^2)``."""
    if std <= 0:
        raise ValueError("std must be positive")
    return mean + std * standard_normal_quantile(p)


def symmetric_tail_probability(half_width):
    """``P(|Z| < half_width) = Phi(w) - Phi(-w)`` for standard normal Z.

    This is exactly the accuracy probability of Eq. 11 with
    ``half_width = eps * u_ij``; it is the building block of the max-quality
    objective.  Vectorised over ``half_width``.
    """
    w = np.asarray(half_width, dtype=float)
    if w.ndim == 0:  # scalar callers (the incentive users) skip the array path
        w = float(w)
        if w < 0:
            raise ValueError("half_width must be non-negative")
        return np.float64(_erf_float(w / _SQRT2))
    if np.any(w < 0):
        raise ValueError("half_width must be non-negative")
    return erf(w / _SQRT2)
