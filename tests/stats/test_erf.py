"""The numpy port of Cephes ``erf`` returns scipy's bits for every double.

Eq. 11's ``p_ij`` and ``Phi`` run on :func:`repro.stats.normal.erf`; the
frozen oracle is :func:`repro.perf.reference.reference_erf`
(:func:`scipy.special.erf`).  The draws cover each branch of the kernel and
its seams: the ``|x| <= 1`` polynomial, the P/Q fit below 8, the R/S fit
from 8, the ``x*x > MAXLOG`` underflow cut near 26.6, signed zeros,
subnormals, infinities and NaN.
"""

import warnings

import numpy as np
import pytest

from repro.perf.reference import reference_erf
from repro.stats.normal import _MAXLOG, erf, standard_normal_cdf, symmetric_tail_probability


def _neighbours(value, steps=64):
    """``value`` and its ``steps`` nearest doubles on each side, both signs."""
    out = [value]
    for direction in (np.inf, -np.inf):
        x = value
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    out = np.array(out)
    return np.concatenate((out, -out))


def _edges():
    subnormals = np.array([5e-324, 1e-320, 2.0**-1060, np.nextafter(2.2250738585072014e-308, 0.0)])
    return np.concatenate(
        (
            [0.0, -0.0, np.inf, -np.inf, np.nan],
            subnormals,
            -subnormals,
            [2.2250738585072014e-308, -2.2250738585072014e-308],
            _neighbours(1.0),
            _neighbours(8.0),
            _neighbours(float(np.sqrt(_MAXLOG))),
            np.linspace(26.0, 27.5, 10_001),
            -np.linspace(26.0, 27.5, 10_001),
            [1e10, -1e10, 1.7976931348623157e308, -1.7976931348623157e308],
        )
    )


def _draws():
    rng = np.random.default_rng(2017)
    return {
        "uniform": rng.uniform(-30.0, 30.0, 1_000_000),
        "unit-grid": np.linspace(0.0, 1.0, 1_000_001),
        "edges": _edges(),
    }


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@pytest.mark.parametrize("name", ["uniform", "unit-grid", "edges"])
def test_erf_is_scipy_bit_for_bit(name):
    x = _draws()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf and NaN raise no RuntimeWarning
        got = erf(x)
    _assert_same_bits(got, reference_erf(x))


def test_signs_of_zero_and_limits():
    got = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert np.signbit(got[:2]).tolist() == [False, True]
    assert got[2:4].tolist() == [1.0, -1.0] and np.isnan(got[4])


@pytest.mark.parametrize("name", ["uniform", "edges"])
def test_standard_normal_cdf_is_the_oracle_form(name):
    x = _draws()[name]
    _assert_same_bits(standard_normal_cdf(x), 0.5 * (1.0 + reference_erf(x / np.sqrt(2.0))))


def test_scalar_path_has_the_array_paths_bits():
    rng = np.random.default_rng(39)
    x = np.concatenate(
        (_edges()[:2_000], rng.uniform(-30.0, 30.0, 5_000), rng.uniform(-1.0, 1.0, 2_000))
    )
    array = erf(x)
    scalar = np.array([erf(value) for value in x.tolist()])
    assert all(type(erf(value)) is np.float64 for value in (0.5, np.float64(3.0), np.array(-9.0)))
    _assert_same_bits(scalar, array)

    w = np.abs(x)
    scalar = np.array([symmetric_tail_probability(v) for v in w.tolist()])
    _assert_same_bits(scalar, symmetric_tail_probability(w))


def test_array_layouts_and_shapes():
    rng = np.random.default_rng(5)
    block = rng.uniform(-12.0, 12.0, (37, 9))
    want = reference_erf(block)
    for x in (block, np.asfortranarray(block), block[:, ::2], block.T):
        _assert_same_bits(erf(x), reference_erf(x))
    assert erf(np.empty((0, 3))).shape == (0, 3)
    _assert_same_bits(erf(block.tolist()), want)
