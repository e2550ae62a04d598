"""The oracle's ladder of Poisson terms against 40-digit mpmath."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest

from gausdet import oracle

SUBNORMAL_STEP = 2.0**-1074
SHAPES = (0.5, 1.0, 1.5, 7.5, 50.0, 500.5, 5e3, 5e4)


def ladder_pq(s, y):
    """(P(s, y), Q(s, y)) from the ladder: the smaller made, the other 1 minus it."""
    split, q, p = oracle._ladder_sums(s, y, np.ones(1))
    return (1.0 - q, q) if split else (p, 1.0 - p)


def grid():
    for s in SHAPES:
        ys = [s * f for f in (0.2, 0.9, 1.0, 1.1, 3.0)]
        ys += [s + 40.0 * math.sqrt(s), s - 40.0 * math.sqrt(s)]
        yield from ((s, y) for y in ys if y > 0.0)
    # Normal values below 1e-300: P(50, 1.5e-5) = 2.1e-306, Q(7.5, 740) = 1.0e-306.
    yield from ((50.0, 1.5e-5), (7.5, 740.0))


def test_stirlerr_table_within_one_ulp():
    with mpmath.workdps(40):
        for i, got in enumerate(oracle._STIRLERR):
            s = mpmath.mpf(i + 1) / 2
            want = (mpmath.loggamma(s + 1) - (s + mpmath.mpf(0.5)) * mpmath.log(s)
                    + s - mpmath.log(2 * mpmath.pi) / 2)
            assert abs(got - want) <= math.ulp(got), s


def test_stirlerr_series_above_the_table():
    s = np.array([15.5, 16.0, 40.0, 1e3, 1e5])
    got = oracle._stirlerr(s)
    with mpmath.workdps(40):
        for si, g in zip(s, got):
            si = mpmath.mpf(si)
            want = (mpmath.loggamma(si + 1) - (si + mpmath.mpf(0.5)) * mpmath.log(si)
                    + si - mpmath.log(2 * mpmath.pi) / 2)
            assert abs(g - want) <= 2e-16


@pytest.mark.parametrize("s, y", list(grid()))
def test_p_and_q_match_mpmath(s, y):
    # Relative 1e-13, or within a few steps of the subnormal spacing.
    got_p, got_q = ladder_pq(s, y)
    with mpmath.workdps(40):
        want_p = mpmath.gammainc(s, 0, y, regularized=True)
        want_q = mpmath.gammainc(s, y, mpmath.inf, regularized=True)
        for got, want in ((got_p, want_p), (got_q, want_q)):
            assert abs(got - want) <= 1e-13 * want + 4 * SUBNORMAL_STEP


def test_grid_reaches_below_1e_300():
    tails = [min(ladder_pq(s, y)) for s, y in grid()]
    assert any(0.0 < t < 2.2250738585072014e-308 for t in tails)  # subnormal
    assert any(2.2250738585072014e-308 <= t < 1e-300 for t in tails)


@pytest.mark.parametrize("x, lower", [(0.0, 0.0), (1e12, 1.0)])
def test_far_tails_are_exact_and_make_no_terms(x, lower):
    made = []

    def counted(t, y):
        made.append(t.size)
        return poisson_terms(t, y)

    poisson_terms = oracle._poisson_terms
    with mock.patch.object(oracle, "_poisson_terms", counted):
        assert oracle.weighted_chi2_cdf([1.0, 2.0, 3.0], x) == lower
        assert oracle._weighted_chi2([1.0, 2.0, 3.0], x, upper=True) == 1.0 - lower
    assert sum(made) == 0


def test_anchored_terms_match_loader_form():
    # Between anchors the terms come from the recurrence tau_t = tau_(t-1) y / t.
    y = 812.3
    t = 0.5 + np.arange(700.0, 980.0)
    got = oracle._poisson_terms(t, y)
    with mpmath.workdps(40):
        for ti, g in zip(t, got):
            want = mpmath.exp(-y + ti * mpmath.log(y) - mpmath.loggamma(ti + 1))
            assert abs(g - want) <= 1e-14 * want


def test_tails_are_python_floats():
    for w, x in (([1.0, 2.0, 3.0], 2.0), ([1.5] * 4, 6.0), ([1.0, 4.0], 0.5)):
        assert type(oracle.weighted_chi2_cdf(w, x)) is float
        assert type(oracle._weighted_chi2(w, x, upper=True)) is float


ERFC_XS = (2.0, 10.0, 50.0, 150.0, 300.0, 500.0, 700.0)


@pytest.mark.parametrize("x", ERFC_XS)
def test_single_weight_upper_tail_is_relatively_accurate(x):
    # w = 1/2 makes x / 2w = x exact; the tail at x = 700 is 2.1e-306.
    got = oracle._weighted_chi2([0.5], x, upper=True)
    with mpmath.workdps(40):
        want = mpmath.erfc(mpmath.sqrt(mpmath.mpf(x)))
        assert abs(got - want) <= 2e-16 * want


@pytest.mark.parametrize("w", [0.3, 1.7, 0.1234567, 3e-5, 1e5])
def test_single_weight_upper_tail_keeps_the_rounding_of_x_over_2w(w):
    # A rounded x / 2w would be amplified about x/2w-fold, up to 5e-14 here.
    for x in ERFC_XS:
        x *= 2.0 * w
        got = oracle._weighted_chi2([w], x, upper=True)
        with mpmath.workdps(40):
            want = mpmath.erfc(mpmath.sqrt(mpmath.mpf(x) / (2 * mpmath.mpf(w))))
            assert abs(got - want) <= 4e-16 * want, x


@pytest.mark.parametrize("y", ERFC_XS)
def test_ladder_bottom_at_shape_one_half(y):
    # y >= 1: Q(1/2, y) is the side made, and with no terms below shape 1/2
    # it is the ladder's bottom alone.
    split, q, _ = oracle._ladder_sums(0.5, y, np.ones(1))
    assert split == 1
    with mpmath.workdps(40):
        want = mpmath.erfc(mpmath.sqrt(mpmath.mpf(y)))
        assert abs(q - want) <= 2e-16 * want


@pytest.mark.parametrize("w", [5e-324, 1e-300, 0.5, 1e300, 1.7e308])
@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308])
def test_single_weight_at_the_ends_of_the_float_range(w, x):
    upper = oracle._weighted_chi2([w], x, upper=True)
    lower = oracle.weighted_chi2_cdf([w], x)
    assert 0.0 <= upper <= 1.0 and 0.0 <= lower <= 1.0
    assert upper + lower == pytest.approx(1.0, abs=1e-15)
