"""Mixture coefficients cut at the ladder's reach (``oracle._reach_coefficients``):
both tails against an independent long-double run of Ruben's per-weight
recurrence, against the full circle, and the lengths of their transforms."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausdet import IntensityVector, NpTest, oracle, signal_statistics
from gausdet.errors import OutOfRegime

BOUND = 5e-15  # absolute error bound stated in the weighted_chi2_cdf docstring
LD = np.longdouble
# The reference below needs a type wider than a double: x87 long double has a
# 64-bit significand.  Where np.longdouble is a plain double (as on some
# platforms), its recurrence is no better than the code it checks, so the
# tests that use it are skipped there.
needs_long_double = pytest.mark.skipif(
    np.finfo(LD).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than a double here",
)


def ruben_coefficients(w, size):
    """The first size a_k of Ruben's mixture of distinct weights w, by the
    per-weight recurrence B_(i,k) = r_i (B_(i,k-1) + a_(k-1)),
    a_k = sum_i B_(i,k) / 2k, a_0 = prod sqrt(p_i), in long double.  Every
    term is positive, and the cost is O(size n)."""
    w = np.asarray(w, dtype=LD)
    p = w.min() / w
    r = 1 - p
    a = np.empty(size, dtype=LD)
    a[0] = np.prod(np.sqrt(p))
    b = np.zeros_like(r)
    for k in range(1, size):
        b = r * (b + a[k - 1])
        a[k] = b.sum() / (2 * k)
    return a


def poisson_terms(t0, count, y, anchor=64):
    """tau_t = e^-y y^t / Gamma(t + 1) at t = t0, t0 + 1, ..., in long double:
    30-digit mpmath every ``anchor`` terms, then tau_t = tau_(t-1) y / t.
    y is an mpmath number."""
    tau = np.empty(count, dtype=LD)
    with mpmath.workdps(30):
        for s in range(0, count, anchor):
            t = mpmath.mpf(t0) + s
            ln_tau = -y + t * mpmath.log(y) - mpmath.loggamma(t + 1)
            block = np.full(min(anchor, count - s), LD(mpmath.nstr(y, 25)))
            block /= LD(t0) + np.arange(s, s + block.size, dtype=LD)
            block[0] = np.exp(LD(mpmath.nstr(ln_tau, 25)))
            tau[s:s + block.size] = np.cumprod(block)
    return tau


def reference_tails(w, x):
    """(cdf, upper tail) at x of sum w_i xi_i^2, for distinct weights.

    P(n/2 + k, y) = sum_(j >= k) tau_(n/2 + j), so the cdf is
    sum_j tau_(n/2 + j) (a_0 + ... + a_j), positive terms; shapes past
    y + 40 sqrt(y) + 60 carry less than 1e-300."""
    h = 0.5 * len(w)
    with mpmath.workdps(30):
        y = mpmath.mpf(x) / (2 * mpmath.mpf(float(np.min(w))))
    size = max(1, math.ceil(float(y) - h + 40.0 * math.sqrt(float(y)) + 60.0))
    cdf = np.sum(poisson_terms(h, size, y) * np.cumsum(ruben_coefficients(w, size)))
    return float(cdf), float(1 - cdf)


def profile(n, spread):
    return np.geomspace(1.0, spread, n)


def np_cell(n, spread):
    """The NP test of perfbench's exact grid: sigma^2 proportional to the
    profile, sum sigma^2 = 3 sqrt(n), at the middle of the window."""
    w = profile(n, spread)
    sigma = IntensityVector(np.sqrt(w * 3.0 * math.sqrt(n) / w.sum()))
    lo, hi = signal_statistics(sigma).window
    return NpTest(sigma, 0.5 * (lo + hi))


def peel_counts(call):
    """call() and the number of weights peeled in each tail it takes."""
    counts = []

    def spy(mixture, reach):
        peeled = peel(mixture, reach)
        counts.append(0 if peeled is None else len(peeled[1]))
        return peeled

    peel = oracle._peel
    with mock.patch.object(oracle, "_peel", spy):
        return call(), counts


def full_circle(call):
    """call() with every coefficient made on the full circle."""
    with mock.patch.object(oracle, "_peel", lambda mixture, reach: None):
        return call()


@needs_long_double
@pytest.mark.parametrize("n, spread", [(2, 1e4), (10, 1e4)])
def test_peeled_tails_match_the_recurrence(n, spread):
    w = profile(n, spread)
    for f in (0.01, 0.2, 1.0, 3.0):
        x = f * float(w.sum())
        want_cdf, want_upper = reference_tails(w, x)
        (cdf, upper), peeled = peel_counts(
            lambda: (oracle.weighted_chi2_cdf(w, x), oracle._weighted_chi2(w, x, True)))
        assert min(peeled) > 0, f
        assert abs(cdf - want_cdf) <= BOUND, f
        assert abs(upper - want_upper) <= BOUND, f


@needs_long_double
@pytest.mark.parametrize("n, spread, f", [(10, 1e4, 1e-3), (10, 1e4, 1e-4), (12, 1e4, 1e-4)])
def test_small_peeled_cdf_is_relatively_accurate(n, spread, f):
    # At these x the cdf is 1.1e-8, 2.2e-13 and 5.9e-16: its leading
    # coefficients are direct sums, not FFT products.
    w = profile(n, spread)
    x = f * float(w.sum())
    want, _ = reference_tails(w, x)
    assert want < 1e-7
    got, peeled = peel_counts(lambda: oracle.weighted_chi2_cdf(w, x))
    assert peeled[0] > 0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@needs_long_double
def test_peeled_np_cell_matches_the_recurrence():
    # Both tails of the n = 10, spread 1e4 NP cell peel weights off.
    test = np_cell(10, 1e4)
    sigma = test.sigma
    (alpha, beta), peeled = peel_counts(lambda: oracle.np_test_exact_probs(test))
    assert min(peeled) > 0
    assert abs(alpha - reference_tails(sigma.r_squared, test.threshold)[1]) <= BOUND
    assert abs(beta - reference_tails(sigma.squared, test.threshold)[0]) <= BOUND


@needs_long_double
@pytest.mark.parametrize("n, spread", [(20, 1e3), (50, 1e2), (200, 3.0)])
def test_unsorted_weights_match_the_recurrence(n, spread):
    # The oracle sums over the weights ascending, whatever their order.
    w = spread ** np.random.default_rng(n).random(n)
    for f in (0.3, 1.0, 2.0):
        x = f * float(w.sum())
        want_cdf, want_upper = reference_tails(w, x)
        assert abs(oracle.weighted_chi2_cdf(w, x) - want_cdf) <= BOUND, f
        assert abs(oracle._weighted_chi2(w, x, True) - want_upper) <= BOUND, f


@pytest.mark.parametrize("p, half", [(1e-4, 0.5), (2.8e-4, 0.5), (0.01, 1.0), (0.3, 0.5)])
def test_negative_binomial_factor_matches_mpmath(p, half):
    # The rounding of ln(1 - p) grows k-fold: (1 + k p) 4e-16 relative,
    # about 4e-16 over the bulk of the factor's mass, k p <= 10.
    b = oracle._negative_binomial(p, half, 20_000)
    with mpmath.workdps(40):
        P, H = mpmath.mpf(p), mpmath.mpf(half)
        for k in (0, 1, 7, 19, 100, 1000, 19_999):
            want = mpmath.exp(H * mpmath.log(P) + mpmath.loggamma(H + k) - mpmath.loggamma(H)
                              - mpmath.loggamma(k + 1) + k * mpmath.log(1 - P))
            if want > 1e-250:
                assert abs(b[k] - want) <= (1.0 + k * p) * 4e-16 * want, k


@st.composite
def spread_weights(draw):
    """2-12 distinct weights spread up to 1e4, each occurring 1-3 times."""
    d = draw(st.integers(2, 12))
    spread = 10.0 ** draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.unique(np.concatenate(([1.0, spread], spread ** rng.random(d - 2))))
    counts = draw(st.lists(st.integers(1, 3), min_size=values.size, max_size=values.size))
    return rng.permutation(np.repeat(values, counts))


def outcome(call):
    try:
        return call()
    except OutOfRegime as exc:
        return str(exc)


@given(spread_weights(), st.floats(0.01, 4.0))
@settings(max_examples=40, deadline=None)
def test_peeled_equals_the_full_circle(w, frac):
    x = frac * float(w.sum())
    for upper in (False, True):
        def tail():
            return oracle._weighted_chi2(w, x, upper)
        got, want = outcome(tail), outcome(lambda: full_circle(tail))
        if isinstance(want, str):  # OutOfRegime: raised on both paths alike
            assert got == want
        else:
            assert abs(got - want) <= BOUND
    for x, cdf in ((0.0, 0.0), (1e300, 1.0)):
        def tails():
            return oracle.weighted_chi2_cdf(w, x), oracle._weighted_chi2(w, x, True)
        got = outcome(tails)
        assert got == outcome(lambda: full_circle(tails))
        assert isinstance(got, str) or got == (cdf, 1.0 - cdf)


@pytest.mark.parametrize("cell", ["cdf", "np"])
def test_wide_cells_make_no_transform_past_four_reaches(cell):
    # The n = 10, spread 1e4 cells: every inverse FFT is at most 4 times the
    # reach of its tail, never the 458,752-point full circle.
    events = []
    window, irfft = oracle._ladder_window, np.fft.irfft

    def spy_window(h, y, size):
        out = window(h, y, size)
        events.append(("reach", out[3]))
        return out

    def spy_irfft(a, n=None, *args, **kwargs):
        events.append(("irfft", n))
        return irfft(a, n, *args, **kwargs)

    w = profile(10, 1e4)
    test = np_cell(10, 1e4)
    with mock.patch.object(oracle, "_ladder_window", spy_window), \
            mock.patch.object(np.fft, "irfft", spy_irfft):
        if cell == "cdf":
            oracle.weighted_chi2_cdf(w, float(w.sum()))
        else:
            oracle.np_test_exact_probs(test)
    reach = None
    lengths = []
    for kind, value in events:
        if kind == "reach":
            reach = value
        else:
            lengths.append(value / reach)
    assert lengths and max(lengths) <= 4.0
