"""The oracle's ladder of Poisson terms against 40-digit mpmath, and its
grouping of repeated weights."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausdet import IntensityVector, NpTest, oracle
from gausdet.errors import OutOfRegime

SUBNORMAL_STEP = 2.0**-1074
SHAPES = (0.5, 1.0, 1.5, 7.5, 50.0, 500.5, 5e3, 5e4)


def ladder_pq(s, y):
    """(P(s, y), Q(s, y)) from the ladder: the smaller made, the other 1 minus it."""
    split, q, p = oracle._ladder_sums(s, y, np.ones(1), oracle._ladder_window(s, y, 1))
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
    split, q, _ = oracle._ladder_sums(0.5, y, np.ones(1), oracle._ladder_window(0.5, y, 1))
    assert split == 1
    with mpmath.workdps(40):
        want = mpmath.erfc(mpmath.sqrt(mpmath.mpf(y)))
        assert abs(q - want) <= 2e-16 * want


@pytest.mark.parametrize("h", [1.0, 1.5, 50.0, 50.5, 500.0])
def test_ladder_bottom_is_zero_below_a_window_start(h):
    # _ladder_sums reads no a_k below the window's start: there every
    # Q(h + k, y) is the bottom Q(t_0, y), and it underflows to 0.
    starts = 0
    for y in np.geomspace(100.0, 1e7, 200):
        start = oracle._ladder_window(h, y, 2**19)[4]
        if start:
            starts += 1
            assert (math.exp(-y) if h == math.floor(h) else math.erfc(math.sqrt(y))) == 0.0
    assert starts > 100


@pytest.mark.parametrize("w", [5e-324, 1e-300, 0.5, 1e300, 1.7e308])
@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308])
def test_single_weight_at_the_ends_of_the_float_range(w, x):
    upper = oracle._weighted_chi2([w], x, upper=True)
    lower = oracle.weighted_chi2_cdf([w], x)
    assert 0.0 <= upper <= 1.0 and 0.0 <= lower <= 1.0
    assert upper + lower == pytest.approx(1.0, abs=1e-15)


@st.composite
def repeated_weights(draw):
    """Weights in which some positive value repeats, zeros mixed in."""
    values = draw(st.lists(st.floats(0.25, 4.0), min_size=1, max_size=6, unique=True))
    counts = draw(st.lists(st.integers(1, 5), min_size=len(values),
                           max_size=len(values)))
    counts[0] = max(counts[0], 2)
    zeros = np.zeros(draw(st.integers(0, 3)))
    return np.concatenate((np.repeat(values, counts), zeros))


@given(repeated_weights(), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_repeated_weights_give_the_same_bits_in_any_order(w, seed, frac):
    x = frac * float(w.sum())
    shuffled = np.random.default_rng(seed).permutation(w)
    for upper in (False, True):
        assert (oracle._weighted_chi2(shuffled, x, upper)
                == oracle._weighted_chi2(w, x, upper))


@st.composite
def distinct_weights(draw):
    """2-30 distinct weights spread up to 1e3, zeros mixed in or not."""
    n = draw(st.integers(2, 30))
    spread = 10.0 ** draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = np.zeros(draw(st.integers(0, 3)))
    return np.concatenate((spread ** rng.random(n), zeros))


@given(distinct_weights(), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_distinct_weights_give_the_same_bits_in_any_order(w, seed, frac):
    # The all-distinct twin of the test above: every input reaches the
    # mixture as its distinct positive weights ascending.
    x = frac * float(w.sum())
    shuffled = np.random.default_rng(seed).permutation(w)
    for upper in (False, True):
        assert (oracle._weighted_chi2(shuffled, x, upper)
                == oracle._weighted_chi2(w, x, upper))


@st.composite
def sigmas_with_runs(draw):
    """Intensities whose values may repeat, with zeros mixed in, and with
    values near 30 whose null weights s^2/(1 + s^2) round equal."""
    values = draw(st.lists(st.floats(0.5, 4.0), min_size=1, max_size=5, unique=True))
    values += [30.0, math.nextafter(30.0, 31.0), math.nextafter(30.0, 29.0)][
        :draw(st.integers(0, 3))]
    counts = draw(st.lists(st.integers(1, 4), min_size=len(values),
                           max_size=len(values)))
    zeros = np.zeros(draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return IntensityVector(rng.permutation(np.concatenate((np.repeat(values, counts), zeros))))


@given(sigmas_with_runs(), st.floats(0.0, 3.0))
@settings(max_examples=100, deadline=None)
@example(IntensityVector(np.random.default_rng(0).uniform(0.5, 2.0, 30)), 1.0)
# Ascending sigma whose null weights fall by an ulp: r^2 is not monotone.
@example(IntensityVector([1.7613125099780726, 1.7613125099780724,
                          1.3311357532599017, 1.7145661638691667]), 1.0)
def test_exact_probs_take_sigma_runs_bit_for_bit(sigma, frac):
    """np_test_exact_probs takes its weights by run from sigma.runs, for
    every sigma: the bits of the oracle on the dense weights."""
    test = NpTest(sigma, frac * float(np.sum(sigma.squared)) - sigma.D)
    thr = test.threshold

    def outcome(call):
        try:
            return call()
        except OutOfRegime as exc:
            return str(exc)

    want = outcome(lambda: (oracle._weighted_chi2(sigma.r_squared, thr, True),
                            oracle.weighted_chi2_cdf(sigma.squared, thr)))
    assert outcome(lambda: oracle.np_test_exact_probs(test)) == want


def ruben_cdf(w, xs):
    """P(sum w_i xi_i^2 <= x) at each x from Ruben's (1962) recurrence at 40
    digits: with p_i = min w / w_i and r_i = 1 - p_i, a_0 = prod sqrt(p_i)
    and k a_k = (1/2) sum_(j=1..k) g_j a_(k-j), g_j = sum_i r_i^j, taken
    until the a_k's mass is within 1e-25 of 1."""
    with mpmath.workdps(40):
        w = [mpmath.mpf(float(v)) for v in w]
        beta = min(w)
        r = [1 - beta / v for v in w]
        a = [mpmath.fprod(mpmath.sqrt(beta / v) for v in w)]
        g, powers = [], r
        while 1 - mpmath.fsum(a) > mpmath.mpf("1e-25"):
            g.append(mpmath.fsum(powers))
            powers = [u * v for u, v in zip(powers, r)]
            k = len(a)
            a.append(mpmath.fsum(g[j - 1] * a[k - j] for j in range(1, k + 1)) / (2 * k))
        return [float(mpmath.fsum(
            ak * mpmath.gammainc(mpmath.mpf(len(w)) / 2 + k, 0, x / (2 * beta),
                                 regularized=True) for k, ak in enumerate(a)))
            for x in map(mpmath.mpf, xs)]


def test_all_distinct_weights_against_ruben_recurrence():
    # Ungrouped weights sum ln G over every row; at n = 100 both tails stay
    # within the stated 5e-15, at the mean and four deviations either side.
    w = np.linspace(0.5, 1.5, 100) ** 2
    mean, sd = float(w.sum()), math.sqrt(2.0 * float(w @ w))
    xs = [mean - 4.0 * sd, mean, mean + 4.0 * sd]
    for x, want in zip(xs, ruben_cdf(w, xs)):
        assert abs(oracle.weighted_chi2_cdf(w, x) - want) <= 5e-15
        assert abs(oracle._weighted_chi2(w, x, upper=True) - (1.0 - want)) <= 5e-15
