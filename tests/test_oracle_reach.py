"""Mixture coefficients cut at the ladder's reach (``oracle._reach_coefficients``)
and made on an arc of G's circle (``oracle._Generating.arc``): both tails
against an independent long-double run of Ruben's per-weight recurrence,
against the full circle, the lengths of their transforms, and the path the
cost rule (``oracle._paths``) takes."""

import math
from bisect import bisect_left
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
    value, paths = paths_taken(call)
    return value, [int(path[5:]) if path.startswith("peel") else 0 for path in paths]


def full_circle(call):
    """call() with every coefficient made on the full circle: no peel, no arc."""
    with mock.patch.object(oracle, "_paths", lambda *args: ["full"]):
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


def tails_taken(call):
    """call() and, for each tail it takes, (path, built): how the
    coefficients it used were made, "arc", "full" (the full circle) or
    "peel m" (m weights peeled), and how many generating functions it built."""
    made, built, tails = [], [], []
    mixture_tail, generating = oracle._mixture_tail, oracle._Generating

    def spy(name, make):
        def call(*args):
            value = make(*args)
            # after make: a peel makes its rest's circle first
            made.append(f"peel {len(args[1])}" if name == "peel" else name)
            return value
        return call

    class Counted(generating):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def tail(*args):
        made.clear()
        built.clear()
        value = mixture_tail(*args)
        tails.append((made[-1], len(built)))
        return value

    with mock.patch.object(oracle, "_mixture_tail", tail), \
            mock.patch.object(oracle, "_Generating", Counted), \
            mock.patch.object(generating, "arc", spy("arc", generating.arc)), \
            mock.patch.object(generating, "coefficients",
                              spy("full", generating.coefficients)), \
            mock.patch.object(oracle, "_reach_coefficients",
                              spy("peel", oracle._reach_coefficients)):
        return call(), tails


def paths_taken(call):
    """call() and, for each tail it takes, its path as ``tails_taken`` names it."""
    value, tails = tails_taken(call)
    return value, [path for path, _ in tails]


@needs_long_double
@pytest.mark.parametrize("f, paths", [
    (0.01, ["peel 45", "arc"]), (0.2, ["full", "arc"]),
    (1.0, ["arc", "arc"]), (3.0, ["arc", "full"]),
])
def test_arc_tails_match_the_recurrence(f, paths):
    # The n = 100, spread 1e4 profile: N = 524,288 points, G kept at 542.
    # Every tail is priced cheapest on the arc; one below 1e-4 (the cdf at
    # 0.01 and 0.2 sum w, 2e-39 and 7e-7, the upper tail at 3 sum w, 2e-5)
    # is made again by the next cheapest way: at 0.01 sum w, whose reach is
    # 1650, 45 weights peeled off; else the full circle.
    w = profile(100, 1e4)
    x = f * float(w.sum())
    want_cdf, want_upper = reference_tails(w, x)
    (cdf, upper), taken = paths_taken(
        lambda: (oracle.weighted_chi2_cdf(w, x), oracle._weighted_chi2(w, x, True)))
    assert taken == paths
    assert [tail >= oracle._ARC_LEAST for tail in (cdf, upper)] == [
        path == "arc" for path in paths]
    assert abs(cdf - want_cdf) <= BOUND
    assert abs(upper - want_upper) <= BOUND


@needs_long_double
def test_arc_np_cell_matches_the_recurrence():
    test = np_cell(100, 1e4)
    sigma = test.sigma
    (alpha, beta), taken = paths_taken(lambda: oracle.np_test_exact_probs(test))
    assert taken == ["arc", "arc"]
    assert abs(alpha - reference_tails(sigma.r_squared, test.threshold)[1]) <= BOUND
    assert abs(beta - reference_tails(sigma.squared, test.threshold)[0]) <= BOUND


# The path of each tail of perfbench's ``exact`` grid: the cdf at sum w,
# then the NP cell's alpha and beta.  n = 1000, spread 1e4 is out of regime.
GRID_PATHS = {
    (10, 1.0): ("full", "full", "full"),
    (10, 2.0): ("full", "full", "full"),
    (10, 1e2): ("full", "full", "peel 2"),
    (10, 1e4): ("peel 3", "peel 3", "peel 3"),
    (100, 1.0): ("full", "full", "full"),
    (100, 2.0): ("full", "full", "full"),
    (100, 1e2): ("full", "full", "full"),
    (100, 1e4): ("arc", "arc", "arc"),
    (1000, 1.0): ("full", "full", "full"),
    (1000, 2.0): ("full", "full", "full"),
    (1000, 1e2): ("full", "full", "full"),
}


@pytest.mark.parametrize("n, spread", sorted(GRID_PATHS))
def test_grid_tails_take_their_paths(n, spread):
    # Each tail builds its mixture's generating function, and a peel the one
    # rest it peels to: no rest is built to be priced.
    w = profile(n, spread) if spread > 1 else np.ones(n)
    test = np_cell(n, spread)
    _, tails = tails_taken(
        lambda: (oracle.weighted_chi2_cdf(w, float(w.sum())), oracle.np_test_exact_probs(test)))
    assert tuple(path for path, _ in tails) == GRID_PATHS[n, spread]
    assert [built for _, built in tails] == [1 + path.startswith("peel") for path, _ in tails]


@pytest.mark.parametrize("upper", [False, True])
def test_a_rest_out_of_regime_takes_the_full_circle(upper):
    # The n = 10, spread 1e4 tails at sum w peel 3 weights.  If the rest's own
    # Chernoff grid raises OutOfRegime, the tail takes the cheaper way from
    # G's band, here the full circle, with its bits.
    w = profile(10, 1e4)
    x = float(w.sum())

    def tail():
        return oracle._weighted_chi2(w, x, upper)

    def refused():
        generating = oracle._Generating

        def build(v, counts=None):
            if v.size < w.size:
                raise OutOfRegime("the rest's own grid")
            return generating(v, counts)

        with mock.patch.object(oracle, "_Generating", build):
            return tail()

    assert paths_taken(tail)[1] == ["peel 3"]
    got, taken = paths_taken(refused)
    assert taken == ["full"]
    assert got.hex() == full_circle(tail).hex()


def test_arc_coefficients_match_the_full_circle():
    # The window of the n = 100, spread 1e4 cdf at the mean.  The three FFTs
    # of the arc leave about twice the rounding of the full circle's one:
    # against the long-double recurrence the full circle is within 4.9e-16
    # of the largest coefficient and the arc within 1.0e-15.
    w = profile(100, 1e4)
    mixture = oracle._Generating(w)
    window = oracle._ladder_window(50.0, float(w.sum()) / 2.0, mixture.terms)
    start, stop = window[4], window[3]
    assert stop - start < 20_000 < start
    full = mixture.coefficients()
    arc = mixture.arc(start, stop)
    assert np.abs(arc - full[start:stop]).max() <= 1.5e-15 * full.max()


@pytest.mark.parametrize("n, spread", [(10, 1e2), (100, 1e4), (1000, 1e2)])
def test_mass_below_matches_the_prefix_sums(n, spread):
    mixture = oracle._Generating(profile(n, spread))
    terms = mixture.terms
    m = np.unique(np.append(np.linspace(0, terms, 101).astype(int), [1, 7, terms - 1]))
    prefix = np.concatenate(([0.0], oracle._prefix_sums(mixture.coefficients())))
    got = mixture.mass_below(m)
    assert np.abs(got - prefix[m]).max() <= 1e-15
    assert got[0] == 0.0 and got[-1] == 1.0


@pytest.mark.parametrize("cell", ["cdf", "np"])
def test_arc_cells_make_no_transform_past_the_arc(cell):
    # The n = 100, spread 1e4 cells: every FFT is at most the arc's length,
    # _fast_length(window + kept - 1), never the 524,288-point full circle.
    bounds, lengths = [], []
    paths, fft = oracle._paths, np.fft

    def spy_paths(mixture, start, reach):
        bounds.append(oracle._fast_length(reach - start + mixture.kept - 1))
        return paths(mixture, start, reach)

    def spy(transform):
        def call(a, n=None, *args, **kwargs):
            lengths.append((bounds[-1], np.shape(a)[-1] if n is None else n))
            return transform(a, n, *args, **kwargs)
        return call

    w = profile(100, 1e4)
    with mock.patch.object(oracle, "_paths", spy_paths), \
            mock.patch.object(np.fft, "fft", spy(fft.fft)), \
            mock.patch.object(np.fft, "ifft", spy(fft.ifft)), \
            mock.patch.object(np.fft, "irfft", spy(fft.irfft)):
        if cell == "cdf":
            oracle.weighted_chi2_cdf(w, float(w.sum()))
        else:
            oracle.np_test_exact_probs(np_cell(100, 1e4))
    assert len(lengths) == (3 if cell == "cdf" else 6)  # three per tail
    assert all(length <= bound < 2**19 for bound, length in lengths)


def bisected_kept(mixture):
    """``_Generating.kept`` as a bisection made it, one ln G call a step."""
    floor = math.log(1e-16 / mixture.terms)
    return bisect_left(range(mixture.terms // 2 + 1), True, 1,
                       key=lambda j: mixture.ln_gf(j)[0].real <= floor)


def kept_profiles():
    """The weights of every exact-grid and pinned oracle tail that makes a
    generating function: each profile, and an NP test's two weight vectors."""
    for n in (2, 10, 100, 1000):
        for spread in (2.0, 1e2, 1e4):
            w = profile(n, spread)
            sigma = np_cell(n, spread).sigma
            for weights in (w, sigma.r_squared, sigma.squared):
                yield f"{n}-{spread:g}", np.sort(weights)


def test_kept_matches_the_bisection():
    checked = 0
    for label, w in kept_profiles():
        try:
            mixture = oracle._Generating(w)
        except OutOfRegime:
            continue
        assert mixture.kept == bisected_kept(mixture), label
        checked += 1
    assert checked == 33


@st.composite
def wide_weights(draw):
    """20-400 distinct weights spread 1e2-4e3, as ``TestOracleWindow`` draws them."""
    n = draw(st.integers(20, 400))
    spread = 10.0 ** draw(st.floats(2.0, math.log10(4e3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.exp(rng.uniform(0.0, math.log(spread), n))


@given(wide_weights(), st.floats(0.1, 5.0))
@settings(max_examples=25, deadline=None)
def test_arc_equals_the_full_circle(w, frac):
    x = frac * float(w.sum())
    for upper in (False, True):
        def tail():
            return oracle._weighted_chi2(w, x, upper)
        got, want = outcome(tail), outcome(lambda: full_circle(tail))
        if isinstance(want, str):
            assert got == want
        else:
            assert abs(got - want) <= BOUND
