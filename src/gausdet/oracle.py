"""The exact oracle for the weighted chi-square probabilities behind alpha and beta.

It has one path for every weight vector: the chi-square mixture of Ruben
(1962), whose coefficients come from one inverse FFT of their generating
function.  Both tails are sums over the same coefficients, with an absolute
error below 5e-15; a weight spread that needs more than 2^19 terms raises
OutOfRegime.  The term count is the least the Chernoff bound allows,
rounded up by at most 25% to a length the FFT handles fast.
``np_test_exact_probs`` takes its weights by run (``IntensityVector.runs``):
when a value of sigma repeats, one weight per distinct value with its
count, so the generating function's log sums cost one row per distinct
weight and a flat sigma is one incomplete gamma at any n; when none does,
the dense weights in their own order.

The mixture's incomplete gammas P(n/2 + k, y) and Q(n/2 + k, y) need no
special function.  P(s + 1, y) = P(s, y) - tau_s with the Poisson term
tau_s = e^-y y^s / Gamma(s + 1), so on the lattice s = n/2 + Z each P is
the sum of the terms at and above its shape, and each Q the sum of those
below it, plus Q(1, y) = e^-y or Q(1/2, y) = erfc(sqrt y) (``_ladder_sums``).
Each term comes from Loader's saddle-point form (2000, "Fast and accurate
computation of binomial probabilities"), and only the terms that do not
underflow are made, so a call costs at most min(N + n/2, about 80 sqrt y)
of them for N mixture terms.  The module needs numpy and the standard
library only.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .errors import InvalidInput, OutOfRegime
from .model import (
    NpTest,
    _as_number,
    _as_vector,
    null_weights_by_run,
    squares_by_run,
    sum_by_run,
)

_MASS_TOL = 1e-16  # mass each of the three truncations below may move
_MAX_TERMS = 2**19  # 4 MB of coefficients; wider spreads are out of regime
# Below this, ln tau_s leaves the term under the least subnormal, 2^-1074.
_LN_UNDERFLOW = -746.0
_DEKKER = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_LN2_HI = 726817 / 2**20  # ln 2 to 20 bits: its products with x k up to 2^33 are exact
_LN2_LO = 4.7493250390316726e-07  # ln 2 - _LN2_HI
_SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
# Divisors for which x/d - fl(x/d) is exact wherever erfc(sqrt(x/d)) needs it.
_EXACT_LO, _EXACT_HI = 2.0**-800, 2.0**800
_ANCHOR = 16  # Poisson terms per anchor made by the saddle-point form

# stirlerr(s) = ln Gamma(s + 1) - (s + 1/2) ln s + s - ln(2 pi)/2 for
# s = 1/2, 1, ..., 15, each the double nearest the 40-digit value.
_STIRLERR = np.array([
    0.15342640972002736, 0.08106146679532726, 0.05481412105191765,
    0.0413406959554093, 0.03316287351993629, 0.02767792568499834,
    0.023746163656297496, 0.020790672103765093, 0.018488450532673187,
    0.016644691189821193, 0.015134973221917378, 0.013876128823070748,
    0.012810465242920227, 0.01189670994589177, 0.011104559758206917,
    0.010411265261972096, 0.009799416126158804, 0.009255462182712733,
    0.008768700134139386, 0.00833056343336287, 0.00793411456431402,
    0.007573675487951841, 0.007244554301320383, 0.00694284010720953,
    0.006665247032707682, 0.006408994188004207, 0.006171712263039458,
    0.0059513701127588475, 0.0057462165130101155, 0.005554733551962801,
])


def _mixture_coefficients(w: np.ndarray, counts=None):
    """(beta, a): sum w_i xi_i^2 equals beta chi2_{n+2K} in law, P(K=k) = a_k.

    With counts, weight w_i stands for counts[i] equal weights: every sum
    over the weights takes count times one row per distinct weight, so the
    cost is set by the distinct weights, not by n.

    With beta = min w, p_i = beta/w_i and r_i = 1 - p_i, K has generating
    function G(z) = prod (p_i / (1 - r_i z))^(1/2) (Ruben 1962), so a_k >= 0
    and sum a_k = 1.  By the Chernoff bound G(z) z^-N, N terms leave at most
    1e-16 of K's mass at or past N once ln G(z) + (n/2 + N) ln(1/z) <=
    ln 1e-16 at some z of a grid in (1, 1/max r); ``need``, the least such
    N (at least 64), is solved for directly.  The term count is the least
    m 2^e >= need with m in {4, ..., 8}: at most 25% above ``need``, and a
    length the FFT handles fast.  A ``need`` above 2^19 raises
    OutOfRegime.  One inverse FFT of G on the N-th roots of unity gives a_k
    plus the aliased a_(k+N), a_(k+2N), ...: at most 1e-16 in all.
    |G(e^(-i theta))| falls on [0, pi], so G is set to zero past the last
    point where it exceeds 1e-16/N, which moves each a_k by at most
    1e-16/N.  Equal weights give K = 0: a = [1].
    """
    beta, top = float(np.min(w)), float(np.max(w))
    if beta == top:
        return beta, np.ones(1)
    n = w.size if counts is None else float(np.sum(counts))
    p = beta / w
    r = 1.0 - p
    cols = max(1, 2**16 // w.size)  # bounds each (weights, points) array
    # z = 1/(1 - v beta/top) with v in (0, 1) spans (1, 1/max r); there
    # ln G(z) z^-N = -sum ln(1 - v w_i/top)/2 + (n/2 + N) ln(1 - v beta/top).
    v = 1.0 - 2.0 ** -np.arange(1.0, 53.0)
    ln_g = -0.5 * np.concatenate([
        sum_by_run(np.log1p(np.multiply.outer(w / -top, v[i:i + cols])), counts)
        for i in range(0, v.size, cols)
    ])
    ln_step = np.log1p(-v * (beta / top))
    need = float(np.min((math.log(_MASS_TOL) - ln_g) / ln_step)) - 0.5 * n
    if need > _MAX_TERMS:
        raise OutOfRegime(
            f"weight spread {top / beta:.3g} over {n:.0f} weights needs "
            f"more than {_MAX_TERMS} mixture terms"
        )
    need = max(64, math.ceil(need))
    scale = need.bit_length() - 3  # need / 2^scale is in [4, 8)
    terms = -(-need >> scale) << scale

    # Weight-major columns: each (weights, points) block is summed over axis 0.
    p4, r2, p_col, r_col = (c[:, None] for c in (4.0 * r / p**2, 2.0 * r, p, r))

    def ln_gf(j):
        """ln G(e^(-i theta_j)), theta_j = 2 pi j / N, for an array of j.

        |1 - r e^(-i theta)|^2 = p^2 + 4 r sin^2(theta/2) and the real part
        p + 2 r sin^2(theta/2) are formed without cancellation, so no mass
        is lost when p_i is small.
        """
        theta = (2.0 * math.pi / terms) * np.atleast_1d(j)
        s2 = np.sin(0.5 * theta) ** 2
        modulus = p4 * s2
        modulus = sum_by_run(np.log1p(modulus, out=modulus), counts)
        real = r2 * s2
        real += p_col
        phase = r_col * np.sin(theta)
        phase = sum_by_run(np.arctan2(phase, real, out=phase), counts)
        return -0.25 * modulus - 0.5j * phase

    floor = math.log(_MASS_TOL / terms)
    kept = bisect_left(range(terms // 2 + 1), True, 1,
                       key=lambda j: ln_gf(j)[0].real <= floor)
    g = np.zeros(terms // 2 + 1, dtype=complex)
    for lo in range(0, kept, cols):
        hi = min(kept, lo + cols)
        g[lo:hi] = np.exp(ln_gf(np.arange(lo, hi)))
    return beta, np.fft.irfft(g, terms)


def _split(a):
    """(hi, lo) with a = hi + lo and hi of 26 significant bits (Dekker)."""
    c = _DEKKER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth's TwoSum)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _two_product(a, b):
    """(p, e) with p = fl(a b) and a b = p + e exactly (Dekker's product)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _erfc_sqrt(y: float, y_lo: float = 0.0) -> float:
    """erfc(sqrt(y + y_lo)) = Q(1/2, y + y_lo) for y >= 0 and |y_lo| <= ulp(y).

    erfc(sqrt y) taken from r = fl(sqrt y) moves by about 2y times the
    rounding of r, so the rest, sqrt(y + y_lo) - r = (y - r^2 + y_lo)/(2r)
    to first order, is added back along the slope -(2/sqrt pi) e^(-r^2),
    with y - r^2 exact by ``_two_product``.  At or past y = 746 the value
    underflows to 0.
    """
    r = math.sqrt(y)
    if not 0.0 < y < 746.0:
        return math.erfc(r)
    p, e = _two_product(r, r)
    return math.erfc(r) - _TWO_OVER_SQRT_PI * math.exp(-p) * (
        ((y - p) - e) + y_lo) / (2.0 * r)


def _stirlerr(s: np.ndarray) -> np.ndarray:
    """ln Gamma(s + 1) - (s + 1/2) ln s + s - ln(2 pi)/2, s > 0 ascending.

    s are multiples of 1/2.  From ``_STIRLERR`` up to 15, and above it from
    the series 1/12s - 1/360s^3 + 1/1260s^5 - 1/1680s^7 + 1/1188s^9, whose
    next term is below 2e-16 there.
    """
    i = int(np.searchsorted(s, 15.0, side="right"))
    big = s[i:]
    inv2 = 1.0 / (big * big)
    return np.concatenate((
        _STIRLERR[(2.0 * s[:i]).astype(np.intp) - 1],
        (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - (
            1.0 / 1680 - inv2 / 1188) * inv2) * inv2) * inv2) / big,
    ))


def _bd0(x: np.ndarray, m: float):
    """(hi, lo) with hi + lo = x ln(x/m) + m - x, the deviance of Loader (2000).

    x > 0 is an array and m > 0.  The deviance is as large as 745 on the
    terms that do not underflow, so it is kept in two doubles: its rounding
    as one would be up to 6e-14 of the term, and a logarithm of x/m
    rounded to a double would cost up to 1e-16 x.  With x = m 2^k c and c
    in [1/sqrt 2, sqrt 2), ln(x/m) = k ln 2 + 2 atanh(z), z = (x - m 2^k) /
    (x + m 2^k) and |z| < 0.172, so
    bd0 = x k ln 2 + 2 x z + 2 x sum_(j >= 1) z^(2j+1)/(2j+1) + m - x
    (Loader's series is the case k = 0).  The large parts are exact or
    kept with their rounding errors: m 2^k, x - m 2^k and x k ln2_hi are
    exact, z carries the errors of its sum and quotient, 2 x times z's
    high half is exact, and m - x and the sums keep theirs.  The rest of
    the series, at most 1/16 of the deviance, is summed in doubles, which
    leaves about 1e-17 of the deviance (1e-14 of the term at worst); its
    12 terms leave out less than 1e-18.  The exact parts are exact for
    x < 2^21; larger shapes lose a rounding of x k ln 2.
    """
    m_fraction, m_exponent = math.frexp(m)
    x_fraction, x_exponent = np.frexp(x)
    c = x_fraction / m_fraction  # in (1/2, 2)
    k = x_exponent - m_exponent + (c >= _SQRT2) - (c < 0.5 * _SQRT2)
    mk = np.ldexp(m_fraction, k + m_exponent)  # m 2^k, exactly
    d = x - mk  # exact: x / mk is in (1/2, 2)
    u, u_err = _two_sum(x, mk)
    z = d / u
    p, p_err = _two_product(z, u)
    z_err = (((d - p) - p_err) - z * u_err) / u  # d / (x + mk) = z + z_err
    z2 = z * z
    series = 1.0 / 25.0
    for j in range(11, 0, -1):
        series = series * z2 + 1.0 / (2 * j + 1)
    z_hi, z_lo = _split(z)
    xk = x * k
    big, err = _two_sum(xk * _LN2_HI, (2.0 * x) * z_hi)
    m_x, m_x_err = _two_sum(m, -x)
    big, err2 = _two_sum(big, m_x)
    hi, err3 = _two_sum(big, (2.0 * x) * (z * z2 * series))
    lo = err + err2 + err3 + m_x_err + xk * _LN2_LO + (2.0 * x) * (z_lo + z_err)
    return hi, lo


def _poisson_terms(t: np.ndarray, y: float) -> np.ndarray:
    """tau_t = e^-y y^t / Gamma(t + 1) on a ladder t_0, t_0 + 1, ..., t_0 > 0.

    t_0 is a multiple of 1/2.  Every ``_ANCHOR``-th term is an anchor, made
    by Loader's form tau_t = exp(-stirlerr(t) - bd0(t, y)) / sqrt(2 pi t);
    the terms after it follow by tau_t = tau_(t-1) y / t, two roundings a
    step, so each term is within about 1e-14 of itself.  exp(-bd0) is
    split as 2^-n exp(-r) with |r| <= ln(2)/2, and 2^-n is applied last,
    so an anchor below the normal range does not spoil the larger terms
    that follow it.
    """
    anchors = t[::_ANCHOR]
    hi, lo = _bd0(anchors, y)
    lo += _stirlerr(anchors)
    n = np.rint(hi / math.log(2.0))
    r = (hi - n * _LN2_HI) - n * _LN2_LO  # exact but for n _LN2_LO: |n| < 2^11
    steps = np.ones((anchors.size, _ANCHOR))
    ratios = steps.reshape(-1)[:t.size]
    np.divide(y, t, out=ratios)
    steps[:, 0] = np.exp(-(r + lo)) / np.sqrt((2.0 * math.pi) * anchors)
    tau = np.ldexp(np.cumprod(steps, axis=1), -n.astype(int)[:, None])
    return tau.reshape(-1)[:t.size]


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """Prefix sums of v, compensated: TwoSum on each of ``np.cumsum``'s steps.

    The errors of the steps are summed on their own and added back, so each
    sum of positive terms is within about two roundings of itself.
    """
    c = np.cumsum(v)
    if c.size > 1:
        _, errors = _two_sum(c[:-1], v[1:])  # each step is fl(c[i - 1] + v[i])
        c[1:] += np.cumsum(errors)
    return c


def _clamped_dot(a: np.ndarray, v: np.ndarray, offset: int) -> float:
    """sum_k a_k v[clip(k + offset, 0, v.size - 1)], by slices of a."""
    lo = min(max(-offset, 0), a.size)
    hi = min(max(v.size - 1 - offset, lo), a.size)
    total = a[lo:hi] @ v[lo + offset:hi + offset]
    if v[0]:
        total += a[:lo].sum() * v[0]
    if v[-1]:
        total += a[hi:].sum() * v[-1]
    return float(total)


def _ladder_sums(h: float, y: float, a: np.ndarray):
    """(split, q, p): the a_k sums of Q(h + k, y) below split, of P from it.

    q = sum_(k < split) a_k Q(h + k, y) and p = sum_(k >= split) a_k P(h + k, y).
    h is a positive multiple of 1/2 and y >= 0 is finite.  split is the
    first k with h + k >= y, so each incomplete gamma taken is the smaller
    of P and Q, up to the median's offset.  The lattice of shapes
    t = t_0 + j, j = 0, 1, ..., with t_0 = 1 or 1/2 as h is an integer or
    not, carries the Poisson terms tau_t: Q(h + k, y) is Q(t_0, y), which
    is e^-y or erfc(sqrt y) (``_erfc_sqrt``), plus the terms below h + k,
    and P(h + k, y) the sum of those at and above it.  ln tau_t is concave
    in t with its top near t = y - 1/2, and only the terms above
    ``_LN_UNDERFLOW`` are made: two bisections with a ``math.lgamma`` form
    of ln tau_t find them inside the shapes the sums need, so y = 1e12 or
    y = 0 makes none.
    Each side's terms are summed smallest first, compensated, and each
    incomplete gamma is one of those sums, never a sum over the a_k.
    """
    base = 1.0 if h == math.floor(h) else 0.5
    first = int(h - base)  # the shape h + k is lattice point first + k
    split = a.size if y >= h + a.size else max(0, math.ceil(y - h))
    if y == 0.0:
        return split, 0.0, 0.0
    # Q needs the lattice below first + split - 1, P the lattice from first + split.
    start = 0 if split > 0 else first
    end = first + a.size - 1 if split == a.size else None
    ln_y = math.log(y)

    def kept(j):
        t = base + j
        return -y + t * ln_y - math.lgamma(t + 1.0) > _LN_UNDERFLOW

    top = max(start, int(y - base))
    if end is not None:
        top = max(start, min(top, end - 1))
    lo = hi = top
    if (end is None or end > start) and kept(top):
        lo = bisect_left(range(top), True, start, key=kept)
        if end is None:  # double a step past the top until a term underflows
            step = 64 + math.isqrt(int(y))
            while kept(top + step):
                step *= 2
            end = top + step
        hi = bisect_left(range(end), True, top, key=lambda j: not kept(j))
    t = base + np.arange(lo, hi, dtype=float)
    tau = _poisson_terms(t, y) if t.size else t

    cut = min(max(first + split - lo, 0), tau.size)  # Q's terms, then P's
    bottom = math.exp(-y) if base == 1.0 else _erfc_sqrt(y)
    below = _prefix_sums(np.concatenate(([bottom], tau[:cut])))
    above = np.append(_prefix_sums(tau[cut:][::-1])[::-1], 0.0)
    q = _clamped_dot(a[:split], below, first - lo)
    p = _clamped_dot(a[split:], above, first + split - lo - cut)
    return split, q, p


def _weighted_chi2(weights, x: float, upper: bool, counts=None) -> float:
    """P(sum w_i xi_i^2 > x) if upper, else the cdf of ``weighted_chi2_cdf``.

    With counts, weight w_i occurs counts[i] times in the sum.

    Both tails are sums over the same mixture coefficients a_k, so the upper
    tail is never formed as 1 - cdf.  ``_ladder_sums`` takes the smaller of
    Q(n/2 + k, y) and P(n/2 + k, y) for each k, so the terms of a small
    tail are all made directly; on the other side of the split the tail's
    incomplete gamma is 1 minus the one made.  When every k is on one side,
    the coefficients' mass there is taken as 1, so the far tails of x = 0
    and of a huge x are exactly 0 and 1.
    """
    w, x = _as_vector(weights, "weights"), _as_number(x, "x")
    if np.any(w < 0):
        raise InvalidInput("weights must be nonnegative")
    if x < 0:
        raise InvalidInput("x must be nonnegative")
    positive = w > 0  # zero-weight components contribute nothing
    w = w[positive]
    if counts is not None:
        counts = counts[positive]
    n = w.size if counts is None else float(np.sum(counts))
    if w.size == 0:
        return 0.0 if upper else 1.0  # the sum is identically 0 <= x
    if n == 1:  # a = [1]: Q(1/2, y) = erfc(sqrt y), P(1/2, y) = erf(sqrt y)
        w2 = 2.0 * float(w[0])
        y = x / w2
        if not upper:
            return math.erf(math.sqrt(y))
        # y_lo = x/w2 - y, the rounding of the division
        p, e = _two_product(y, w2)
        return _erfc_sqrt(y, ((x - p) - e) / w2 if _EXACT_LO < w2 < _EXACT_HI else 0.0)
    beta, a = _mixture_coefficients(w, counts)
    y = x / (2.0 * beta)
    if y == math.inf:
        return 0.0 if upper else 1.0
    split, q, p = _ladder_sums(0.5 * n, y, a)
    if upper:
        mass = float(a[split:].sum()) if split else 1.0
        total = q + (mass - p)
    else:
        mass = float(a[:split].sum()) if split < a.size else 1.0
        total = p + (mass - q)
    return min(1.0, max(0.0, total))


def weighted_chi2_cdf(weights, x: float) -> float:
    """P(sum w_i xi_i^2 <= x) for finite nonnegative weights and x >= 0.

    One path for every weight vector: the chi-square mixture
    sum_k a_k P(n/2 + k, x / (2 min w)) of Ruben (1962), with the a_k from
    one inverse FFT of their generating function (``_mixture_coefficients``).
    Equal weights give a = [1], the incomplete gamma itself.  A single
    weight is its shape-1/2 case, erf(sqrt(x / 2w)), taken from ``math.erf``
    and, for the upper tail, ``math.erfc`` with the roundings of x / 2w and
    of the square root added back (``_erfc_sqrt``): within 2e-16 relative
    of mpmath at w = 1/2 for x from 2 to 700, where the tail is 2e-306.
    The term count N is the least count ``need`` at which the Chernoff
    bound leaves at most 1e-16 of the mixture's mass past N, rounded up to
    the least m 2^e with m in {4, ..., 8} (at most 25% above ``need``).
    The incomplete gammas are sums of Poisson terms (``_ladder_sums``),
    and every term that does not underflow is made.  The absolute error is
    below 5e-15: at most 3e-16 from the truncation, aliasing and cutoff of
    the a_k, and the rest is rounding: each Poisson term is within about
    1e-14 of itself (Loader's saddle-point form with its deviance in two
    doubles, then at most 15 steps of a recurrence; ``_poisson_terms``),
    each sum of them within about two roundings (compensated), and the
    complement and the a_k products within one each.  So a small
    incomplete gamma keeps its relative accuracy, down to the subnormals.
    A spread max w / min w that needs more than 2^19 terms (about 1e4 at
    n = 1000) raises OutOfRegime; non-finite input raises InvalidInput.
    """
    return _weighted_chi2(weights, x, upper=False)


def np_test_exact_probs(test: NpTest):
    """Exact (alpha, beta) of an ellipsoid test via the weighted chi-square oracle.

    alpha is the oracle's upper tail, so a tiny alpha is not rounded to 0.
    The weights are taken by run of sigma, one per distinct value with its
    count when a value repeats (see the module docstring).
    """
    thr = test.threshold
    r2, counts = null_weights_by_run(test.sigma)
    alpha = _weighted_chi2(r2, thr, True, counts)
    s2, counts = squares_by_run(test.sigma)
    beta = _weighted_chi2(s2, thr, False, counts)
    return alpha, beta
