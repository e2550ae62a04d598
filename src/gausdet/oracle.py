"""The exact oracle for the weighted chi-square probabilities behind alpha and beta.

It has one method for every weight vector: the chi-square mixture
sum_k a_k P(n/2 + k, y) of Ruben (1962).  Both tails are sums over the
same coefficients, with an absolute error below 5e-15; a weight spread
whose Chernoff term count N is above 2^19 raises OutOfRegime.  A tail
reads the a_k one by one only in its ladder's window [start, reach)
(``_ladder_window``); outside it, past the last and below the first shape
whose Poisson term does not underflow, only their masses enter (the total
is 1, Kotz, Johnson and Boyd 1967).  The a_k come from their generating
function G on N points, N rounded up by at most 25% to a length the FFT
handles fast, and G is kept at its M points above 1e-16/N
(``_Generating``).  One cost rule (``_paths``), in units of a real FFT's
L log2 L, picks the cheapest of three ways to the window: one inverse FFT
of all N; a chirp z-transform of the window alone from the M points, with
the masses in closed form (``_Generating.arc``); or, when the reach is
below N, the m largest weights peeled off G as closed-form
negative-binomial factors and multiplied into the rest's coefficients
(``_reach_coefficients``).  The arc rounds about twice as coarsely as the
full circle, so a tail that it makes below 1e-4 (``_ARC_LEAST``) is made
again by the next cheapest way, and so is a tail whose rest is out of
regime.

Every input reaches the mixture in one form (``_tail_by_run``): its
distinct positive weights ascending, with their counts (``model.runs_of``).
So its sums cost one row per distinct weight, equal weights are one
incomplete gamma at any n, and a tail's bits do not depend on the order of
the weights.  Only the exponents and D sum all-distinct arrays in the
order they are given.

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

import functools
import math
from bisect import bisect_left

import numpy as np

from .errors import InvalidInput, OutOfRegime
from .model import NpTest, _as_number, _as_vector, _null_weights, runs_of, sum_by_run

_MASS_TOL = 1e-16  # mass each of the three truncations below may move
_MAX_TERMS = 2**19  # 4 MB of coefficients; wider spreads are out of regime
# A tail below this is made as if there were no arc: against the full
# circle, the arc's coarser rounding moved the smaller tails of the tests
# by 1e-5 to 0.6 of themselves, and none at or above it by 1e-13.
_ARC_LEAST = 1e-4
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
# ``_paths`` prices each way to a tail's coefficients in W(L) = L log2 L,
# the work of one real FFT of L points, with four counts:
_FILL = 8.0  # ln G and its exp at a point of one weight: 1.16e-8 s over W's 1.33e-9 s
_ARC = 8.0  # W(L)s of an arc of L: three complex FFTs, about six real ones, and the chirp
_FACTOR = 4.0  # W(2 reach)s of a peeled factor: three real FFTs, and its coefficients
_SLACK = 2.0  # a rest's term count over its lower bound: 1.6-2.9 on the rests built

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


def _fast_length(need: int) -> int:
    """The least m 2^e >= need with m in {4, ..., 8}: at most 25% above need,
    and a length the FFT handles fast."""
    scale = max(need.bit_length() - 3, 0)  # need / 2^scale is in [4, 8)
    return -(-need >> scale) << scale


def _turn(phase: np.ndarray) -> np.ndarray:
    """e^(i phase) for real phases: cos and sin into one complex array, the
    bits of np.exp(1j phase) at about half its cost."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


class _Generating:
    """G(z) = prod (p_i / (1 - r_i z))^(c_i/2) of ascending positive weights w
    in run form, with counts c (1 each when counts is None).

    sum w_i xi_i^2 equals beta chi2_(n+2K) in law, P(K = k) = a_k: with
    beta = min w, p_i = beta/w_i and r_i = 1 - p_i, K has generating
    function G (Ruben 1962), so a_k >= 0 and sum a_k = 1.  Every sum over
    the weights takes count times one row per distinct weight, so the cost
    is set by the distinct weights, not by n.

    ``terms`` is the Chernoff term count N.  By the Chernoff bound
    G(z) z^-N, N terms leave at most 1e-16 of K's mass at or past N once
    ln G(z) + (n/2 + N) ln(1/z) <= ln 1e-16 at some z of a grid in
    (1, 1/max r); ``need``, the least such N (at least 64), is solved for
    directly.  N is the least m 2^e >= need with m in {4, ..., 8}: at most
    25% above ``need``, and a length the FFT handles fast.  A ``need``
    above 2^19 raises OutOfRegime.  Equal weights give N = 1 and a = [1].
    ``coefficients`` makes all N from the ``band``, G at its M ``kept``
    points; ``arc`` and ``mass_below`` make a window and the masses beside it.
    """

    def __init__(self, w: np.ndarray, counts=None):
        self.w, self.counts = w, counts
        self.beta, top = float(np.min(w)), float(np.max(w))
        self.n = w.size if counts is None else float(np.sum(counts))
        self.cols = max(1, 2**16 // w.size)  # bounds each (weights, points) array
        self.terms = 1 if self.beta == top else self._term_count(top)

    def _term_count(self, top: float) -> int:
        w, counts, beta, n, cols = self.w, self.counts, self.beta, self.n, self.cols
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
        return _fast_length(max(64, math.ceil(need)))

    @functools.cached_property
    def _columns(self):
        p = self.beta / self.w
        r = 1.0 - p
        # Weight-major columns: each (weights, points) block is summed over axis 0.
        return tuple(c[:, None] for c in (4.0 * r / p**2, 2.0 * r, p, r))

    def ln_gf(self, j):
        """ln G(e^(-i theta_j)), theta_j = 2 pi j / N, for an array of j.

        |1 - r e^(-i theta)|^2 = p^2 + 4 r sin^2(theta/2) and the real part
        p + 2 r sin^2(theta/2) are formed without cancellation, so no mass
        is lost when p_i is small.
        """
        p4, r2, p_col, r_col = self._columns
        theta = (2.0 * math.pi / self.terms) * np.atleast_1d(j)
        s2 = np.sin(0.5 * theta) ** 2
        modulus = p4 * s2
        modulus = sum_by_run(np.log1p(modulus, out=modulus), self.counts)
        real = r2 * s2
        real += p_col
        phase = r_col * np.sin(theta)
        phase = sum_by_run(np.arctan2(phase, real, out=phase), self.counts)
        return -0.25 * modulus - 0.5j * phase

    @functools.cached_property
    def kept(self) -> int:
        """M, the points j = 0, 1, ... of G before the first j >= 1 where |G|
        is at most 1e-16/N (N/2 + 1 if there is none).  ln |G| falls in j,
        so each pass over q points of a bracket (lo, hi] cuts it q + 1-fold:
        a geometric grid first, then evenly spaced points; q d is about 2048,
        so a pass costs about one numpy call's overhead."""
        floor = math.log(_MASS_TOL / self.terms)
        p4 = self._columns[0][:, 0]
        counts = np.ones(p4.size) if self.counts is None else self.counts
        lo, hi, q = 0, self.terms // 2 + 1, max(1, 2**11 // p4.size)
        j = (hi ** (np.arange(1.0, q + 1.0) / (q + 1))).astype(int)
        while hi - lo > 1:
            ln_g = np.multiply.outer(np.sin((math.pi / self.terms) * j) ** 2, p4)
            ln_g = -0.25 * (np.log1p(ln_g, out=ln_g) @ counts)
            i = int(np.argmax(np.append(ln_g <= floor, True)))
            lo, hi = int(j[i - 1]) if i else lo, int(j[i]) if i < j.size else hi
            j = (np.arange(lo + 1, hi) if hi - lo <= q + 1
                 else lo + (hi - lo) * np.arange(1, q + 1) // (q + 1))
        return hi

    @functools.cached_property
    def band(self) -> np.ndarray:
        """g_j = G(e^(-i theta_j)) at the M kept points j < M."""
        kept, cols = self.kept, self.cols
        g = np.empty(kept, dtype=complex)
        for lo in range(0, kept, cols):
            hi = min(kept, lo + cols)
            g[lo:hi] = np.exp(self.ln_gf(np.arange(lo, hi)))
        return g

    def coefficients(self) -> np.ndarray:
        """The N mixture coefficients a_k, on the full circle.

        One inverse FFT of G on the N-th roots of unity gives a_k plus the
        aliased a_(k+N), a_(k+2N), ...: at most 1e-16 in all.
        |G(e^(-i theta))| falls on [0, pi], so G is set to zero past the
        last point where it exceeds 1e-16/N (``kept``), which moves each a_k
        by at most 1e-16/N.
        """
        if self.terms == 1:
            return np.ones(1)
        g = np.zeros(self.terms // 2 + 1, dtype=complex)
        g[:self.kept] = self.band
        return np.fft.irfft(g, self.terms)

    def arc(self, start: int, stop: int) -> np.ndarray:
        """a_k = (1/N) Re[g_0 + 2 sum_(0<j<M) g_j W^(jk)], W = e^(2 pi i/N),
        for start <= k < stop: the inverse FFT's sum (j = N/2 taken once) on
        an arc.  Bluestein's chirp z-transform: jk = (k^2 + j^2 - (k - j)^2)/2
        makes it one convolution with the chirp W^(-t^2/2), by three complex
        FFTs of about stop - start + M points.  The phases are reduced mod 2N
        in integers, so only rounding differs from the inverse FFT: about
        1e-15 of the largest a_k."""
        n2, g = 2 * self.terms, self.band
        size, count = g.size, stop - start
        length = _fast_length(max(1, count + size - 1))
        t = np.arange(max(count, size))
        chirp = _turn((math.pi / self.terms) * (t * t % n2))  # W^(t^2/2)
        j = t[:size]
        u = g * _turn((math.pi / self.terms) * (j * (j + 2 * start) % n2))
        u[1:self.terms // 2] *= 2.0
        v = np.zeros(length, dtype=complex)
        v[:count] = chirp[:count].conj()
        v[length - size + 1:] = chirp[size - 1:0:-1].conj()
        x = np.fft.ifft(np.fft.fft(u, length) * np.fft.fft(v))[:count]
        x *= chirp[:count]
        return x.real / self.terms

    def mass_below(self, m) -> np.ndarray:
        """S(m) = sum_(k<m) a_k for integers 0 <= m <= N, in closed form:
        (1/N)[g_0 m + 2 Re sum_(0<j<M) g_j e^(i pi j (m-1)/N) sin(pi j m/N) /
        sin(pi j/N)], the geometric sum of W^(jk) over k < m, its phases
        reduced in integers.  Its terms, about |g_j|/(pi j), leave it within
        a few 1e-16 of the inverse FFT's prefix sums; S(0) = 0, S(N) = 1."""
        g, j = self.band, np.arange(1, self.kept)
        m = np.asarray(m)[:, None]
        angle = math.pi / self.terms
        terms = (g[1:] * _turn(angle * (j * (m - 1) % (2 * self.terms)))).real
        half_turns, rest = np.divmod(j * m, self.terms)  # sin(pi j m/N), exactly 0 at m = N
        terms *= (1 - 2 * (half_turns % 2)) * np.sin(angle * rest) / np.sin(angle * j)
        terms[:, self.terms // 2 - 1:] *= 0.5  # the point j = N/2 is taken once
        return (g[0].real * m[:, 0] + 2.0 * terms.sum(axis=1)) / self.terms


def _work(length):
    """W(L) = L log2 L, the unit of ``_paths``."""
    return length * np.log2(length)


def _paths(mixture: _Generating, start: int, reach: int) -> list:
    """The ways to a tail's coefficients, cheapest first by their estimates
    in W(L) = L log2 L: "full", one inverse FFT of all N from G's M kept
    points over d distinct weights, W(N) + F M d; "arc", the window
    [start, reach) alone (``_Generating.arc``), A W(L) + F M d for the arc's
    L = _fast_length(reach - start + M - 1); and m, the m largest distinct
    weights peeled off (``_reach_coefficients``), W(N_m) +
    F (N_m/2 + 1)(d - m) + m P W(_fast_length(2 reach - 1)) for the rest's
    term count N_m, with F = ``_FILL``, A = ``_ARC`` and P = ``_FACTOR``.
    Only the m of least estimate is offered, and its rest is built only if
    it is taken.

    N_m is priced as _fast_length(R least_m), R = ``_SLACK``, from a lower
    bound: the rest's mean sum c_i (w_i/beta - 1)/2, and the count at which
    the factor of the rest's largest weight, p = beta/w, still has a term
    above 1e-16: its tail past N_m is at most that of the rest, and at least
    its term b_N >= sqrt(p/(pi (N + 1))) (1 - p)^N (Gautschi's inequality),
    N < 2^20.  Only weights that occur at most twice are peeled, as a
    factor's rounding grows with c, never all of them, and only when the
    reach is below N.
    """
    if mixture.terms == 1:
        return ["full"]
    w, counts, terms, kept = mixture.w, mixture.counts, mixture.terms, mixture.kept
    d = w.size
    fill = _FILL * kept * d
    arc = _fast_length(max(1, reach - start + kept - 1))
    estimates = {"full": _work(terms) + fill, "arc": _ARC * _work(arc) + fill}
    c = np.ones(d) if counts is None else counts
    # the m largest may be peeled, m < d, while each occurs at most twice
    peelable = int(np.argmax(np.append(c[::-1][:d - 1] > 2.0, True))) if 0 < reach < terms else 0
    if peelable:
        m = np.arange(1, peelable + 1)
        mean = np.cumsum(0.5 * c * (w / mixture.beta - 1.0))[d - 1 - m]
        p = np.minimum(mixture.beta / w[d - 1 - m], 1.0 - 2.0**-53)
        own = ((0.5 * np.log(p) - math.log(_MASS_TOL * math.sqrt(math.pi * 2.0**20)))
               / -np.log1p(-p))
        need = np.ceil(_SLACK * np.maximum(np.maximum(mean, own), 2.0))
        scale = np.exp2(np.maximum(np.frexp(need)[1] - 3, 0))  # as _fast_length
        rest = np.ceil(need / scale) * scale
        cost = (_work(rest) + _FILL * (0.5 * rest + 1.0) * (d - m)
                + m * _FACTOR * _work(_fast_length(2 * reach - 1)))
        i = int(np.argmin(cost))
        estimates[i + 1] = float(cost[i])
    return sorted(estimates, key=estimates.get)


def _negative_binomial(p: float, half_count: float, size: int) -> np.ndarray:
    """The first size coefficients of (p / (1 - (1 - p) z))^c, c = half_count.

    b_k = p^c Gamma(c + k) / (Gamma(c) k!) (1 - p)^k, each from one exp of
    ln b_k = c ln p + sum_(j = 1..k) [ln(1 - p) + log1p((c - 1)/j)], a
    prefix sum kept in two doubles: TwoSum on each of ``np.cumsum``'s steps
    (as ``_prefix_sums``), with c ln p = c e ln2_hi, exact, plus
    c (e ln2_lo + ln f) for p = f 2^e.  So b_k = exp(hi) (1 + lo) holds the
    roundings of the terms, not those of a sum as large as |ln b_k|: for
    c <= 1 it is within (1 + k p) 4e-16 of itself, the k p part from the
    rounding of ln(1 - p), repeated k times.
    """
    fraction, exponent = math.frexp(p)
    steps = np.empty(size)
    errors = np.empty(size)
    steps[0], errors[0] = _two_sum(
        half_count * exponent * _LN2_HI,
        half_count * (exponent * _LN2_LO + math.log(fraction)))
    ratios = steps[1:]
    np.divide(half_count - 1.0, np.arange(1.0, size), out=ratios)
    np.log1p(ratios, out=ratios)
    ratios += math.log1p(-p)
    sums = np.cumsum(steps)
    errors[1:] = _two_sum(sums[:-1], ratios)[1]
    errors = np.cumsum(errors)
    hi = sums + errors
    lo = errors - (hi - sums)  # exact: |errors| <= |sums|
    return np.exp(hi) * (1.0 + lo)


def _reach_coefficients(rest: _Generating, factors, reach: int) -> np.ndarray:
    """The first ``reach`` mixture coefficients: the rest's own (on its own,
    much shorter, circle) times each peeled weight's closed-form factor.

    G is the rest's generating function, with the same beta, times one
    negative-binomial factor (p / (1 - r z))^(c/2) per peeled weight
    (``_negative_binomial``).  Each product is a linear convolution by a
    real FFT of at least 2 reach - 1 points, cut at reach: the
    coefficients below reach of a product need only those below reach of
    its factors.  The rest's coefficients past its term count are left
    out, at most 1e-16 of mass as on the full circle.  An FFT leaves each
    coefficient an error of about 1e-16 of the largest, so the leading
    ones below 2^-5 of it are made again as direct sums of positive
    products of the factors' leading coefficients: the small tails that
    they carry keep their relative accuracy.
    """
    a = rest.coefficients()[:reach]
    length = _fast_length(2 * reach - 1)
    heads = [a]
    for p, half_count in factors:
        b = _negative_binomial(p, half_count, reach)
        heads.append(b)
        b = np.fft.rfft(b, length)
        b *= np.fft.rfft(a, length)
        a = np.fft.irfft(b, length)[:reach]
    head = int(np.argmax(a >= 2.0**-5 * a.max()))
    if head:
        direct = heads[0][:head]
        for b in heads[1:]:
            direct = np.convolve(direct, b[:head])[:head]
        a[:head] = direct
    return a


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


def _ladder_window(h: float, y: float, size: int):
    """(split, lo, hi, reach, start): where ``_ladder_sums`` splits N = size
    coefficients, the lattice points [lo, hi) whose Poisson terms it makes,
    and the window [start, reach) of the coefficients it reads one by one.

    The lattice of shapes t = t_0 + j, j = 0, 1, ..., has t_0 = 1 or 1/2 as
    h is an integer or not; the shape h + k is lattice point first + k.
    split is the first k with h + k >= y (N if there is none).  ln tau_t is
    concave in t with its top near t = y - 1/2, and [lo, hi) holds the
    terms above ``_LN_UNDERFLOW`` among the shapes the sums need: two
    bisections with a ``math.lgamma`` form of ln tau_t find them, so
    y = 1e12 or y = 0 makes none.  Past hi every P(h + k, y) is 0, so a_k
    with k >= reach = max(split, hi - first) enter a tail only through
    their total mass, and so do those below start = min(max(0, lo - first),
    split), where every Q(h + k, y) is Q(t_0, y).
    """
    base = 1.0 if h == math.floor(h) else 0.5
    first = int(h - base)  # the shape h + k is lattice point first + k
    split = size if y >= h + size else max(0, math.ceil(y - h))
    if y == 0.0:
        return split, first, first, split, 0
    # Q needs the lattice below first + split - 1, P the lattice from first + split.
    start = 0 if split > 0 else first
    end = first + size - 1 if split == size else None
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
    return split, lo, hi, min(size, max(split, hi - first)), min(max(0, lo - first), split)


def _ladder_sums(h: float, y: float, a: np.ndarray, window, skip: int):
    """(split, q, p): the a_k sums of Q(h + k, y) below split, of P from it.

    q = sum_(k < split) a_k Q(h + k, y) and p = sum_(k >= split) a_k P(h + k, y).
    h is a positive multiple of 1/2 and y >= 0 is finite.  split is the
    first k with h + k >= y, so each incomplete gamma taken is the smaller
    of P and Q, up to the median's offset.  window is ``_ladder_window``
    of the N coefficients; a holds a_k from k = skip on (0 or the window's
    start), all N or up to ``reach``.  Below a start past 0 every Poisson
    term underflows, and so does Q(t_0, y) < tau_(t_0): those a_k add
    nothing to q.  Q(h + k, y) is Q(t_0, y), which is e^-y or erfc(sqrt y)
    (``_erfc_sqrt``), plus the Poisson terms tau_t below h + k, and
    P(h + k, y) the sum of those at and above it; only the terms of the
    window are made.  Each side's terms are summed smallest
    first, compensated, and each incomplete gamma is one of those sums,
    never a sum over the a_k.
    """
    split, lo, hi = window[:3]
    if y == 0.0:
        return split, 0.0, 0.0
    base = 1.0 if h == math.floor(h) else 0.5
    first = int(h - base)
    t = base + np.arange(lo, hi, dtype=float)
    tau = _poisson_terms(t, y) if t.size else t

    cut = min(max(first + split - lo, 0), tau.size)  # Q's terms, then P's
    bottom = math.exp(-y) if base == 1.0 else _erfc_sqrt(y)
    bottoms = _prefix_sums(np.concatenate(([bottom], tau[:cut])))
    above = np.append(_prefix_sums(tau[cut:][::-1])[::-1], 0.0)
    q = _clamped_dot(a[:split - skip], bottoms, first + skip - lo)
    p = _clamped_dot(a[split - skip:], above, first + split - lo - cut)
    return split, q, p


def _weighted_chi2(weights, x: float, upper: bool) -> float:
    """P(sum w_i xi_i^2 > x) if upper, else the cdf of ``weighted_chi2_cdf``.

    Both tails are sums over the same mixture coefficients a_k, so the upper
    tail is never formed as 1 - cdf.  ``_ladder_sums`` takes the smaller of
    Q(n/2 + k, y) and P(n/2 + k, y) for each k, so the terms of a small
    tail are all made directly; on the other side of the split the tail's
    incomplete gamma is 1 minus the one made.  When every k is on one side,
    the coefficients' mass there is taken as 1, so the far tails of x = 0
    and of a huge x are exactly 0 and 1.  When only the coefficients below
    the ladder's reach are made (``_reach_coefficients``), the upper
    tail's mass past the split is 1 minus the mass below it; beside an arc
    they are closed-form sums (``_Generating.mass_below``).  ``_paths``
    orders the ways to the coefficients; a tail below ``_ARC_LEAST`` on
    the arc is made again by the next.
    """
    w, x = _as_vector(weights, "weights"), _as_number(x, "x")
    if np.any(w < 0):
        raise InvalidInput("weights must be nonnegative")
    if x < 0:
        raise InvalidInput("x must be nonnegative")
    return _tail_by_run(*runs_of(w), x, upper)


def _tail_by_run(w: np.ndarray, counts, x: float, upper: bool) -> float:
    """``_weighted_chi2`` of the weights w with their counts (1 each when
    counts is None), and a valid x: the one way into the mixture.

    w may hold zeros and equal weights, and may fall by an ulp where it is
    ascending in sigma: r^2 = s^2/(1 + s^2) is not monotone in rounding.
    The zeros are dropped, the rest sorted and equal weights merged, so
    ``_mixture_tail`` gets the run form of ``model.runs_of``: the distinct
    positive weights ascending, with counts None when none repeats.  Every
    order of the same weights gives the same bits.
    """
    order = np.argsort(w)
    w = w[order]
    counts = np.ones(w.size) if counts is None else counts[order]
    keep = w > 0
    w, counts = w[keep], counts[keep]
    starts = np.flatnonzero(np.diff(w, prepend=0.0))  # each new value, w > 0
    counts = np.add.reduceat(counts, starts)
    return _mixture_tail(w[starts], counts if np.any(counts > 1.0) else None, x, upper)


def _mixture_tail(w: np.ndarray, counts, x: float, upper: bool) -> float:
    """``_tail_by_run`` on its run form: distinct positive weights w
    ascending, with their counts or None."""
    if w.size == 0:
        return 0.0 if upper else 1.0  # the sum is identically 0 <= x
    n = w.size if counts is None else float(np.sum(counts))
    if n == 1:  # a = [1]: Q(1/2, y) = erfc(sqrt y), P(1/2, y) = erf(sqrt y)
        w2 = 2.0 * float(w[0])
        y = x / w2
        if not upper:
            return math.erf(math.sqrt(y))
        # y_lo = x/w2 - y, the rounding of the division
        p, e = _two_product(y, w2)
        return _erfc_sqrt(y, ((x - p) - e) / w2 if _EXACT_LO < w2 < _EXACT_HI else 0.0)
    mixture = _Generating(w, counts)
    y = x / (2.0 * mixture.beta)
    if y == math.inf:
        return 0.0 if upper else 1.0
    if y == 0.0:  # every shape n/2 + k is at or above y: the cdf is 0
        return 1.0 if upper else 0.0
    h = 0.5 * n
    window = _ladder_window(h, y, mixture.terms)
    reach, start = window[3:]

    def tail(a, skip=0, below=0.0, past=0.0):
        """The tail from a_k for k >= skip, the mass below skip and the
        mass past the end of a (None: a ends at the reach and that mass is
        not made, so the upper tail's mass past the split is 1 minus the
        mass below it)."""
        split, q, p = _ladder_sums(h, y, a, window, skip)
        if upper:
            if not split:
                mass = 1.0
            elif past is None:
                mass = 1.0 - float(a[:split].sum())
            else:
                mass = float(a[split - skip:].sum()) + past
            total = q + (mass - p)
        else:
            mass = below + float(a[:split - skip].sum()) if split < mixture.terms else 1.0
            total = p + (mass - q)
        return min(1.0, max(0.0, total))

    # The cheapest way first; a rest out of regime and an arc's tail below
    # _ARC_LEAST pass to the next, and the full circle always serves.
    for path in _paths(mixture, start, reach):
        if path == "full":
            return tail(mixture.coefficients())
        if path == "arc":
            below, made = mixture.mass_below(np.array([start, reach])).tolist()
            total = tail(mixture.arc(start, reach), start, below, 1.0 - made)
            if total >= _ARC_LEAST:
                return total
            continue
        k = w.size - path
        try:  # its own grid may miss the z at which the full one passed
            rest = _Generating(w[:k], None if counts is None else counts[:k])
        except OutOfRegime:
            continue
        c = np.ones(path) if counts is None else counts[k:]
        factors = list(zip((mixture.beta / w[k:]).tolist(), (0.5 * c).tolist()))
        return tail(_reach_coefficients(rest, factors, reach), past=None)


def weighted_chi2_cdf(weights, x: float) -> float:
    """P(sum w_i xi_i^2 <= x) for finite nonnegative weights and x >= 0.

    One method for every weight vector: the chi-square mixture
    sum_k a_k P(n/2 + k, x / (2 min w)) of Ruben (1962), with the a_k from
    one inverse FFT of their generating function (``_Generating``), or
    just the window the ladder reads (``_Generating.arc``), or just those
    below its reach (``_reach_coefficients``).
    Its sums take the run form of the weights (``model.runs_of``): the
    distinct positive weights ascending, count times one row each, so the
    result is the same, bit for bit, for every order of the weights.  Equal
    weights give a = [1], the incomplete gamma itself.  A single
    weight is its shape-1/2 case, erf(sqrt(x / 2w)), taken from ``math.erf``
    and, for the upper tail, ``math.erfc`` with the roundings of x / 2w and
    of the square root added back (``_erfc_sqrt``): within 2e-16 relative
    of mpmath at w = 1/2 for x from 2 to 700, where the tail is 2e-306.
    The term count is the least of two.  The Chernoff count N is the least
    count ``need`` at which the Chernoff bound leaves at most 1e-16 of the
    mixture's mass past N, rounded up to the least m 2^e with m in
    {4, ..., 8} (at most 25% above ``need``).  The ladder's reach K is the
    last shape whose Poisson term does not underflow, less n/2: the a_k
    past it multiply incomplete gammas that are 0, so only their mass
    enters, as below the first shape whose term does not underflow: a tail
    needs the a_k of one window [start, K) and two masses.  One cost rule
    prices three ways to them in units of a real FFT's L log2 L and takes
    the cheapest (``_paths``): all N by one inverse FFT; the window alone
    from G's M points above 1e-16/N by Bluestein's chirp z-transform (three
    complex FFTs of about K - start + M points) with the masses as
    closed-form sums over them; or, when K is below N, the m largest
    distinct weights (each occurring at most twice) peeled off as
    closed-form negative-binomial factors, the rest on its own shorter
    circle and the products cut at K, with m the one of least estimate.  A
    tail below 1e-4 on the arc, or one whose rest is out of regime, is made
    by the next cheapest way, so the arc serves only tails of 1e-4 and
    above.
    The incomplete gammas are sums of Poisson terms (``_ladder_sums``),
    and every term that does not underflow is made.  The absolute error is
    below 5e-15: at most 3e-16 from the truncation, aliasing and cutoff of
    the a_k, and the rest is rounding: each Poisson term is within about
    1e-14 of itself (Loader's saddle-point form with its deviance in two
    doubles, then at most 15 steps of a recurrence; ``_poisson_terms``),
    each sum of them within about two roundings (compensated), and the
    complement and the a_k products within one each.  The arc's a_k
    differ from the full circle's by about 1e-15 of the largest, its masses
    by a few 1e-16; the tails it serves moved by less than 1e-13 of
    themselves in the tests (at n = 100, spread 1e4 both tails are within
    2.1e-16 of a long-double reference).  A peeled factor's coefficients are each within
    a few 1e-16 of themselves (their logarithms are prefix sums kept in two
    doubles), and each FFT product adds about 1e-16 of the largest
    coefficient, at most 1e-15 of mass in all; its leading coefficients
    below 2^-5 of the largest are direct sums of positive products.  So a
    small incomplete gamma keeps its relative accuracy, down to the
    subnormals, and a small cdf keeps its own where its coefficients are
    direct sums; a tail made of a_k near the FFTs' rounding keeps only the
    absolute bound.
    A spread max w / min w that needs more than 2^19 terms (about 1e4 at
    n = 1000) raises OutOfRegime; non-finite input raises InvalidInput.
    """
    return _weighted_chi2(weights, x, upper=False)


def np_test_exact_probs(test: NpTest):
    """Exact (alpha, beta) of an ellipsoid test via the weighted chi-square oracle.

    alpha is the oracle's upper tail under the weights ``r_squared``, so a
    tiny alpha is not rounded to 0; beta is ``weighted_chi2_cdf`` under the
    weights ``squared``.  Both are taken by run from ``sigma.runs``, the
    distinct values ascending, not regrouped from n, and are bit for bit
    the oracle's tails of the raw weights.
    """
    values, counts = test.sigma.runs
    s2 = values**2
    return (_tail_by_run(_null_weights(s2), counts, test.threshold, True),
            _tail_by_run(s2, counts, test.threshold, False))
