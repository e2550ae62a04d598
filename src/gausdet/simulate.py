"""Monte Carlo ground truth and exact distribution oracles.

Sampling uses the counter-based Philox generator with one independent stream
per shard, keyed by (seed, shard index), so shards never overlap and each is
a pure function of (seed, shard).  A shard is 2^17 // c rows of at most c
draws each (at least one row; at most 2^17 draws, 1 MiB of float64), so its
row count depends only on the instance, and its draws fit in a 2 MiB
per-core L2 cache.  c is 2 x dim for ``lemma1_check``, the number of drawn
columns for ``example3_experiment``, and for ``estimate_error_probs`` the
larger of the number of drawn columns and min(k, n) for a test of k points
(for a mixture test, the points of positive prior weight).
Both group exchangeable coordinates into blocks (``_blocks``) and draw a
block of m >= 2 as one column: ``estimate_error_probs`` draws one
chi-square per row for coordinates that share a weight column and a
variance, and none for coordinates of zero weight; ``example3_experiment``
draws one uniform per row for coordinates that share their variance scale
under every law, and scores it against the law of their maximum.  A
coordinate in a block of one is one normal.  A run with more than one
shard runs them on W = min(shards, CPUs this process may use) threads:
worker j takes shards j, j + W, j + 2W, ... and returns its own hit counts,
which are summed.  numpy releases the interpreter lock while it draws and
multiplies matrices, so the workers overlap; each holds one shard's arrays
at a time, so the peak memory is that of W such shards.  Counts are
bit-identical for a fixed (seed, samples, instance) whatever the worker
count.  They are not promised across machines: another BLAS kernel can
round a (k, rows) product of the forms differently in the last bit, which
flips a row that lies on a test's boundary.  The estimates of one
run (both sides of ``lemma1_check``; the false alarm and the misses of
``example3_experiment``) share its draws: each is unbiased, and they are
correlated.

The exact oracle for the weighted chi-square probabilities behind alpha and
beta has one path for every weight vector: the chi-square mixture of Ruben
(1962), whose coefficients come from one inverse FFT of their generating
function.  Both tails are sums over the same coefficients, with an absolute
error below 5e-15; a weight spread that needs more than 2^19 terms raises
OutOfRegime.  The oracle does only the work that moves its answer: the
term count is the least the Chernoff bound allows, rounded up by at most
25% to a length the FFT handles fast, and the incomplete gamma is
evaluated only on the window of terms where it is neither within 1e-18 of
1 nor, relative to the result, within 1e-17 of 0.

Only the oracle needs scipy (the incomplete gamma).  It is imported
inside the oracle functions, on their first call, so that importing this
module, and the Monte Carlo paths, load numpy and the standard library only.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, InvalidInput, OutOfRegime
from .model import (
    BayesTest,
    GlrtTest,
    IntensityVector,
    NpTest,
    _as_integer,
    _as_number,
    _as_vector,
)

MIN_SAMPLES = 1_000
_SHARD_SCALARS = 2**17  # draws per shard (1 MiB of float64); fixes rows per c

Test = Union[NpTest, BayesTest, GlrtTest]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """An empirical probability with its binomial standard error."""

    p_hat: float
    stderr: float
    samples: int
    seed: int

    @staticmethod
    def from_counts(hits: int, samples: int, seed: int) -> "MonteCarloEstimate":
        p = hits / samples
        return MonteCarloEstimate(
            p_hat=p,
            stderr=math.sqrt(p * (1.0 - p) / samples),
            samples=samples,
            seed=seed,
        )


def shard_stream(seed: int, shard: int) -> np.random.Generator:
    """Independent Philox stream for one shard of one run."""
    if not 0 <= seed < 2**64:
        raise InvalidInput("seed must fit in 64 bits")
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, shard], dtype=np.uint64))
    )


def _shard_rows(n: int) -> int:
    return max(1, _SHARD_SCALARS // n)


def _shard_plan(samples: int, n: int):
    rows = _shard_rows(n)
    for shard, done in enumerate(range(0, samples, rows)):
        yield shard, min(rows, samples - done)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_counts(seed: int, samples: int, row_scalars: int, events) -> list[int]:
    """Hit counts per event over the shards of one run, the only shard loop.

    ``events(rng, rows)`` draws a shard's rows from its stream and returns one
    boolean array per event; row_scalars (draws per row) sets the row counts.
    Worker j of W, ``count(j)``, takes shards j, j + W, ... and the workers'
    totals are summed: counts are integers, so they do not depend on W.  One
    worker runs on the caller's thread; several on a pool, so ``events`` must
    not write shared state.  The first exception raised on a worker, or in
    the waiting caller (an interrupt), stops every worker after its current
    shard and propagates.
    """
    if samples < MIN_SAMPLES:
        raise InvalidInput(f"samples must be >= {MIN_SAMPLES}")
    workers = min(-(-samples // _shard_rows(row_scalars)), _cpu_count())
    stop = threading.Event()

    def count(j):
        totals = 0
        plan = _shard_plan(samples, row_scalars)  # a generator per worker
        for shard, rows in itertools.islice(plan, j, None, workers):
            if stop.is_set():
                break
            rng = shard_stream(seed, shard)
            totals = np.add(totals, [np.count_nonzero(e) for e in events(rng, rows)])
        return totals

    if workers <= 1:
        return count(0).tolist()
    from concurrent.futures import ThreadPoolExecutor, as_completed

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(count, j) for j in range(workers)]
        try:
            return np.sum([f.result() for f in as_completed(futures)], axis=0).tolist()
        finally:
            stop.set()


def _blocks(W: np.ndarray, variance: np.ndarray):
    """(singles, firsts, sizes): the coordinates grouped by (W[:, i], variance_i).

    Coordinates sharing a column of W and a variance are exchangeable: the
    NP, Bayes and GLRT statistics see only the sum of their y_i^2, and
    example3's laws only their maximum.  ``singles`` are the coordinates in
    blocks of one, in order; ``firsts`` and ``sizes`` give the first
    coordinate and size of each block of two or more, in order of that
    coordinate.  Coordinates whose column of W is all zero are in no
    block.  One stable lexicographic sort, with W's rows and the variance
    as separate keys, puts each block's coordinates side by side, first
    one first.  No (k + 1, n) copy of the columns is made: at example3's
    n = 1e4 such a copy is above glibc's mmap threshold, so each call
    would fault fresh pages in, at more cost than the draws.
    """
    kept = np.flatnonzero(W.any(axis=0))
    cols = slice(None) if kept.size == W.shape[1] else kept
    keys = [variance[cols], *(W[i, cols] for i in range(W.shape[0] - 1, -1, -1))]
    order = np.lexsort(keys)  # by W[0], ties by W[1], ..., then variance
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, order.size])
    first = order[starts]
    by_first = np.argsort(first)
    first, sizes = kept[first[by_first]], sizes[by_first]
    return first[sizes == 1], first[sizes > 1], sizes[sizes > 1]


def estimate_error_probs(
    test: Test,
    true_sigma: Optional[IntensityVector] = None,
    samples: int = 100_000,
    seed: int = 1,
) -> MonteCarloEstimate:
    """Monte Carlo error probability of a test.

    With true_sigma None the observations are pure noise and the estimate is
    the false alarm probability (rejection frequency).  With a true
    intensity lambda the observations are componentwise sqrt(1+lambda_i^2)
    times standard normals (in distribution equal to signal plus noise) and
    the estimate is the miss probability (acceptance frequency); passing a
    lambda different from the test's design point gives the mismatched miss
    probability.

    The test scores a row only through sum_i w_ki y_i^2, so coordinates
    sharing a weight column and a variance 1+lambda_i^2 are drawn together:
    one (1+lambda^2) chi2_m per row for a block of m >= 2 (``_blocks``),
    after one standard_normal call for the coordinates in blocks of one.
    Coordinates of zero weight are not drawn.  ``test.accepts`` scores the
    squares and block sums against their weight columns.  A shard holds
    2^17 // c rows (at least one), c the larger of the drawn columns and
    min(k, n) for a test of k points: its draws and its (k, rows) scores
    fit in 2^17 floats each, except that it keeps the 2^17 // n rows of one
    normal per coordinate when k > n.  When every coordinate is a block of
    one with nonzero weight, the rows per shard, the draws and the
    arithmetic are those of one normal per coordinate.
    """
    samples, seed = _as_integer(samples, "samples"), _as_integer(seed, "seed")
    n = test.n
    variance = np.ones(n)
    if true_sigma is not None:
        if true_sigma.n != n:
            raise DimensionMismatch(
                f"true intensity has length {true_sigma.n}, test has {n}"
            )
        variance = 1.0 + true_sigma.squared
    singles, firsts, sizes = _blocks(test._W, variance)
    drawn = np.concatenate([singles, firsts])
    W = test._W if drawn.size == n else test._W[:, drawn]
    scale = None if true_sigma is None else np.sqrt(variance[singles])
    block_variance = variance[firsts]

    def events(rng, rows):
        Y = rng.standard_normal((rows, singles.size))
        if scale is not None:
            Y *= scale
        Y2 = np.square(Y, out=Y)
        if sizes.size:
            Y2 = np.column_stack([Y2] + [
                rng.chisquare(m, rows) * v for m, v in zip(sizes, block_variance)
            ])
        return (test.accepts(Y2, weights=W),)

    # Each (rows, drawn) and (k, rows) array of a shard stays within 2^17
    # floats, but a shard never holds fewer rows than 2^17 // n.
    row_scalars = max(1, drawn.size, min(W.shape[0], n))
    (accepted,) = _shard_counts(seed, samples, row_scalars, events)
    hits = accepted if true_sigma is not None else samples - accepted
    return MonteCarloEstimate.from_counts(hits, samples, seed)


_MASS_TOL = 1e-16  # mass each of the three truncations below may move
_MAX_TERMS = 2**19  # 4 MB of coefficients; wider spreads are out of regime
_EDGE = 1e-18  # incomplete gamma values past the window are within this of 0 or 1
_EDGE_REL = 1e-17  # ... and on the side of 0, within this share of the result


def _mixture_coefficients(w: np.ndarray):
    """(beta, a): sum w_i xi_i^2 equals beta chi2_{n+2K} in law, P(K=k) = a_k.

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
    p = beta / w
    r = 1.0 - p
    cols = max(1, 2**16 // w.size)  # bounds each (weights, points) array
    # z = 1/(1 - v beta/top) with v in (0, 1) spans (1, 1/max r); there
    # ln G(z) z^-N = -sum ln(1 - v w_i/top)/2 + (n/2 + N) ln(1 - v beta/top).
    v = 1.0 - 2.0 ** -np.arange(1.0, 53.0)
    ln_g = -0.5 * np.concatenate([
        np.log1p(np.multiply.outer(w / -top, v[i:i + cols])).sum(axis=0)
        for i in range(0, v.size, cols)
    ])
    ln_step = np.log1p(-v * (beta / top))
    need = float(np.min((math.log(_MASS_TOL) - ln_g) / ln_step)) - 0.5 * w.size
    if need > _MAX_TERMS:
        raise OutOfRegime(
            f"weight spread {top / beta:.3g} over {w.size} weights needs "
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
        modulus = np.log1p(modulus, out=modulus).sum(axis=0)
        real = r2 * s2
        real += p_col
        phase = r_col * np.sin(theta)
        phase = np.arctan2(phase, real, out=phase).sum(axis=0)
        return -0.25 * modulus - 0.5j * phase

    floor = math.log(_MASS_TOL / terms)
    kept = bisect_left(range(terms // 2 + 1), True, 1,
                       key=lambda j: ln_gf(j)[0].real <= floor)
    g = np.zeros(terms // 2 + 1, dtype=complex)
    for lo in range(0, kept, cols):
        hi = min(kept, lo + cols)
        g[lo:hi] = np.exp(ln_gf(np.arange(lo, hi)))
    return beta, np.fft.irfft(g, terms)


def _weighted_chi2(weights, x: float, upper: bool) -> float:
    """P(sum w_i xi_i^2 > x) if upper, else the cdf of ``weighted_chi2_cdf``.

    Both tails are sums over the same mixture coefficients a_k, so the upper
    tail is never formed as 1 - cdf.  The upper incomplete gamma
    Q(n/2 + k, y) rises in k from 0 to 1, and P = 1 - Q falls, so the
    incomplete gamma is evaluated only on a window [lo, hi) of k: below
    lo, Q <= 1e-18, and from hi on, P <= 1e-18.  On the side where the
    tail's incomplete gamma is about 1 its terms are the plain sum of their
    a_k, which moves the result by at most 1e-18 of that sum.  On the side
    where it is about 0, a second search then widens the window to the
    first k at which the incomplete gamma is at most 1e-17 of the sum so
    far: the terms past that edge are smaller still, and their a_k sum to
    at most 1, so dropping them moves the result by at most 1e-17 of
    itself.
    """
    w, x = _as_vector(weights, "weights"), _as_number(x, "x")
    if np.any(w < 0):
        raise InvalidInput("weights must be nonnegative")
    if x < 0:
        raise InvalidInput("x must be nonnegative")
    w = w[w > 0]  # zero-weight components contribute nothing
    if w.size == 0:
        return 0.0 if upper else 1.0  # the sum is identically 0 <= x
    if w.size == 1:  # a = [1]: Q(1/2, y) = erfc(sqrt y), P(1/2, y) = erf(sqrt y)
        root = math.sqrt(x / (2.0 * float(w[0])))
        return math.erfc(root) if upper else math.erf(root)
    from scipy.special import gammainc, gammaincc

    beta, a = _mixture_coefficients(w)
    half, y, ks = 0.5 * w.size, x / (2.0 * beta), range(a.size)
    lo = bisect_left(ks, True, key=lambda k: gammaincc(half + k, y) > _EDGE)
    hi = bisect_left(ks, True, lo, key=lambda k: gammainc(half + k, y) <= _EDGE)
    tail = gammaincc if upper else gammainc

    def mixed(i, j):  # the terms i <= k < j of the mixture
        return float(a[i:j] @ tail(half + np.arange(i, j), y))

    if upper:
        total = float(a[hi:].sum()) + mixed(lo, hi)
        edge = bisect_left(ks, True, 0, lo,
                           key=lambda k: gammaincc(half + k, y) > _EDGE_REL * total)
        total += mixed(edge, lo)
    else:
        total = float(a[:lo].sum()) + mixed(lo, hi)
        edge = bisect_left(ks, True, hi,
                           key=lambda k: gammainc(half + k, y) <= _EDGE_REL * total)
        total += mixed(hi, edge)
    return min(1.0, max(0.0, total))


def weighted_chi2_cdf(weights, x: float) -> float:
    """P(sum w_i xi_i^2 <= x) for finite nonnegative weights and x >= 0.

    One path for every weight vector: the chi-square mixture
    sum_k a_k P(n/2 + k, x / (2 min w)) of Ruben (1962), with the a_k from
    one inverse FFT of their generating function (``_mixture_coefficients``).
    Equal weights give a = [1], the incomplete gamma itself.  A single
    weight is its shape-1/2 case, erf(sqrt(x / 2w)), taken from ``math.erf``
    and ``math.erfc``: within 7e-17 of mpmath near x = 2w, where scipy's
    shape-1/2 incomplete gamma is off by up to 4.1e-15.  The term count N
    is the least count ``need`` at which the Chernoff bound leaves at most
    1e-16 of the mixture's mass past N, rounded up to the least
    m 2^e with m in {4, ..., 8} (at most 25% above ``need``).  The
    incomplete gamma is evaluated only on a window of k (``_weighted_chi2``):
    outside it, the terms whose incomplete gamma is within 1e-18 of 1 are
    summed as their a_k, and the terms on the other side, whose incomplete
    gamma is at most 1e-17 of the result, are dropped.  The absolute error
    is below 5e-15: at most 3e-16 from the truncation, aliasing and cutoff
    of the a_k, at most 1e-18 from the window's side of 1 and 1e-17 of the
    result from its side of 0; the rest is rounding, chiefly scipy's
    incomplete gamma.  A spread max w / min w that needs more than 2^19
    terms (about 1e4 at n = 1000) raises OutOfRegime; non-finite input
    raises InvalidInput.
    """
    return _weighted_chi2(weights, x, upper=False)


def np_test_exact_probs(test: NpTest):
    """Exact (alpha, beta) of an ellipsoid test via the weighted chi-square oracle.

    alpha is the oracle's upper tail, so a tiny alpha is not rounded to 0.
    """
    thr = test.threshold
    alpha = _weighted_chi2(test.sigma.r_squared, thr, upper=True)
    beta = weighted_chi2_cdf(test.sigma.squared, thr)
    return alpha, beta


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {|y_i| <= half_widths_i}."""

    half_widths: np.ndarray

    def __post_init__(self):
        hw = _as_vector(self.half_widths, "half_widths")
        if np.any(hw <= 0):
            raise InvalidInput("half widths must be positive")
        hw.setflags(write=False)
        object.__setattr__(self, "half_widths", hw)

    @property
    def dim(self) -> int:
        return self.half_widths.size

    def contains(self, Y: np.ndarray) -> np.ndarray:
        return np.all(np.abs(Y) <= self.half_widths, axis=1)


@dataclass(frozen=True)
class Ellipsoid:
    """Weighted ellipsoid {sum w_i y_i^2 <= c}."""

    weights: np.ndarray
    c: float

    def __post_init__(self):
        w = _as_vector(self.weights, "weights")
        object.__setattr__(self, "c", _as_number(self.c, "c"))
        if np.any(w < 0) or self.c < 0:
            raise InvalidInput("weights and radius must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    def contains(self, Y: np.ndarray) -> np.ndarray:
        return (Y**2) @ self.weights <= self.c


AxisSymmetricRegion = Union[Box, Ellipsoid]


@dataclass(frozen=True)
class Lemma1Result:
    """Both sides of P(xi + eta in B) <= P(xi in B), with a verdict."""

    p_sum: MonteCarloEstimate
    p_xi: MonteCarloEstimate
    holds: bool


def lemma1_check(
    region: AxisSymmetricRegion,
    xi_sd,
    eta_sd,
    samples: int = 100_000,
    seed: int = 1,
) -> Lemma1Result:
    """Monte Carlo check of the convex-symmetric-set smoothing inequality.

    For any convex region symmetric under every coordinate sign flip,
    adding an independent centered Gaussian eta to a centered Gaussian xi
    can only reduce the probability of staying inside.  Both sides are
    estimated on the same xi draws (paired), and the verdict allows three
    combined standard errors of slack.
    """
    samples, seed = _as_integer(samples, "samples"), _as_integer(seed, "seed")
    xi_sd = _as_vector(xi_sd, "xi_sd")
    eta_sd = _as_vector(eta_sd, "eta_sd")
    if np.any(xi_sd < 0) or np.any(eta_sd < 0):
        raise InvalidInput("component SDs must be nonnegative")
    if xi_sd.size != region.dim or eta_sd.size != region.dim:
        raise DimensionMismatch("component SDs must match the region dimension")

    def events(rng, rows):
        xi = rng.standard_normal((rows, region.dim))
        xi *= xi_sd
        eta = rng.standard_normal((rows, region.dim))
        eta *= eta_sd
        eta += xi  # xi + eta, in place
        return region.contains(eta), region.contains(xi)

    hits_sum, hits_xi = _shard_counts(seed, samples, 2 * region.dim, events)
    p_sum = MonteCarloEstimate.from_counts(hits_sum, samples, seed)
    p_xi = MonteCarloEstimate.from_counts(hits_xi, samples, seed)
    joint = math.hypot(p_sum.stderr, p_xi.stderr)
    return Lemma1Result(
        p_sum=p_sum, p_xi=p_xi, holds=p_sum.p_hat <= p_xi.p_hat + 3.0 * joint
    )


@dataclass(frozen=True)
class Example3Report:
    """Outputs of the sum-floor max-ratio experiment.

    The test accepts H0 iff max_i y_i^2 <= threshold; with one-hot
    candidates at R*sqrt(n) and a common level this is exactly the
    max-ratio test over the reduced candidate set.  beta_predictor is the
    closed-form product formula for the miss probability at the one-hot
    design point; log_ratio (when a probe lambda is supplied) compares
    ln beta at lambda against ln beta at the design point.
    """

    n: int
    R: float
    A: float
    threshold: float
    alpha: MonteCarloEstimate
    beta_sigma1: MonteCarloEstimate
    alpha_bound: float
    beta_bound: float
    beta_predictor: float
    beta_lambda: Optional[MonteCarloEstimate]
    log_ratio: Optional[float]


def example3_experiment(
    n: int,
    R: float,
    samples: int = 100_000,
    seed: int = 1,
    probe_lambda: Optional[IntensityVector] = None,
) -> Example3Report:
    """Run the sum-floor experiment end to end.

    Builds the max-ratio test over the n one-hot candidates at R*sqrt(n)
    with the common level A = 2 ln n - ln(1+n R^2), estimates the false
    alarm probability under noise and the miss probability at the one-hot
    design point, and reports them against the closed-form caps
    1/sqrt(2 ln n) and sqrt(2 ln n)/(R sqrt(n)).  An optional probe
    intensity (any lambda, typically with sum lambda_i^2 = n R^2) yields
    the mismatched miss probability and the log-ratio diagnostic; the
    asymptotic equal-exponent claim has no finite-n pass/fail form, so the
    ratio is reported for inspection only.

    Each law accepts iff max_i scale_i y_i^2 <= threshold, with its own
    scale per coordinate: 1 under noise, 1 + n R^2 at coordinate 0 at the
    design point, 1 + lambda_i^2 under the probe.  Coordinates that share a
    column of scales (``_blocks``) enter every law only through the
    maximum M of their m iid y_i^2, and P(M <= c) = F(c)^m with
    F(c) = erf(sqrt(c/2)).  So one run draws, per row, one normal for each
    coordinate in a block of one (in one call, first) and one uniform U for
    each block of m >= 2, which law L scores as U < F(threshold / scale)^m.
    Every law is scored on the same draws, and a block's one U serves all
    of them (the monotone coupling, so the joint law of the three events is
    exact): each estimate is unbiased, and they are correlated.  A shard
    holds 2^17 // c rows, c the drawn columns.  With an all-distinct probe
    every coordinate is a block of one, and the run draws one normal per
    coordinate.
    """
    n = _as_integer(n, "n")
    samples, seed = _as_integer(samples, "samples"), _as_integer(seed, "seed")
    if n < 2:
        raise InvalidInput("n must be >= 2")
    R = _as_number(R, "R")
    if R <= 0:
        raise InvalidInput("R must be positive")
    nr2 = n * R * R
    d1 = math.log1p(nr2)
    A = 2.0 * math.log(n) - d1
    # With one-hot candidates at R*sqrt(n) and a common level, the max-ratio
    # statistic exceeds its level iff some y_i^2 exceeds this threshold.
    threshold = (1.0 + nr2) * (d1 + A) / nr2 if nr2 > 0.0 else math.inf
    if not math.isfinite(A + threshold):
        raise OutOfRegime(f"n R^2 = {nr2:.3g} leaves no finite threshold")

    scales = np.ones((2 if probe_lambda is None else 3, n))
    scales[1, 0] += nr2
    if probe_lambda is not None:
        if probe_lambda.n != n:
            raise DimensionMismatch(
                f"probe lambda has length {probe_lambda.n}, experiment has {n}"
            )
        scales[2] += probe_lambda.squared
    singles, firsts, sizes = _blocks(scales, np.ones(n))
    single_scales = scales[:, singles]
    block_p = np.array([
        [math.exp(m * math.log1p(-math.erfc(math.sqrt(0.5 * threshold / scale))))
         for m, scale in zip(sizes, law[firsts])]
        for law in scales
    ])[:, :, None]

    def events(rng, rows):
        Y2 = np.square(rng.standard_normal((rows, singles.size)))
        U = rng.random((firsts.size, rows))  # row j: block j's uniforms
        accepts = [
            np.all(Y2 * scale <= threshold, axis=1) & np.all(U < p, axis=0)
            for scale, p in zip(single_scales, block_p)
        ]
        return (~accepts[0], *accepts[1:])

    hits = _shard_counts(seed, samples, singles.size + firsts.size, events)
    alpha, beta1, *probe = (
        MonteCarloEstimate.from_counts(h, samples, seed) for h in hits
    )

    # Closed-form product predictor for the miss at the one-hot design point.
    p_signal = math.erf(math.sqrt((d1 + A) / (2.0 * nr2)))
    p_noise = math.erf(math.sqrt(threshold / 2.0))
    predictor = p_signal * p_noise ** (n - 1)

    beta_lam = probe[0] if probe else None
    log_ratio = None
    if beta_lam is not None and 0.0 < beta_lam.p_hat and 0.0 < beta1.p_hat < 1.0:
        log_ratio = math.log(beta_lam.p_hat) / math.log(beta1.p_hat)

    return Example3Report(
        n=n,
        R=R,
        A=A,
        threshold=threshold,
        alpha=alpha,
        beta_sigma1=beta1,
        alpha_bound=1.0 / math.sqrt(2.0 * math.log(n)),
        beta_bound=math.sqrt(2.0 * math.log(n)) / (R * math.sqrt(n)),
        beta_predictor=predictor,
        beta_lambda=beta_lam,
        log_ratio=log_ratio,
    )
