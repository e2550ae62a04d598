"""Monte Carlo ground truth and exact distribution oracles.

Sampling uses the counter-based Philox generator with one independent stream
per shard, keyed by (seed, shard index), so shards never overlap and each is
a pure function of (seed, shard).  Shard row counts depend only on the
instance dimension.  A run with more than one shard runs them on
W = min(shards, CPUs this process may use) threads: worker j takes shards
j, j + W, j + 2W, ... and returns its own hit counts, which are summed.  numpy
releases the interpreter lock while it draws normals and multiplies matrices,
so the workers overlap; each holds one shard's arrays at a time, so the peak
memory is that of W shards.  Counts are bit-identical for a fixed
(seed, samples, instance) whatever the worker count, so results are
reproducible across machines.  The estimates of one run (both sides of
``lemma1_check``; the false alarm and the misses of ``example3_experiment``)
share its draws: each is unbiased, and they are correlated.

The exact oracle for the weighted chi-square probabilities behind alpha and
beta has one path for every weight vector: the chi-square mixture of Ruben
(1962), whose coefficients come from one inverse FFT of their generating
function.  Both tails are sums over the same coefficients, with an absolute
error below 5e-15; a weight spread that needs more than 2^19 terms raises
OutOfRegime.

Only the oracle needs scipy (the incomplete gamma).  It is imported
inside the oracle functions, on their first call, so that importing this
module, and the Monte Carlo paths, load numpy and the standard library only.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, InvalidInput, OutOfRegime
from .model import BayesTest, GlrtTest, IntensityVector, NpTest

MIN_SAMPLES = 1_000
_SHARD_SCALARS = 4_000_000  # draws per shard; fixes shard row counts per n

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


def _count_shards(seed: int, plan, events) -> np.ndarray:
    """Hit counts per event over the shards of ``plan``, one after another."""
    totals = 0
    for shard, rows in plan:
        rng = shard_stream(seed, shard)
        totals = np.add(totals, [np.count_nonzero(e) for e in events(rng, rows)])
    return totals


def _shard_counts(
    seed: int, samples: int, row_scalars: int, events
) -> list[int]:
    """Hit counts per event over the shards of one run, the only shard loop.

    ``events(rng, rows)`` draws a shard's rows from its stream and returns one
    boolean array per event; row_scalars (normals per row) sets the row counts.
    ``events`` may run on several threads at once, so it must not write
    shared state.  Worker j of W takes shards j, j + W, ... and the workers'
    totals are summed: counts are integers, so they do not depend on W.  The
    first exception raised on a worker, or in the waiting caller (an
    interrupt), stops every worker after its current shard and propagates.
    """
    if samples < MIN_SAMPLES:
        raise InvalidInput(f"samples must be >= {MIN_SAMPLES}")
    workers = min(-(-samples // _shard_rows(row_scalars)), _cpu_count())
    if workers <= 1:
        plan = _shard_plan(samples, row_scalars)
        return _count_shards(seed, plan, events).tolist()
    import threading
    from concurrent.futures import ThreadPoolExecutor, as_completed

    stop = threading.Event()

    def strided(j):  # a lazy plan of its own per worker: generators are not shared
        plan = itertools.islice(_shard_plan(samples, row_scalars), j, None, workers)
        return itertools.takewhile(lambda _: not stop.is_set(), plan)

    with ThreadPoolExecutor(workers) as pool:
        futures = [
            pool.submit(_count_shards, seed, strided(j), events)
            for j in range(workers)
        ]
        try:
            return np.sum([f.result() for f in as_completed(futures)], axis=0).tolist()
        finally:
            stop.set()


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
    """
    n = test.n
    scale = None
    if true_sigma is not None:
        if true_sigma.n != n:
            raise DimensionMismatch(
                f"true intensity has length {true_sigma.n}, test has {n}"
            )
        scale = np.sqrt(1.0 + true_sigma.squared)

    def events(rng, rows):
        Y = rng.standard_normal((rows, n))
        if scale is not None:
            Y *= scale
        return (test.accepts(Y, overwrite=True),)

    (accepted,) = _shard_counts(seed, samples, n, events)
    hits = accepted if scale is not None else samples - accepted
    return MonteCarloEstimate.from_counts(hits, samples, seed)


_MASS_TOL = 1e-16  # mass each of the three truncations below may move
_MAX_TERMS = 2**19  # 4 MB of coefficients; wider spreads are out of regime


def _mixture_coefficients(w: np.ndarray):
    """(beta, a): sum w_i xi_i^2 equals beta chi2_{n+2K} in law, P(K=k) = a_k.

    With beta = min w, p_i = beta/w_i and r_i = 1 - p_i, K has generating
    function G(z) = prod (p_i / (1 - r_i z))^(1/2) (Ruben 1962), so a_k >= 0
    and sum a_k = 1.  The term count N is the least power of two >= 64 at
    which the Chernoff bound G(z) z^-N, minimised over a grid of
    z in (1, 1/max r), puts at most 1e-16 of K's mass at or past N.  One
    inverse FFT of G on the N-th roots of unity gives a_k plus the aliased
    a_(k+N), a_(k+2N), ...: at most 1e-16 in all.  |G(e^(-i theta))|
    falls on [0, pi], so G is set to zero past the last point where it
    exceeds 1e-16/N, which moves each a_k by at most 1e-16/N.  Equal
    weights give r = 0 and a = [1, 0, ...] exactly.
    """
    beta, top = float(np.min(w)), float(np.max(w))
    p = beta / w
    r = 1.0 - p
    # z = 1/(1 - v beta/top) with v in (0, 1) spans (1, 1/max r); there
    # ln G(z) z^-N = -sum ln(1 - v w_i/top)/2 + (n/2 + N) ln(1 - v beta/top).
    v = 1.0 - 2.0 ** -np.arange(1.0, 53.0)
    ln_g = np.array([-0.5 * np.sum(np.log1p(-vk * (w / top))) for vk in v])
    ln_step = np.log1p(-v * (beta / top))
    terms = 64
    while np.min(ln_g + (0.5 * w.size + terms) * ln_step) > math.log(_MASS_TOL):
        terms *= 2
        if terms > _MAX_TERMS:
            raise OutOfRegime(
                f"weight spread {top / beta:.3g} over {w.size} weights needs "
                f"more than {_MAX_TERMS} mixture terms"
            )

    def ln_gf(j):
        """ln G(e^(-i theta_j)), theta_j = 2 pi j / N, for an array of j.

        |1 - r e^(-i theta)|^2 = p^2 + 4 r sin^2(theta/2) and the real part
        p + 2 r sin^2(theta/2) are formed without cancellation, so no mass
        is lost when p_i is small.
        """
        theta = (2.0 * math.pi / terms) * np.atleast_1d(j)[:, None]
        s2 = np.sin(0.5 * theta) ** 2
        modulus = np.log1p(4.0 * r * s2 / p**2).sum(axis=1)
        phase = np.arctan2(r * np.sin(theta), p + 2.0 * r * s2).sum(axis=1)
        return -0.25 * modulus - 0.5j * phase

    floor = math.log(_MASS_TOL / terms)
    kept, past = 1, terms // 2 + 1  # |G| > 1e-16/N before kept, not from past
    while kept < past:
        mid = (kept + past) // 2
        if ln_gf(mid)[0].real > floor:
            kept = mid + 1
        else:
            past = mid
    g = np.zeros(terms // 2 + 1, dtype=complex)
    rows = max(1, 2**16 // w.size)  # bounds each (points, weights) array
    for lo in range(0, kept, rows):
        hi = min(kept, lo + rows)
        g[lo:hi] = np.exp(ln_gf(np.arange(lo, hi)))
    return beta, np.fft.irfft(g, terms)


def _weighted_chi2(weights, x: float, upper: bool) -> float:
    """P(sum w_i xi_i^2 > x) if upper, else the cdf of ``weighted_chi2_cdf``.

    Both tails are sums over the same mixture coefficients a_k, so the upper
    tail is never formed as 1 - cdf.
    """
    from scipy.special import gammainc, gammaincc

    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if not (np.all(np.isfinite(w)) and math.isfinite(x)):
        raise InvalidInput("weights and x must be finite")
    if np.any(w < 0):
        raise InvalidInput("weights must be nonnegative")
    if x < 0:
        raise InvalidInput("x must be nonnegative")
    w = w[w > 0]  # zero-weight components contribute nothing
    if w.size == 0:
        return 0.0 if upper else 1.0  # the sum is identically 0 <= x
    beta, a = _mixture_coefficients(w)
    shapes = 0.5 * w.size + np.arange(a.size)
    tail = (gammaincc if upper else gammainc)(shapes, x / (2.0 * beta))
    return min(1.0, max(0.0, float(a @ tail)))


def weighted_chi2_cdf(weights, x: float) -> float:
    """P(sum w_i xi_i^2 <= x) for finite nonnegative weights and x >= 0.

    One path for every weight vector: the chi-square mixture
    sum_k a_k P(n/2 + k, x / (2 min w)) of Ruben (1962), with the a_k from
    one inverse FFT of their generating function (``_mixture_coefficients``).
    Equal weights and a single weight give a = [1], the incomplete gamma
    itself.  The absolute error is below 5e-15: at most 3e-16 from the
    truncation, aliasing and cutoff of the a_k; the rest is rounding,
    chiefly scipy's incomplete gamma, which is off by up to 4.3e-15 at shape
    1/2 near x = w and by less than 1e-15 elsewhere against mpmath.  A spread
    max w / min w that needs more than 2^19 terms (about 1e4 at n = 1000)
    raises OutOfRegime; non-finite input raises InvalidInput.
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
        hw = np.atleast_1d(np.asarray(self.half_widths, dtype=float))
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
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
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
    xi_sd = np.atleast_1d(np.asarray(xi_sd, dtype=float))
    eta_sd = np.atleast_1d(np.asarray(eta_sd, dtype=float))
    if xi_sd.size != region.dim or eta_sd.size != region.dim:
        raise DimensionMismatch("component SDs must match the region dimension")

    def events(rng, rows):
        xi = rng.standard_normal((rows, region.dim)) * xi_sd
        eta = rng.standard_normal((rows, region.dim)) * eta_sd
        return region.contains(xi + eta), region.contains(xi)

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

    The three laws differ only in per-coordinate variance scales, so one
    run draws samples x n normals and scores every law on the same draws:
    each estimate is unbiased, and the estimates are correlated.
    """
    if n < 2:
        raise InvalidInput("n must be >= 2")
    if R <= 0:
        raise InvalidInput("R must be positive")
    nr2 = n * R * R
    d1 = math.log1p(nr2)
    A = 2.0 * math.log(n) - d1
    # With one-hot candidates at R*sqrt(n) and a common level, the max-ratio
    # statistic exceeds its level iff some y_i^2 exceeds this threshold.
    threshold = (1.0 + nr2) * (d1 + A) / nr2

    probe_scale = None
    if probe_lambda is not None:
        if probe_lambda.n != n:
            raise DimensionMismatch(
                f"probe lambda has length {probe_lambda.n}, experiment has {n}"
            )
        probe_scale = 1.0 + probe_lambda.squared

    def events(rng, rows):
        Y2 = rng.standard_normal((rows, n))
        np.square(Y2, out=Y2)  # in place: one (rows, n) array per worker
        rest_ok = np.max(Y2[:, 1:], axis=1) <= threshold
        rejects = ~(rest_ok & (Y2[:, 0] <= threshold))
        one_hot_accepts = rest_ok & ((1.0 + nr2) * Y2[:, 0] <= threshold)
        if probe_scale is None:
            return rejects, one_hot_accepts
        Y2 *= probe_scale
        return rejects, one_hot_accepts, np.max(Y2, axis=1) <= threshold

    hits = _shard_counts(seed, samples, n, events)
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
