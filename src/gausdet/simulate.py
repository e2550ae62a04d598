"""Monte Carlo ground truth and exact distribution oracles.

Sampling uses the counter-based Philox generator with one independent stream
per shard, keyed by (seed, shard index): estimates are bit-identical for a
fixed (seed, samples, instance) regardless of how shards would be scheduled,
and shards never overlap.  Shard row counts depend only on the instance
dimension, so results are reproducible across machines.

The exact oracle for the weighted chi-square probabilities behind alpha and
beta is a chi-square mixture series with certified truncation error, with the
regularized incomplete gamma closed form on equal weights and
characteristic-function inversion as the wide-spread fallback.

Only the oracle needs scipy (incomplete gamma, quadrature).  It is imported
inside the oracle functions, on their first call, so that importing this
module, and the Monte Carlo paths, load numpy and the standard library only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, InvalidInput
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


def _shard_counts(
    seed: int, samples: int, row_scalars: int, events
) -> list[int]:
    """Hit counts per event over the shards of one run, the only shard loop.

    ``events(rng, rows)`` draws a shard's rows from its stream and returns one
    boolean array per event; row_scalars (normals per row) sets the row counts.
    """
    totals = 0
    for shard, rows in _shard_plan(samples, row_scalars):
        rng = shard_stream(seed, shard)
        totals = np.add(totals, [np.count_nonzero(e) for e in events(rng, rows)])
    return totals.tolist()


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
    if samples < MIN_SAMPLES:
        raise InvalidInput(f"samples must be >= {MIN_SAMPLES}")
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
        return (test.accepts(Y),)

    (accepted,) = _shard_counts(seed, samples, n, events)
    hits = accepted if scale is not None else samples - accepted
    return MonteCarloEstimate.from_counts(hits, samples, seed)


def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x)."""
    from scipy.special import gammainc

    return float(gammainc(a, x))


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x)."""
    from scipy.special import gammaincc

    return float(gammaincc(a, x))


_RUBEN_MAX_TERMS = 20_000
_RUBEN_TOL = 1e-13


def _ruben_cdf(w: np.ndarray, x: float) -> Optional[float]:
    """P(sum w_i xi_i^2 <= x) as a mixture of chi-square CDFs.

    With beta = min(w) the mixture coefficients are nonnegative and sum
    to 1, so the truncation error is bounded by the unassigned mass.
    Returns None when the weight spread makes convergence too slow;
    callers then fall back to characteristic-function inversion.
    """
    from scipy.special import gammainc

    beta = float(np.min(w))
    r = 1.0 - beta / w  # each in [0, 1)
    q = float(np.max(r))
    if q > 0.0 and 30.0 / -math.log(q) > _RUBEN_MAX_TERMS:
        return None
    n = w.size
    a = np.empty(_RUBEN_MAX_TERMS)
    c = np.empty(_RUBEN_MAX_TERMS + 1)
    a[0] = math.exp(0.5 * float(np.sum(np.log(beta / w))))
    mass = a[0]
    r_pow = r.copy()
    used = 1
    for k in range(1, _RUBEN_MAX_TERMS):
        c[k] = float(np.sum(r_pow))
        r_pow *= r
        a[k] = float(np.dot(a[:k], c[k:0:-1])) / (2.0 * k)
        mass += a[k]
        used = k + 1
        if 1.0 - mass <= _RUBEN_TOL:
            break
    else:
        return None
    k_arr = np.arange(used)
    terms = a[:used] * gammainc(0.5 * n + k_arr, x / (2.0 * beta))
    return min(1.0, max(0.0, float(np.sum(terms)) + (1.0 - mass)))


def _imhof_cdf(w: np.ndarray, x: float) -> float:
    """P(sum w_i xi_i^2 <= x) by numerical inversion of the characteristic
    function (Imhof's formula), distinct positive weights."""
    from scipy.integrate import IntegrationWarning, quad

    def integrand(u: float) -> float:
        theta = 0.5 * float(np.sum(np.arctan(w * u))) - 0.5 * x * u
        log_rho = 0.25 * float(np.sum(np.log1p((w * u) ** 2)))
        return math.sin(theta) / (u * math.exp(log_rho))

    # The oscillatory tail keeps the quadrature from its requested
    # tolerance; accuracy ~1e-4 absolute is expected and documented.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=1000
        )
    return min(1.0, max(0.0, 0.5 - val / math.pi))


def _weighted_chi2(weights, x: float, upper: bool) -> float:
    """P(sum w_i xi_i^2 > x) if upper, else the cdf of ``weighted_chi2_cdf``.

    The closed forms give the upper tail directly (erfc, Q), not as 1 - cdf.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(w < 0):
        raise InvalidInput("weights must be nonnegative")
    if x < 0:
        raise InvalidInput("x must be nonnegative")
    w = w[w > 0]  # zero-weight components contribute nothing
    if w.size == 0:
        return 0.0 if upper else 1.0  # the sum is identically 0 <= x
    if x == 0:
        return 1.0 if upper else 0.0
    if w.size == 1:
        z = math.sqrt(x / (2.0 * w[0]))
        return math.erfc(z) if upper else math.erf(z)
    lo, hi = float(np.min(w)), float(np.max(w))
    if hi - lo <= 1e-12 * hi:
        a, z = w.size / 2.0, x / (2.0 * hi)
        return regularized_gamma_q(a, z) if upper else regularized_gamma_p(a, z)
    cdf = _ruben_cdf(w, x)
    if cdf is None:
        cdf = _imhof_cdf(w, x)
    return 1.0 - cdf if upper else cdf


def weighted_chi2_cdf(weights, x: float) -> float:
    """P(sum w_i xi_i^2 <= x) for nonnegative weights, x >= 0.

    One weight reduces to the folded normal CDF; equal weights reduce to the
    regularized incomplete gamma P(n/2, x/(2w)).  General
    weights use the chi-square mixture series (truncation error below
    1e-13), falling back to characteristic-function inversion when the
    weight spread makes the series converge too slowly; both paths are
    cross-validated in the test suite against the closed forms and
    high-sample Monte Carlo.
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
    if samples < MIN_SAMPLES:
        raise InvalidInput(f"samples must be >= {MIN_SAMPLES}")

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


def _max_sq_accept_prob_mc(
    var_scale: np.ndarray, threshold: float, samples: int, seed: int, n: int
) -> MonteCarloEstimate:
    """MC frequency of max_i (var_scale_i * xi_i^2) <= threshold."""

    def events(rng, rows):
        Y2 = rng.standard_normal((rows, n)) ** 2
        Y2 *= var_scale
        return (np.max(Y2, axis=1) <= threshold,)

    (hits,) = _shard_counts(seed, samples, n, events)
    return MonteCarloEstimate.from_counts(hits, samples, seed)


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
    """
    if n < 2:
        raise InvalidInput("n must be >= 2")
    if R <= 0:
        raise InvalidInput("R must be positive")
    if samples < MIN_SAMPLES:
        raise InvalidInput(f"samples must be >= {MIN_SAMPLES}")
    nr2 = n * R * R
    d1 = math.log1p(nr2)
    A = 2.0 * math.log(n) - d1
    # With one-hot candidates at R*sqrt(n) and a common level, the max-ratio
    # statistic exceeds its level iff some y_i^2 exceeds this threshold.
    threshold = (1.0 + nr2) * (d1 + A) / nr2

    ones = np.ones(n)
    alpha = _max_sq_accept_prob_mc(ones, threshold, samples, seed, n)
    alpha = MonteCarloEstimate(
        p_hat=1.0 - alpha.p_hat,
        stderr=alpha.stderr,
        samples=samples,
        seed=seed,
    )

    scale1 = np.ones(n)
    scale1[0] = 1.0 + nr2
    beta1 = _max_sq_accept_prob_mc(
        scale1, threshold, samples, (seed + 1) % 2**64, n
    )

    # Closed-form product predictor for the miss at the one-hot design point.
    p_signal = math.erf(math.sqrt((d1 + A) / (2.0 * nr2)))
    p_noise = math.erf(math.sqrt(threshold / 2.0))
    predictor = p_signal * p_noise ** (n - 1)

    beta_lam = None
    log_ratio = None
    if probe_lambda is not None:
        if probe_lambda.n != n:
            raise DimensionMismatch(
                f"probe lambda has length {probe_lambda.n}, experiment has {n}"
            )
        scale_lam = 1.0 + probe_lambda.squared
        beta_lam = _max_sq_accept_prob_mc(
            scale_lam, threshold, samples, (seed + 2) % 2**64, n
        )
        if 0.0 < beta_lam.p_hat and 0.0 < beta1.p_hat < 1.0:
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
