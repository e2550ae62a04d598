"""Monte Carlo ground truth, with the exact oracle re-exported.

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

A shard is scored along its long axis.  A (rows, d) array with rows >= 2048 d
(``_by_columns``) is scaled, and tested for box or example3 membership
(``_all_columns``), one column at a time, each column's verdicts ``&``-ed
into one boolean row vector: numpy pays a fixed cost per row when it
reduces or broadcasts along an axis of a few columns, more than the few
compares of the row.  Other shapes (many columns, few rows) take the
row-wise broadcast and ``np.all(..., axis=1)``.  Both paths make the same
products and compares element by element, so the counts do not depend on
the path.

The exact oracle for the weighted chi-square probabilities behind alpha and
beta lives in ``oracle``; ``weighted_chi2_cdf`` and ``np_test_exact_probs``
are re-exported here.  This module, like the oracle, runs on numpy and the
standard library alone.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
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
from .oracle import np_test_exact_probs, weighted_chi2_cdf  # noqa: F401

MIN_SAMPLES = 1_000
_SHARD_SCALARS = 2**17  # draws per shard (1 MiB of float64); fixes rows per c
_COLUMN_ROWS = 2048  # rows per column from which a shard is scored by column

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


def _by_columns(Y: np.ndarray) -> bool:
    """Whether a (rows, d) array is worked one column at a time.

    A pass over one strided column costs a call plus its rows, while a
    row-wise broadcast or reduction along d pays a fixed cost per row.  One
    threshold, rows >= 2048 d, timed at shard shapes
    (``BENCH_row_kernels.json``): the box and example3 tests win by column
    from about 64 rows a column, the in-place scaling of ``lemma1_check``
    only from about 2,000, so at 2048 neither is slower at any shape.
    """
    rows, d = Y.shape
    return 0 < d and rows >= _COLUMN_ROWS * d


def _scale_columns(Y: np.ndarray, scale: np.ndarray) -> None:
    """Y *= scale in place, by column when ``_by_columns`` (same products)."""
    if _by_columns(Y):
        for j in range(Y.shape[1]):
            Y[:, j] *= scale[j]
    else:
        Y *= scale


def _all_columns(Y: np.ndarray, b: np.ndarray, holds) -> np.ndarray:
    """Rows r of Y (rows, d) with holds(Y[r, j], b[j]) true for every j.

    ``holds`` is elementwise, so ``holds(Y[:, j], b[j])`` tests column j
    and ``holds(Y, b)`` all of them by broadcasting, element by element
    the same; ``_by_columns`` picks the one that is used.
    """
    if not _by_columns(Y):
        return np.all(holds(Y, b), axis=1)
    hit = holds(Y[:, 0], b[0])
    for j in range(1, Y.shape[1]):
        hit &= holds(Y[:, j], b[j])
    return hit


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
    one first.  Keys constant over the kept coordinates (example3's noise
    row and unit variance, a flat NP test's row and variance) are left
    out of the sort and the compares: a stable sort ignores them, so the
    blocks are the same.  No (k + 1, n) copy of the columns is made: at
    example3's n = 1e4 such a copy is above glibc's mmap threshold, so each
    call would fault fresh pages in, at more cost than the draws.
    """
    nonzero = W.any(axis=0)
    kept = np.flatnonzero(nonzero)
    cols = slice(None) if kept.size == W.shape[1] else kept
    first_kept = W[:, np.argmax(nonzero), None]  # column 0 if none is kept
    varies = ((W != first_kept) & nonzero).any(axis=1)
    keys = [W[i, cols] for i in range(W.shape[0] - 1, -1, -1) if varies[i]]
    variance = variance[cols]
    if np.any(variance != variance[:1]):
        keys.insert(0, variance)
    # By W[0], ties by W[1], ..., then variance.
    order = np.lexsort(keys) if keys else np.arange(kept.size)
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
        """Rows of Y (rows, dim) inside the box.

        A long shard of few columns is tested one column at a time, each
        column's |y| <= half width ``&``-ed into one row vector; other
        shapes take ``np.all(np.abs(Y) <= half_widths, axis=1)``, which has
        a fixed cost per row (``_all_columns``).  The compares are the
        same either way.
        """
        return _all_columns(np.asarray(Y), self.half_widths,
                            lambda y, hw: np.abs(y) <= hw)


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
        _scale_columns(xi, xi_sd)
        eta = rng.standard_normal((rows, region.dim))
        _scale_columns(eta, eta_sd)
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
    coordinate.  A law tests its s normals' scale_i y_i^2 <= threshold one
    column at a time, ``&``-ed into one row vector, while a shard has at
    least 2048 rows a column (a probe with a few distinct hot values), and
    with ``np.all(..., axis=1)`` otherwise (``_all_columns``): that
    reduction costs about 30 ns a row whatever s, more than the compares
    when s is small.
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
            _all_columns(Y2, scale, lambda y, s: y * s <= threshold)
            & np.all(U < p, axis=0)
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
