"""Statistical model and decision rules for Gaussian signal detection.

Observations are y_i = xi_i (+ s_i under the alternative) with xi_i standard
normal and s_i zero-mean Gaussian with standard deviation sigma_i.  The
module holds the intensity-vector type, the scalar statistics D, T, B derived
from it, and the three decision rules built on the log-likelihood ratio
r(y, sigma) = (1/2) sum sigma_i^2 y_i^2/(1+sigma_i^2) - D(sigma)/2: the
single-point ellipsoid test, the discrete-prior mixture test, and the
max-likelihood-ratio (GLRT) test over a finite candidate set.

The package reads every input value with one of three readers, here and in
the CLI alike, and each raises ``InvalidInput`` naming the value:
``_as_number`` reads a real number (a level, a radius, a tail argument) as
a finite float, ``_as_integer`` reads an integer (a dimension, a block
count, a sample count, a seed, a group index) as an int, and
``_as_vector`` reads an array (intensities, weights, levels, half-widths)
as a nonempty, 1-D, finite float64 copy; ``_as_intensities`` also checks
that an intensity vector is nonnegative with a finite sum of squares.  They
follow JSON's kinds: a bool is neither a number nor an integer, a string is
not a number, a float such as 1000.0 is not an integer, and an array's
entries are numbers.  A point set is checked only by ``FinitePoints``
(nonempty, one dimension), which ``DiscretePrior`` uses.

D(sigma) = sum ln(1+sigma_i^2) is computed only by ``_log_normalizer``.  An
intensity vector derives sigma_i^2, sigma_i^2/(1+sigma_i^2) and D once, on
first use, and keeps them for its life; the two arrays are read-only, so
every caller shares them and none may write into them.  It derives the
sums at the bracket ends of the exponents' u0 and t0 solves once too
(``bracket_sums``, up to two floats a solve).  It also keeps its run form
``runs``, which serves the exponents, delta and the exact oracle:
``runs_of`` states the convention, and is the one place the package groups
repeated values.  The rules share one core, ``_QuadraticFormTest``, which
builds the weights W (k, n) and D_k of its points once, from their values,
and owns ``accepts``; the points of a mixture test are the support of its
prior, its points of positive weight.  Each rule
folds its levels into one constant per point at build and supplies only how
it compares the forms y^2 . w_k with them: one threshold, a sum of
exponentials below 1, or every form below its bound.  The forms of a batch
of rows are one (k, rows) product, so these comparisons reduce across points
along long rows.  ``accepts`` reads its rows and never writes them, and also
scores sums of y_i^2 over blocks of coordinates against the blocks' (k,
blocks) weight columns, which is how the Monte Carlo estimator scores its
blocked draws.  The ``*_decide`` helpers are ``accepts`` on one row.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, InvalidInput

ArrayLike = Union[Sequence[float], np.ndarray]

WEIGHT_SUM_TOL = 1e-12
# sum sigma_i^2, and so each sigma_i^2, must stay at or below it.
_MAX_FLOAT = sys.float_info.max


class Hypothesis(str, Enum):
    H0 = "H0"
    H1 = "H1"


def _as_vector(values: ArrayLike, name: str = "values") -> np.ndarray:
    """A float64 copy of ``values``: freezing it leaves the caller's array writable.

    The array's dtype decides: integer and float arrays are read, and bool,
    string and object arrays are not; nor is a list or tuple with a bool
    entry, whose bools numpy casts.  Such a list or tuple is read entry by
    entry by ``_as_number``, whose message names the entry (``name[i]``);
    the message for a non-finite entry names it the same way.
    """
    try:
        arr = np.array(values)
    except (TypeError, ValueError):
        arr = None
    is_list = isinstance(values, (list, tuple))
    if (arr is None or arr.dtype.kind not in "iuf"
            or is_list and not {bool, np.bool_}.isdisjoint(map(type, values))):
        if not is_list:
            raise InvalidInput(f"{name} must be a 1-D array of real numbers")
        arr = np.array([_as_number(v, f"{name}[{i}]") for i, v in enumerate(values)])
    arr = np.atleast_1d(arr.astype(float, copy=False))
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInput(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        i = int(np.argmin(np.isfinite(arr)))
        raise InvalidInput(f"{name}[{i}] must be finite, got {arr[i]}")
    return arr


def _as_number(value, name: str) -> float:
    """A finite float; a bool or a string is not a number."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise InvalidInput(f"{name} must be a real number")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be a real number") from None
    if not math.isfinite(x):
        raise InvalidInput(f"{name} must be finite, got {x}")
    return x


def _as_integer(value, name: str) -> int:
    """A Python int; a bool or a float, even 1000.0, is not an integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInput(f"{name} must be an integer")


def _as_intensities(values: ArrayLike, name: str) -> np.ndarray:
    """``_as_vector`` of nonnegative entries whose sum of squares is finite."""
    arr = _as_vector(values, name)
    if np.min(arr) < 0:
        raise InvalidInput(f"{name}[{np.argmax(arr < 0)}] negative")
    # sum sigma_i^2 <= n top^2 is finite unless top > sqrt(float max / n);
    # only then does sum (sigma_i/top)^2, which cannot overflow, decide.
    top = float(np.max(arr))
    if top > math.sqrt(_MAX_FLOAT / arr.size) and float(
            np.sum(np.square(arr / top))) > _MAX_FLOAT / (top * top):
        raise InvalidInput(
            f"{name}[{np.argmax(arr)}] too large: the sum of squares overflows")
    return arr


def _null_weights(s2: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The weights s2/(1 + s2) of variances s2, in ``out`` or a new array."""
    r2 = np.add(s2, 1.0, out=out)
    return np.divide(s2, r2, out=r2)


def _log_normalizer(s2: np.ndarray) -> float:
    """D = sum ln(1 + s2) of variances s2."""
    return float(np.sum(np.log1p(s2)))


def runs_of(a: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(values, counts): the run form of the 1-D array a, from one ``np.unique``.

    values holds the distinct entries ascending and counts, a float array,
    how often each occurs; both are read-only.  When no entry repeats,
    counts is None and values is a sorted.  This is the package's one
    convention for repeated values: when a value repeats, a sum over a is
    sum_j counts[j] f(values[j]) (``sum_by_run``), so a flat vector is one
    term at any n.  The exact oracle sums over the ascending values of
    every input, so its bits do not depend on the order of a; only the
    exponents and D sum an all-distinct a itself in its own order, the
    dense sum bit for bit.  ``IntensityVector.runs``, the exponents'
    ``_weights`` and the oracle group by it.
    """
    values, counts = np.unique(a, return_counts=True)
    values.setflags(write=False)
    if values.size == a.size:
        return values, None
    counts = counts.astype(float)
    counts.setflags(write=False)
    return values, counts


@dataclass(frozen=True, eq=False)
class IntensityVector:
    """Nonnegative per-component signal standard deviations sigma_i.

    The central parameter of every formula in the package.  Immutable, so
    ``squared``, ``r_squared``, ``D``, ``runs`` and the exponents'
    ``bracket_sums`` are computed once, on first use, and kept: n floats
    each for the two arrays, which are read-only (writing into them raises
    ValueError), and one float for each bracket-end sum.

    ``runs`` is the run form (``runs_of``), which serves the exponents,
    ``delta`` and the exact oracle: when a value repeats, every exponent
    solve sums count times one term per distinct value; when none does,
    over the dense arrays.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_intensities(self.values, "sigma")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    @cached_property
    def squared(self) -> np.ndarray:
        """Componentwise variances sigma_i^2 (read-only)."""
        s2 = self.values**2
        s2.setflags(write=False)
        return s2

    @cached_property
    def r_squared(self) -> np.ndarray:
        """Componentwise sigma_i^2 / (1 + sigma_i^2), the null-side weights.

        Read-only, like ``squared``.
        """
        r2 = _null_weights(self.squared)
        r2.setflags(write=False)
        return r2

    @cached_property
    def D(self) -> float:
        """D = sum ln(1+sigma_i^2), the normalizer of the likelihood ratio."""
        return _log_normalizer(self.squared)

    @cached_property
    def runs(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The run form of sigma, ``runs_of(values)``: the distinct values
        ascending, which the exact oracle sums over for every sigma."""
        return runs_of(self.values)

    @cached_property
    def bracket_sums(self) -> dict[float, dict[float, float]]:
        """The exponents' bracket-end sums on sigma: end -> {x: S(x)}.

        Empty at first.  The u0 (end 1) and t0 (end -1) solves keep S at
        x = 0 and at x = end, one float each, when they first evaluate it,
        and read it on every later solve.  Only ``exponents._fixed_bracket``
        hands these dicts out, with the weights they are sums of.
        """
        return {}

    @property
    def delta(self) -> Optional[float]:
        """delta = ln(max sigma_i^2 / min sigma_i^2), None when some sigma_i = 0.

        Computed as 2 (ln max sigma_i - ln min sigma_i) when a sigma_i^2 or
        the ratio leaves the normal float range.  Squaring is monotone on
        sigma >= 0, so min and max are the ends of ``runs``, taken before
        squaring.
        """
        v = self.runs[0]
        low = float(v[0])
        if not low > 0.0:
            return None
        high = float(v[-1])
        lo = low * low  # Python floats: an overflow gives inf, no warning
        ratio = high * high / lo if lo >= sys.float_info.min else math.inf
        if ratio < math.inf:
            return float(np.log(ratio))
        return float(2.0 * (np.log(high) - np.log(low)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntensityVector) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self) -> int:
        return hash(self.values.tobytes())

    def __repr__(self) -> str:
        return f"IntensityVector({self.values.tolist()})"


def check_same_length(sigma: IntensityVector, lam: IntensityVector) -> None:
    """Raise DimensionMismatch unless sigma and lambda have one length."""
    if sigma.n != lam.n:
        raise DimensionMismatch(
            f"sigma has length {sigma.n}, lambda has length {lam.n}"
        )


def sum_by_run(a: np.ndarray, counts: Optional[np.ndarray]):
    """sum_i c_i a[i] along the first axis, with c = 1 when counts is None."""
    return a.sum(axis=0) if counts is None else counts @ a


@dataclass(frozen=True, eq=False)
class Observation:
    """An observed vector y, dimension matching the model."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.values, "y")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size


def _obs_values(y: Union[Observation, ArrayLike]) -> np.ndarray:
    if isinstance(y, Observation):
        return y.values
    return _as_vector(y, "y")


@dataclass(frozen=True)
class SignalStatistics:
    """Scalar statistics of an intensity vector.

    D = sum ln(1+sigma_i^2)          (nats; the KL-type normalizer)
    T = sum sigma_i^2/(1+sigma_i^2)  (mean of the test statistic under noise)
    B = 2 sum sigma_i^4/(1+sigma_i^2)^2  (its variance under noise)
    delta = ln(max sigma_i^2 / min sigma_i^2), defined only when all
    sigma_i > 0 (None otherwise); computed as 2 (ln max sigma_i - ln min
    sigma_i) when a sigma_i^2 or the ratio leaves the normal float range.

    window is the open interval (T - D, sum sigma_i^2 - D) of test levels A
    for which both error probabilities decay; the large-deviation machinery
    assumes A inside it.
    """

    D: float
    T: float
    B: float
    delta: Optional[float]
    window: tuple[float, float]


def _window(sigma: IntensityVector, T: float) -> tuple[float, float]:
    """The operating window (T - D, sum sigma_i^2 - D), T = sum of ``r_squared``."""
    D = sigma.D
    return T - D, float(np.sum(sigma.squared)) - D


def signal_statistics(sigma: IntensityVector) -> SignalStatistics:
    """Compute D, T, B, delta, and the operating window for ``sigma``."""
    r2 = sigma.r_squared
    T = float(np.sum(r2))
    B = float(2.0 * np.sum(np.square(r2)))
    return SignalStatistics(D=sigma.D, T=T, B=B, delta=sigma.delta,
                            window=_window(sigma, T))


def log_likelihood_ratio(
    y: Union[Observation, ArrayLike], sigma: IntensityVector
) -> float:
    """Log-likelihood ratio r(y, sigma) of signal-plus-noise vs noise.

    r = (1/2) sum sigma_i^2 y_i^2 / (1+sigma_i^2) - D(sigma)/2.
    """
    yv = _obs_values(y)
    if yv.size != sigma.n:
        raise DimensionMismatch(
            f"observation has length {yv.size}, model has length {sigma.n}"
        )
    return float(0.5 * np.dot(yv**2, sigma.r_squared) - 0.5 * sigma.D)


class _QuadraticFormTest:
    """Decision rule over points sigma_k: 2 r(y, sigma_k) = y^2 . w_k - D_k.

    ``_build`` stacks the weights w_k = sigma_k^2/(1+sigma_k^2) of the points
    that decide into W (k, n) and D_k = D(sigma_k) once, from the points'
    values: bit for bit their ``r_squared`` and ``D``, which stay uncached,
    so the build holds W and one point's squares; ``accepts`` squares
    the rows Y (m, n) into a new array and subclasses map Y^2 and the
    weights W to the H0-acceptance mask in ``_combine(Y2, W)``, which reads
    Y^2 and does not write it.  W is ``_W``, or the (k, c) weight columns of
    blocks of coordinates when Y^2 holds the blocks' sums of y_i^2.  The
    forms are one (k, m) product ``W @ Y2.T``, so ``_combine`` reduces
    across the points along rows of m.
    """

    def _build(self, points: Sequence[IntensityVector]) -> None:
        W = np.empty((len(points), points[0].n))
        D = np.empty(len(points))
        for k, p in enumerate(points):
            s2 = p.values**2
            D[k] = _log_normalizer(s2)
            _null_weights(s2, out=W[k])
        object.__setattr__(self, "_W", W)
        object.__setattr__(self, "_D", D)

    @property
    def n(self) -> int:
        return self._W.shape[1]

    def accepts(
        self, Y: np.ndarray, *, weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorized H0-acceptance over rows of Y (shape (m, n)); Y is not written.

        With ``weights``, a (k, c) matrix over the test's points, Y (m, c)
        holds sums of squares and is not squared again: its column j is the
        sum of y_i^2 over a block of coordinates that all have the weight
        column weights[:, j].
        """
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        W = self._W if weights is None else weights
        if Y.shape[1] != W.shape[1]:
            raise DimensionMismatch(
                f"rows of Y have length {Y.shape[1]}, expected {W.shape[1]}"
            )
        if weights is None:
            Y = np.square(Y)
        return self._combine(Y, W)

    def _decide(self, y: Union[Observation, ArrayLike]) -> Hypothesis:
        accepted = bool(self.accepts(_obs_values(y)[None, :])[0])
        return Hypothesis.H0 if accepted else Hypothesis.H1


@dataclass(frozen=True)
class NpTest(_QuadraticFormTest):
    """Single-point ellipsoid test: accept H0 iff sum w_i y_i^2 <= D + A.

    The weights are w_i = sigma_i^2/(1+sigma_i^2).  The acceptance region is
    closed (boundary decides H0) and nonempty, which requires D + A >= 0.
    """

    sigma: IntensityVector
    A: float
    in_window: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _as_number(self.A, "A"))
        D = self.sigma.D
        if D + self.A < 0:
            raise InvalidInput(
                f"D + A = {D + self.A:.6g} < 0: empty acceptance region"
            )
        lo, hi = _window(self.sigma, float(np.sum(self.sigma.r_squared)))
        object.__setattr__(self, "in_window", lo < self.A < hi)
        self._build((self.sigma,))

    @property
    def threshold(self) -> float:
        """The ellipsoid radius D(sigma) + A."""
        return float(self._D[0]) + self.A

    def _combine(self, Y2: np.ndarray, W: np.ndarray) -> np.ndarray:
        return Y2 @ W[0] <= self.threshold


def np_decide(test: NpTest, y: Union[Observation, ArrayLike]) -> Hypothesis:
    """Decide H0/H1 for a single observation under the ellipsoid test."""
    return test._decide(y)


@dataclass(frozen=True, eq=False)
class DiscretePrior:
    """Finite-support prior over intensity vectors; the support is a FinitePoints."""

    points: tuple[IntensityVector, ...]
    weights: np.ndarray

    def __post_init__(self):
        points = FinitePoints(self.points).points
        w = _as_vector(self.weights, "weights")
        if w.size != len(points):
            raise DimensionMismatch("one weight per support point required")
        if np.any(w < 0):
            raise InvalidInput("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInput(
                f"weights sum to {float(np.sum(w)):.17g}, not 1 within {WEIGHT_SUM_TOL}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points[0].n


def bayes_log_ratio(
    y: Union[Observation, ArrayLike], prior: DiscretePrior
) -> float:
    """Log mixture likelihood ratio ln sum_k w_k exp(r(y, sigma_k)).

    Computed with a max-shifted exponential sum over the points of positive
    weight, so D(sigma_k) of order hundreds does not underflow, nor can a
    zero-weight point with a huge ratio underflow the others.  With a
    one-point prior this equals ``log_likelihood_ratio`` exactly.
    """
    yv = _obs_values(y)  # log_likelihood_ratio checks the length
    keep = prior.weights > 0
    logs = np.array([log_likelihood_ratio(yv, p)
                     for p, kept in zip(prior.points, keep) if kept])
    shift = np.max(logs)
    return float(np.log(np.exp(logs - shift) @ prior.weights[keep]) + shift)


@dataclass(frozen=True, eq=False)
class BayesTest(_QuadraticFormTest):
    """Mixture test: accept H0 iff the log mixture ratio is <= level.

    That is sum_k exp(y^2 . w_k / 2 + c_k) <= 1 over the points of positive
    weight, with c_k = ln p_k - D_k/2 - level fixed at build (p the prior
    weights).  A term that overflows is above 1 on its own, so the row is
    rejected, as it should be; a term that underflows is far below 1.
    A point of zero weight decides nothing, so the test is built from the
    support alone: ``_W``, ``_D`` and the c_k hold its points only.
    """

    prior: DiscretePrior
    level: float

    def __post_init__(self):
        object.__setattr__(self, "level", _as_number(self.level, "level"))
        kept = np.flatnonzero(self.prior.weights)
        self._build([self.prior.points[i] for i in kept])
        offset = np.log(self.prior.weights[kept]) - 0.5 * self._D - self.level
        object.__setattr__(self, "_offset", offset[:, None])

    def _combine(self, Y2: np.ndarray, W: np.ndarray) -> np.ndarray:
        terms = (0.5 * W) @ Y2.T  # halving is exact
        terms += self._offset
        with np.errstate(over="ignore"):
            np.exp(terms, out=terms)
            return terms.sum(axis=0) <= 1.0


def bayes_decide(
    y: Union[Observation, ArrayLike], prior: DiscretePrior, level: float
) -> Hypothesis:
    """Decide H0/H1 with the mixture test at the given level."""
    return BayesTest(prior, level)._decide(y)


@dataclass(frozen=True, eq=False)
class FinitePoints:
    """A finite set of intensity vectors sharing one dimension."""

    points: tuple[IntensityVector, ...]

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise InvalidInput("points must be nonempty")
        n = points[0].n
        for p in points:
            if p.n != n:
                raise DimensionMismatch("points have mixed lengths")
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points[0].n

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ProductFloor:
    """Parametric set {lam >= 0 : prod(1+lam_i^2) >= (1+D^2)^n}."""

    n: int
    D: float

    def __post_init__(self):
        object.__setattr__(self, "n", _as_integer(self.n, "n"))
        object.__setattr__(self, "D", _as_number(self.D, "D"))
        if self.n < 1:
            raise InvalidInput("n must be >= 1")
        if self.D <= 0:
            raise InvalidInput("D must be positive")

    def witness_points(self) -> FinitePoints:
        """The single point (D, ..., D); the set reduces to it exactly."""
        return FinitePoints(
            (IntensityVector(np.full(self.n, self.D)),)
        )


@dataclass(frozen=True)
class SumFloor:
    """Parametric set {sigma >= 0 : sum sigma_i^2 >= n R^2}."""

    n: int
    R: float

    def __post_init__(self):
        object.__setattr__(self, "n", _as_integer(self.n, "n"))
        object.__setattr__(self, "R", _as_number(self.R, "R"))
        if self.n < 1:
            raise InvalidInput("n must be >= 1")
        if self.R <= 0:
            raise InvalidInput("R must be positive")

    def one_hot_points(self) -> FinitePoints:
        """The n vectors with a single coordinate equal to R*sqrt(n)."""
        v = self.R * math.sqrt(self.n)
        pts = []
        for i in range(self.n):
            arr = np.zeros(self.n)
            arr[i] = v
            pts.append(IntensityVector(arr))
        return FinitePoints(tuple(pts))

    def witness_points(self) -> FinitePoints:
        """One-hot minimizers of D plus the flat point (R, ..., R)."""
        pts = list(self.one_hot_points().points)
        pts.append(IntensityVector(np.full(self.n, self.R)))
        return FinitePoints(tuple(pts))


CandidateSet = Union[FinitePoints, ProductFloor, SumFloor]


def _levels_array(levels: Union[float, ArrayLike], m: int) -> np.ndarray:
    arr = _as_vector(levels, "levels")
    if np.ndim(levels) == 0:
        return np.full(m, arr[0])
    if arr.size != m:
        raise DimensionMismatch("one level per candidate required")
    return arr


@dataclass(frozen=True, eq=False)
class GlrtTest(_QuadraticFormTest):
    """Max-ratio test: accept H0 iff max_k [2 r(y, sigma_k) - A_k] <= 0."""

    candidates: FinitePoints
    levels: np.ndarray

    def __post_init__(self):
        levels = _levels_array(self.levels, len(self.candidates))
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        self._build(self.candidates.points)
        # 2 r(y, sigma_k) - A_k <= 0 iff y^2 . w_k <= D_k + A_k
        object.__setattr__(self, "_bound", (self._D + levels)[:, None])

    def _combine(self, Y2: np.ndarray, W: np.ndarray) -> np.ndarray:
        return np.all(W @ Y2.T <= self._bound, axis=0)


def glrt_decide(
    candidates: FinitePoints,
    levels: Union[float, ArrayLike],
    y: Union[Observation, ArrayLike],
) -> Hypothesis:
    """Decide H0/H1 with the max-ratio test over a finite candidate set.

    ``levels`` is a per-candidate array or one scalar used for every
    candidate.  Boundary ties decide H0 (closed acceptance region).
    """
    return GlrtTest(candidates, levels)._decide(y)
