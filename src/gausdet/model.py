"""Statistical model and decision rules for Gaussian signal detection.

Observations are y_i = xi_i (+ s_i under the alternative) with xi_i standard
normal and s_i zero-mean Gaussian with standard deviation sigma_i.  The
module holds the intensity-vector type, the scalar statistics D, T, B derived
from it, and the three decision rules built on the log-likelihood ratio
r(y, sigma) = (1/2) sum sigma_i^2 y_i^2/(1+sigma_i^2) - D(sigma)/2: the
single-point ellipsoid test, the discrete-prior mixture test, and the
max-likelihood-ratio (GLRT) test over a finite candidate set.

D(sigma) = sum ln(1+sigma_i^2) is computed only by ``IntensityVector.D``.  The
rules share one core, ``_QuadraticFormTest``, which builds the weights W (k, n)
and D_k of its points once and owns ``accepts``; each rule supplies only how it
combines the forms y^2 . w_k - D_k: a threshold, a weighted log-sum-exp or a
maximum.  The ``*_decide`` helpers are ``accepts`` on one row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
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
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInput(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class IntensityVector:
    """Nonnegative per-component signal standard deviations sigma_i.

    The central parameter of every formula in the package.  Immutable;
    derived quantities are exposed as properties.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.values, "sigma")
        if np.min(arr) < 0:
            raise InvalidInput(f"sigma[{np.argmax(arr < 0)}] negative")
        # sum sigma_i^2 <= n top^2 is finite unless top > sqrt(float max / n);
        # only then does sum (sigma_i/top)^2, which cannot overflow, decide.
        top = float(np.max(arr))
        if top > math.sqrt(_MAX_FLOAT / arr.size) and float(
                np.sum(np.square(arr / top))) > _MAX_FLOAT / (top * top):
            raise InvalidInput(
                f"sigma[{np.argmax(arr)}] too large: the sum of squares overflows")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def squared(self) -> np.ndarray:
        """Componentwise variances sigma_i^2."""
        return self.values**2

    @property
    def r_squared(self) -> np.ndarray:
        """Componentwise sigma_i^2 / (1 + sigma_i^2), the null-side weights."""
        s2 = self.squared
        return s2 / (1.0 + s2)

    @property
    def D(self) -> float:
        """D = sum ln(1+sigma_i^2), the normalizer of the likelihood ratio."""
        return float(np.sum(np.log1p(self.squared)))

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


def signal_statistics(sigma: IntensityVector) -> SignalStatistics:
    """Compute D, T, B, delta, and the operating window for ``sigma``."""
    s2 = sigma.squared
    D = sigma.D
    T = float(np.sum(s2 / (1.0 + s2)))
    B = float(2.0 * np.sum((s2 / (1.0 + s2)) ** 2))
    delta = None
    if np.all(sigma.values > 0):
        lo = float(np.min(s2))  # Python floats: an overflow gives inf, no warning
        ratio = float(np.max(s2)) / lo if lo >= sys.float_info.min else math.inf
        if ratio < math.inf:
            delta = float(np.log(ratio))
        else:  # sigma_i^2 leaves the normal float range; take the logs first
            v = sigma.values
            delta = float(2.0 * (np.log(np.max(v)) - np.log(np.min(v))))
    window = (T - D, float(np.sum(s2)) - D)
    return SignalStatistics(D=D, T=T, B=B, delta=delta, window=window)


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

    ``_build`` stacks the weights w_k = sigma_k^2/(1+sigma_k^2) into W (k, n)
    and D_k = D(sigma_k) once; ``accepts`` squares the rows Y (m, n) and
    subclasses map Y^2 to the H0-acceptance mask in ``_combine``.  Y^2 is
    passed on as the only reference to it, so ``_combine`` owns it and can
    free it before the larger (m, k) intermediates are made.
    """

    def _build(self, points: Sequence[IntensityVector]) -> None:
        object.__setattr__(self, "_W", np.stack([p.r_squared for p in points]))
        object.__setattr__(self, "_D", np.array([p.D for p in points]))

    @property
    def n(self) -> int:
        return self._W.shape[1]

    def accepts(self, Y: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
        """Vectorized H0-acceptance over rows of Y (shape (m, n)).

        With overwrite=True a float array Y may be squared in place, which
        saves one (m, n) array; Y's contents are then undefined.
        """
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.shape[1] != self.n:
            raise DimensionMismatch(
                f"rows of Y have length {Y.shape[1]}, test has {self.n}"
            )
        return self._combine(np.square(Y, out=Y if overwrite else None))

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
        stats = signal_statistics(self.sigma)
        if stats.D + self.A < 0:
            raise InvalidInput(
                f"D + A = {stats.D + self.A:.6g} < 0: empty acceptance region"
            )
        lo, hi = stats.window
        object.__setattr__(self, "in_window", lo < self.A < hi)
        self._build((self.sigma,))

    @property
    def threshold(self) -> float:
        """The ellipsoid radius D(sigma) + A."""
        return float(self._D[0]) + self.A

    def _combine(self, Y2: np.ndarray) -> np.ndarray:
        return Y2 @ self._W[0] <= self.threshold


def np_decide(test: NpTest, y: Union[Observation, ArrayLike]) -> Hypothesis:
    """Decide H0/H1 for a single observation under the ellipsoid test."""
    return test._decide(y)


@dataclass(frozen=True, eq=False)
class DiscretePrior:
    """Finite-support prior over intensity vectors."""

    points: tuple[IntensityVector, ...]
    weights: np.ndarray

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise InvalidInput("prior must have at least one support point")
        w = _as_vector(self.weights, "weights")
        if w.size != len(points):
            raise DimensionMismatch("one weight per support point required")
        if np.any(w < 0):
            raise InvalidInput("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInput(
                f"weights sum to {float(np.sum(w)):.17g}, not 1 within {WEIGHT_SUM_TOL}"
            )
        n = points[0].n
        for p in points:
            if p.n != n:
                raise DimensionMismatch("prior support points have mixed lengths")
        w.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points[0].n


def _log_weighted_sum_exp(logs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise ln sum_k w_k exp(logs[:, k]) of an (m, k) matrix.

    Zero-weight columns are dropped before the shift, so a zero-weight
    candidate with a huge ratio cannot underflow the others.  Each row is
    shifted by its maximum and exponentiated in place: ``logs`` is
    overwritten unless a column was dropped.
    """
    keep = weights > 0
    if not np.all(keep):
        logs, weights = logs[:, keep], weights[keep]
    shift = np.max(logs, axis=1)
    logs -= shift[:, None]
    np.exp(logs, out=logs)
    return np.log(logs @ weights) + shift


def bayes_log_ratio(
    y: Union[Observation, ArrayLike], prior: DiscretePrior
) -> float:
    """Log mixture likelihood ratio ln sum_k w_k exp(r(y, sigma_k)).

    Computed with a max-shifted exponential sum, so D(sigma_k) of order
    hundreds does not underflow.  With a one-point prior this equals
    ``log_likelihood_ratio`` exactly.
    """
    yv = _obs_values(y)  # log_likelihood_ratio checks the length
    logs = np.array(
        [log_likelihood_ratio(yv, p) for p in prior.points], dtype=float
    )
    return float(_log_weighted_sum_exp(logs[None, :], prior.weights)[0])


@dataclass(frozen=True, eq=False)
class BayesTest(_QuadraticFormTest):
    """Mixture test: accept H0 iff the log mixture ratio is <= level."""

    prior: DiscretePrior
    level: float

    def __post_init__(self):
        self._build(self.prior.points)

    def _combine(self, Y2: np.ndarray) -> np.ndarray:
        Y2 *= 0.5  # Y2 is owned: 0.5 * Y2 @ W.T without a copy of Y2
        logs = Y2 @ self._W.T  # (m, k)
        del Y2  # freed before the log-sum-exp's (m, k) intermediates
        logs -= 0.5 * self._D
        return _log_weighted_sum_exp(logs, self.prior.weights) <= self.level


def bayes_decide(
    y: Union[Observation, ArrayLike], prior: DiscretePrior, level: float
) -> Hypothesis:
    """Decide H0/H1 with the mixture test at the given level."""
    return BayesTest(prior, level)._decide(y)


@dataclass(frozen=True, eq=False)
class FinitePoints:
    """A finite candidate set of intensity vectors sharing one dimension."""

    points: tuple[IntensityVector, ...]

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise InvalidInput("candidate set must be nonempty")
        n = points[0].n
        for p in points:
            if p.n != n:
                raise DimensionMismatch("candidate points have mixed lengths")
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
    arr = np.asarray(levels, dtype=float)
    if arr.ndim == 0:
        return np.full(m, float(arr))
    if arr.ndim != 1 or arr.size != m:
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

    def _combine(self, Y2: np.ndarray) -> np.ndarray:
        # 2 r(y, sigma_k) - A_k = y^2 . w_k - D_k - A_k
        stat = Y2 @ self._W.T
        stat -= self._D
        stat -= self.levels
        return np.max(stat, axis=1) <= 0.0


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
