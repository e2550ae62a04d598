"""Chernoff-type exponents and large-deviation bounds on the error probabilities.

For the ellipsoid test at level A with threshold D + A:

* miss probability:        beta  <= exp(-g(u0)),  2g(u) = sum ln(1+u s_i^2) - u(D+A)
* mismatched miss (true intensity lambda):  beta_mm <= exp(-g_nu(v0)) with the
  transformed variances nu_i^2 = s_i^2 (1+l_i^2)/(1+s_i^2)
* false alarm:             alpha <= exp(-f(t0)),  2f(t) = t(D+A) + sum ln(1-t r_i^2)

All of these, and the blockwise u1 of the lower bound, maximize one Chernoff
function 2g(x) = sum c_i ln(1 + x w_i) - x(D+A), and ``chernoff_root`` is
the one solve of its stationarity equation, endpoint cases included: u0 has
w = s^2 on [0, 1], v0 has w = nu^2 on [0, inf), u1 has the block maxima with
block sizes as counts c, and t0 has w = r^2 on [-1, 0] through x = -t, since
f(t) = g(-t).  The left side is strictly monotone in x, so a bracketed Newton
solver converges unconditionally; its steps are taken on the reciprocal of
the left side, which is linear in x for equal weights, so they take one
iteration there and a few otherwise.  The module also provides the matching
lower-bound sandwich on ln(beta) built from a blockwise chi-square
construction, and the sufficient conditions under which a nearby intensity
lambda can replace sigma without changing the exponent.

Every sum runs over the run-length form of its intensity vectors
(``IntensityVector.runs``): when a value repeats, over the distinct values
with their counts c, so a flat vector is one term at any n; when none
does, over the dense arrays in their own order with c = 1.  The mismatched
weights nu^2 and the replaceability sums take the runs of the pairs
(sigma_i, lambda_i) when both vectors have runs and one is flat, and are
dense otherwise.
D stays the dense sum ``IntensityVector.D``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput, OutOfRegime
from .model import (
    IntensityVector,
    _as_integer,
    _as_number,
    _null_weights,
    check_same_length,
    null_weights_by_run,
    squares_by_run,
    sum_by_run,
)
from .solvers import RootResult, solve_bracketed
from .tails import TailSandwich

INTERIOR = "interior"
AT_ZERO = "at_zero"
AT_ONE = "at_one"


@dataclass(frozen=True)
class ExponentSolution:
    """Result of a scalar exponent maximization.

    argmax is u0/v0/t0; value is the maximized exponent in nats;
    stationarity_residual is the derivative of the exponent at argmax
    (zero up to solver tolerance when boundary_case is "interior").
    """

    argmax: float
    value: float
    stationarity_residual: float
    iterations: int
    boundary_case: str


@dataclass(frozen=True)
class BetaLowerBound:
    """Sandwich on ln(beta) plus the blockwise construction behind it.

    interval is the headline sandwich [-g(u0) - sqrt(delta n ln(pi n))
    - ln(pi n), -g(u0)], a ``tails.TailSandwich`` with center NaN.
    constructive_lower is the bound actually computed from the K-block
    partition (also a valid lower bound on ln beta).
    u1 solves the blockwise stationarity equation; u1 >= u0 always.
    """

    interval: TailSandwich
    constructive_lower: float
    u0: ExponentSolution
    u1: float
    u1_residual: float
    K: int


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of a replaceability condition evaluation.

    ratio = lhs / g_ref measures the relative exponent perturbation; small
    ratio means replacing sigma by lambda costs little.  violated is set
    when a log argument was nonpositive, which makes the condition fail
    structurally (lhs is NaN in that case).
    """

    mode: str
    lhs: float
    g_ref: float
    ratio: float
    violated: bool


def _exponent(w: np.ndarray, threshold: float, x: float, counts=None) -> float:
    """g(x) for 2g(x) = sum c_i ln(1 + x w_i) - x * threshold, 1 + x w_i > 0.

    One temporary: x w is formed and its log1p taken in place.
    """
    t = np.multiply(x, w)
    return 0.5 * (float(sum_by_run(np.log1p(t, out=t), counts)) - x * threshold)


def g_eval(sigma: IntensityVector, A: float, u: float):
    """Evaluate the miss exponent g and its derivative at u >= 0.

    2g(u) = sum ln(1+u sigma_i^2) - u (D+A);  g(1) = -A/2 identically.
    """
    A, u = _as_number(A, "A"), _as_number(u, "u")
    if u < 0:
        raise InvalidInput("u must be nonnegative")
    s2, counts = squares_by_run(sigma)
    threshold = sigma.D + A
    g = _exponent(s2, threshold, u, counts)
    q = np.multiply(u, s2)
    q += 1.0
    return g, 0.5 * (float(sum_by_run(np.divide(s2, q, out=q), counts)) - threshold)


def chernoff_root(
    w: np.ndarray, threshold: float, end: float, counts=None
) -> tuple[RootResult, str]:
    """Stationary point of 2g(x) = sum c_i ln(1 + x w_i) - x threshold.

    Solves h(x) = S(x) - threshold = 0, S(x) = sum c_i w_i/(1 + x w_i), for
    x between 0 and end; h = 2g' is strictly decreasing wherever every
    1 + x w_i > 0.  end is 1 (u0), -1 (t0, solved at x = -t) or +inf (v0
    and u1).  sign(end) h is the slope of 2g moving from 0 toward end: when
    it is <= 0 at 0 the maximum over the interval sits at x = 0 (AT_ZERO,
    reported as a zero with the sign of end), when it is >= 0 at a finite
    end, at x = end (AT_ONE).  On [0, inf) the bracket ends at
    hi = 2 sum c/threshold: S(x) < sum c/x, so h(hi) < -threshold/2.
    Returns the root, h there and the solver iterations, with the case.

    The exponents pass an intensity vector's runs here: its distinct
    weights with their counts when a value repeats (``IntensityVector.runs``),
    so a flat vector is a one-term sum, and its dense weights with counts
    None when no value repeats.

    S is a sum of poles, so 1/S is nearly linear in x, and exactly linear
    when the weights are equal; secular-equation solvers iterate on the
    reciprocal for this reason (Bunch, Nielsen & Sorensen 1978).  Each
    Newton step is taken on F(x) = 1/S(x) - 1/threshold, which is h's step
    scaled by S/threshold, and the first point is the root of the line
    through F at the bracket ends.  Signs are still tested on h, and h is
    the residual reported.

    h is evaluated once per point, bracket ends included: h(0) is
    sum c w - threshold, elsewhere one pass over one buffer q that lives for
    the call forms q_i = c_i w_i/(1 + x w_i) and h = sum q - threshold.
    h' = -sum q_i^2/c_i at the same point reads q without writing it.
    """
    cw = w if counts is None else counts * w
    q = np.empty_like(w)
    s = math.nan  # S at the latest point h was evaluated at

    def h(x: float) -> float:
        nonlocal s
        if x == 0.0:
            s = float(np.sum(cw))
        else:
            np.add(np.multiply(x, w, out=q), 1.0, out=q)
            s = float(np.sum(np.divide(cw, q, out=q)))
        return s - threshold

    def slope(x: float) -> float:  # at the x of the solver's latest h
        dh = -float(np.dot(q, q) if counts is None else np.dot(q, q / counts))
        return dh * (threshold / s) if s > 0.0 else math.nan

    side = math.copysign(1.0, end)
    zero = math.copysign(0.0, end)
    h0, s0 = h(zero), s
    if side * h0 <= 0.0:
        return RootResult(zero, h0, 0), AT_ZERO
    if math.isinf(end):
        total = w.size if counts is None else float(np.sum(counts))
        end = 2.0 * total / threshold if threshold > 0.0 else math.inf
        if end == math.inf:
            raise InvalidInput("could not bracket root: no sign change found")
        h_end = h(end)
    else:
        h_end = h(end)
        if side * h_end >= 0.0:
            return RootResult(end, h_end, 0), AT_ONE
    (lo, h_lo), (hi, h_hi) = sorted(((0.0, h0), (end, h_end)))
    s_hi = s if end > 0.0 else s0
    # Root of the line through F at the ends: h's secant scaled by S(hi)/T.
    start = lo + (hi - lo) * (s_hi / threshold) * (h_lo / (h_lo - h_hi))
    return solve_bracketed(h, slope, lo, hi, h_lo, h_hi, start), INTERIOR


def _maximize(
    w: np.ndarray, threshold: float, end: float, counts=None
) -> ExponentSolution:
    """Maximize g of ``chernoff_root`` between 0 and end.

    g' there is half the root's residual h, the same sum.  For end = -1,
    argmax and residual are reported in t = -x, with f(t) = g(-t) and
    f'(t) = 0.0 - g'(x), which keeps a zero residual +0.0.
    """
    res, case = chernoff_root(w, threshold, end, counts)
    g, gp = _exponent(w, threshold, res.root, counts), 0.5 * res.residual
    if end < 0:
        return ExponentSolution(-res.root, g, 0.0 - gp, res.iterations, case)
    return ExponentSolution(res.root, g, gp, res.iterations, case)


def solve_u0(sigma: IntensityVector, A: float) -> ExponentSolution:
    """Maximize the miss exponent g over u >= 0.

    Interior solutions lie in (0, 1) and satisfy
    sum sigma_i^2/(1+u0 sigma_i^2) = D + A.  When A is outside the
    operating window the maximum sits at an endpoint: u0 = 0 for A at or
    above the upper edge (g = 0), u0 = 1 for A at or below the lower edge
    (g = -A/2).  Endpoints are reported via boundary_case, never an error.
    """
    s2, counts = squares_by_run(sigma)
    return _maximize(s2, sigma.D + _as_number(A, "A"), 1.0, counts)


def beta_upper_bound(sigma: IntensityVector, A: float) -> float:
    """Chernoff upper bound exp(-g(u0)) on the miss probability, clipped to 1."""
    sol = solve_u0(sigma, A)
    return min(1.0, math.exp(-sol.value))


def _pair_runs(sigma: IntensityVector, lam: IntensityVector):
    """(sigma_i^2, sigma_i^2/(1+sigma_i^2), lambda_i^2, counts) by pair.

    Over the runs of the pairs (sigma_i, lambda_i) when both vectors have
    runs and one of them is flat: its one value pairs with each run of the
    other, so flat x flat is one run.  Otherwise the dense cached arrays,
    counts None: finding the runs of two vectors that are not flat takes a
    pass over n per call, which costs more than the dense solve.
    """
    check_same_length(sigma, lam)
    s, cs = sigma.runs
    # lambda's run form is made only when sigma has runs
    l, cl = lam.runs if cs is not None else (None, None)
    if cl is None or min(s.size, l.size) > 1:
        return sigma.squared, sigma.r_squared, lam.squared, None
    if s.size == 1:
        s, counts = np.full(l.size, s[0]), cl
    else:
        l, counts = np.full(s.size, l[0]), cs
    s2 = s**2
    return s2, _null_weights(s2), l**2, counts


def _nu2(r2: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """nu^2 = r^2 (1 + lambda^2), in a new array."""
    nu2 = l2 + 1.0
    nu2 *= r2
    return nu2


def mismatch_profile(sigma: IntensityVector, lam: IntensityVector) -> np.ndarray:
    """Transformed variances nu_i^2 = sigma_i^2 (1+lambda_i^2)/(1+sigma_i^2)
    of the designed-for-sigma test under true lambda."""
    check_same_length(sigma, lam)
    return _nu2(sigma.r_squared, lam.squared)


def beta_mismatch_upper(
    sigma: IntensityVector, lam: IntensityVector, A: float
):
    """Chernoff bound on the mismatched miss probability beta_sigma(A, lambda).

    Solves sum nu_i^2/(1+v0 nu_i^2) = D(sigma) + A over v0 >= 0; when the
    mean sum nu_i^2 already sits at or below the threshold the optimum is
    v0 = 0 and the bound is the trivial 1.  Returns (solution, bound).
    """
    _, r2, l2, counts = _pair_runs(sigma, lam)
    sol = _maximize(_nu2(r2, l2), sigma.D + _as_number(A, "A"), math.inf, counts)
    return sol, min(1.0, math.exp(-sol.value))


def alpha_upper_bound(sigma: IntensityVector, A: float):
    """Chernoff bound on the false alarm probability, plus the simple bound.

    2f(t) = t(D+A) + sum ln(1 - t r_i^2) with r_i^2 = sigma_i^2/(1+sigma_i^2);
    the stationarity equation is sum r_i^2/(1-t0 r_i^2) = D+A.  f(t) is the
    Chernoff function g(-t) of ``chernoff_root``, solved on x in [-1, 0].
    Returns (solution at t0, exp(-f(t0)), exp(-A/2)); both are valid upper
    bounds on alpha and neither dominates the other for all A.
    """
    A = _as_number(A, "A")
    simple = math.exp(-A / 2.0)
    r2, counts = null_weights_by_run(sigma)
    sol = _maximize(r2, sigma.D + A, -1.0, counts)
    return sol, min(1.0, math.exp(-sol.value)), simple


MODE_EXACT_U0 = "exact_u0"
MODE_U0_EQUALS_1 = "u0_equals_1"
MODE_ASYMP1A = "asymp1a"


def sufficient_condition_check(
    sigma: IntensityVector,
    lam: IntensityVector,
    A: float,
    mode: str = MODE_EXACT_U0,
) -> ConditionCheck:
    """Evaluate a replaceability condition for swapping sigma with lambda.

    mode "exact_u0": lhs = sum ln[1 + u0 s_i^2 (l_i^2-s_i^2) /
    ((1+s_i^2)(1+u0 s_i^2))] against g_ref = g(u0).  mode "u0_equals_1":
    the same expression frozen at u0 = 1 against g_ref = |g(1)| = |A|/2,
    for the near-critical regime where u0 is close to 1.  mode "asymp1a":
    lhs = g(u0) - max{g_nu(u0), g_nu(1)} with g_nu the mismatch exponent.

    A nonpositive log argument (possible when lambda_i << sigma_i) is
    reported via violated=True with lhs = NaN, never an exception.
    """
    s2, r2, l2, counts = _pair_runs(sigma, lam)
    A = _as_number(A, "A")
    threshold = sigma.D + A

    def log_sum_at(u: float):
        args = 1.0 + r2 * (u * (l2 - s2) / (1.0 + u * s2))
        if np.any(args <= 0):
            return None
        return float(sum_by_run(np.log(args), counts))

    if mode == MODE_EXACT_U0:
        sol = solve_u0(sigma, A)
        if sol.boundary_case != INTERIOR:
            raise OutOfRegime(
                f"level A outside the operating window (u0 {sol.boundary_case})"
            )
        lhs = log_sum_at(sol.argmax)
        g_ref = sol.value
    elif mode == MODE_U0_EQUALS_1:
        lhs = log_sum_at(1.0)
        g_ref = abs(A) / 2.0
    elif mode == MODE_ASYMP1A:
        sol = solve_u0(sigma, A)
        g_ref = sol.value
        nu2 = _nu2(r2, l2)
        lhs = g_ref - max(_exponent(nu2, threshold, sol.argmax, counts),
                          _exponent(nu2, threshold, 1.0, counts))
    else:
        raise InvalidInput(f"unknown mode {mode!r}")

    if lhs is None:
        return ConditionCheck(mode, math.nan, g_ref, math.nan, True)
    ratio = lhs / g_ref if g_ref != 0 else math.nan
    return ConditionCheck(mode, lhs, g_ref, ratio, False)


def _block_sizes(n: int, K: int) -> np.ndarray:
    sizes = np.full(K, n // K, dtype=int)
    sizes[: n % K] += 1
    return sizes


def default_block_count(n: int, delta: float) -> int:
    """K minimizing n*delta/K + K ln(pi n), clamped to [1, n]."""
    k = round(math.sqrt(n * delta / math.log(math.pi * n)))
    return max(1, min(n, k))


def beta_lower_bound(
    sigma: IntensityVector, A: float, K: Optional[int] = None
) -> BetaLowerBound:
    """Two-sided sandwich on ln(beta) around the Chernoff exponent.

    Requires all sigma_i > 0 (the spread delta must exist) and A inside the
    operating window.  The lower side comes from partitioning the sorted
    variances into K blocks, bounding each block by a pure chi-square event
    at its largest variance, and applying the chi-square lower-tail
    sandwich per block; the block thresholds are chosen optimally via the
    stationarity equation sum_k m_k b_k/(1+u1 b_k) = D + A.
    """
    delta = sigma.delta
    if delta is None:
        raise InvalidInput("delta undefined: some sigma_i = 0")
    n = sigma.n
    threshold = sigma.D + _as_number(A, "A")
    s2, counts = squares_by_run(sigma)
    sol = _maximize(s2, threshold, 1.0, counts)  # solve_u0
    if sol.boundary_case != INTERIOR:
        raise OutOfRegime(
            f"level A outside the operating window (u0 {sol.boundary_case})"
        )
    upper = -sol.value
    log_pin = math.log(math.pi * n)
    lower = upper - math.sqrt(delta * n * log_pin) - log_pin
    interval = TailSandwich(lower=lower, upper=upper)

    K = default_block_count(n, delta) if K is None else _as_integer(K, "K")
    if not 1 <= K <= n:
        raise InvalidInput(f"K must be in [1, {n}]")
    sizes = _block_sizes(n, K)
    heads = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    if counts is not None:  # the run of each head, counted from the top
        heads = np.searchsorted(np.cumsum(counts[::-1]), heads, side="right")
    b = sigma.runs[0][::-1][heads] ** 2  # block-leading (largest) variances
    m = sizes.astype(float)
    # Threshold here is the raw ellipsoid radius D + A, split across blocks.
    res, _ = chernoff_root(b, threshold, math.inf, counts=m)
    u1, u1_res = res.root, res.residual

    # Per-block chi-square lower-tail sandwich at a_k = m_k/(1+u1 b_k) <= m_k.
    a = m / (1.0 + u1 * b)
    pivot = -0.5 * (m * (np.log1p(u1 * b) - 1.0) + a)
    constructive = float(
        np.sum(pivot - 0.5 * np.log(math.pi * m) - 1.0 / (3.0 * m))
    )
    return BetaLowerBound(
        interval=interval,
        constructive_lower=constructive,
        u0=sol,
        u1=u1,
        u1_residual=u1_res,
        K=K,
    )


@dataclass(frozen=True)
class TransferBound:
    """Upper bound on ln beta(A, lambda) transferred from sigma.

    applicable is False when the exponent-ordering hypothesis
    g_sigma(u0) <= g_lambda(u0) fails numerically.  raw is the transferred
    value before clipping at 0 (probabilities cannot exceed 1).
    """

    applicable: bool
    value: Optional[float]
    raw: Optional[float]


def bound_transfer(
    sigma: IntensityVector, lam: IntensityVector, A: float
) -> TransferBound:
    """Transfer the ln(beta) upper estimate from sigma to lambda.

    Valid when g_sigma(u0) <= g_lambda(u0) (checked numerically, with
    u0 the maximizer for sigma); then ln beta(A, lambda) <= -g_sigma(u0)
    + sqrt(delta_sigma n ln(pi n)) + ln(pi n).
    """
    check_same_length(sigma, lam)
    delta = sigma.delta
    if delta is None:
        raise InvalidInput("delta undefined: some sigma_i = 0")
    sol = solve_u0(sigma, A)
    g_sig = sol.value
    g_lam, _ = g_eval(lam, A, sol.argmax)
    if g_sig > g_lam + 1e-12 * (1.0 + abs(g_sig)):
        return TransferBound(False, None, None)
    n = sigma.n
    log_pin = math.log(math.pi * n)
    raw = -g_sig + math.sqrt(delta * n * log_pin) + log_pin
    return TransferBound(True, min(0.0, raw), raw)
