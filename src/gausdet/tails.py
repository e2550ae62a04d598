"""Closed-form tail machinery.

Standard normal tail sandwich, two-sided estimates on the log chi-square
tails (lower tail for the miss probability, upper tail for the false alarm),
the Berry-Esseen normal approximation of alpha with its explicit guarantee,
and the threshold rule that caps alpha at 6/sqrt(B).  Everything here is
closed form on ``math``: the normal tail is erfc-based, with no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput, OutOfRegime
from .model import IntensityVector, _as_integer, _as_number, signal_statistics

# The radicand B(ln B - ln ln B) needs B > e; enforced with a little margin.
MIN_B_FOR_THRESHOLD = 3.0


@dataclass(frozen=True)
class TailSandwich:
    """Lower/upper bounds on a (log-)tail probability.

    Also the ln(beta) sandwich of ``exponents.beta_lower_bound``.  center is
    the exponent pivot -((n/2) ln(n/(eA)) + A/2) for the chi-square
    sandwiches and NaN for the others.
    """

    lower: float
    upper: float
    center: float = math.nan

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise InvalidInput(
                f"sandwich lower {self.lower:.6g} exceeds upper {self.upper:.6g}"
            )

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def standard_normal_upper_tail(x: float) -> float:
    """Q(x) = P(xi >= x) = erfc(x / sqrt 2) / 2, accurate far into the tail."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def normal_tail_bounds(z: float) -> TailSandwich:
    """Sandwich on the standard normal tail P(xi >= z), z > 0.

    lower = z exp(-z^2/2) / ((z^2+1) sqrt(2 pi)),
    upper = exp(-z^2/2) / (z sqrt(2 pi)); their ratio tends to 1 as z grows.
    """
    z = _as_number(z, "z")
    if z <= 0:
        raise InvalidInput("z must be positive")
    core = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    return TailSandwich(lower=z * core / (z * z + 1.0), upper=core / z)


def _chi2_pivot(A: float, n: int) -> float:
    return -0.5 * (n * math.log(n / (math.e * A)) + A)


def chi2_lower_tail_sandwich(A: float, n: int) -> TailSandwich:
    """Bounds on ln P(chi^2_n < A) for 0 < A <= n.

    With pivot p = -((n/2) ln(n/(eA)) + A/2):
    p - ln(pi n)/2 - 1/(3n) <= ln P <= p.
    """
    A, n = _as_number(A, "A"), _as_integer(n, "n")
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if A <= 0:
        raise InvalidInput("A must be positive")
    if A > n:
        raise OutOfRegime(f"lower-tail sandwich requires A <= n, got A={A}, n={n}")
    p = _chi2_pivot(A, n)
    return TailSandwich(
        lower=p - 0.5 * math.log(math.pi * n) - 1.0 / (3.0 * n),
        upper=p,
        center=p,
    )


def chi2_upper_tail_sandwich(A: float, n: int) -> TailSandwich:
    """Bounds on ln P(chi^2_n > A) for A >= n, n >= 2.

    Same pivot; the lower correction is 1/(3n) + ln(pi A^2 / n)/2.
    """
    A, n = _as_number(A, "A"), _as_integer(n, "n")
    if n < 2:
        raise OutOfRegime("upper-tail sandwich requires n >= 2")
    if A < n:
        raise OutOfRegime(f"upper-tail sandwich requires A >= n, got A={A}, n={n}")
    p = _chi2_pivot(A, n)
    return TailSandwich(
        lower=p - 1.0 / (3.0 * n) - 0.5 * math.log(math.pi * A * A / n),
        upper=p,
        center=p,
    )


def berry_esseen_alpha(sigma: IntensityVector, A: float):
    """Normal approximation of alpha with an explicit error guarantee.

    Returns (approx, guarantee): approx = Q(x) with
    x = (D + A - T)/sqrt(B), and |alpha - approx| <= guarantee = 5/sqrt(B).
    Requires z = D + A - T > 0.
    """
    stats = signal_statistics(sigma)
    z = stats.D + _as_number(A, "A") - stats.T
    if z <= 0:
        raise OutOfRegime(f"requires D + A - T > 0, got {z:.6g}")
    if stats.B == 0:
        raise OutOfRegime("B = 0 (zero signal): normal approximation undefined")
    x = z / math.sqrt(stats.B)
    return standard_normal_upper_tail(x), 5.0 / math.sqrt(stats.B)


def prop4_threshold(sigma: IntensityVector):
    """Level guaranteeing a false alarm cap of 6/sqrt(B).

    Returns (A_star, alpha_cap): for any A >= A_star = T - D +
    sqrt(B (ln B - ln ln B)), alpha(A, sigma) <= alpha_cap = 6/sqrt(B).
    """
    stats = signal_statistics(sigma)
    B = stats.B
    if B < MIN_B_FOR_THRESHOLD:
        raise OutOfRegime(
            f"requires B >= {MIN_B_FOR_THRESHOLD} (B = {B:.6g})"
        )
    a_star = stats.T - stats.D + math.sqrt(B * (math.log(B) - math.log(math.log(B))))
    return a_star, 6.0 / math.sqrt(B)
