"""Scalar root finding for strictly monotone functions.

Bracketed bisection with safeguarded Newton acceleration: a Newton step is
taken only when it stays inside the current sign-change bracket, otherwise
the step falls back to bisection.  Monotonicity of the target functions
makes the bracket shrink to the unique root unconditionally, to a width of
DEFAULT_TOL = 1e-12 or for at most MAX_ITER = 200 steps.  An upper bracket
on [0, inf) grows from 1 by factors of 4, at most MAX_ITER times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidInput

DEFAULT_TOL = 1e-12
MAX_ITER = 200


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    iterations: int


def solve_bracketed(
    f: Callable[[float], float],
    df: Callable[[float], float],
    lo: float,
    hi: float,
) -> RootResult:
    """Root of f on [lo, hi]; f(lo) and f(hi) must differ in sign."""
    if not lo < hi:
        raise InvalidInput(f"empty bracket [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0)
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise InvalidInput(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )

    x = 0.5 * (lo + hi)
    fx = f(x)
    for iterations in range(1, MAX_ITER + 1):
        if fx == 0.0:
            break
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi = x
        if hi - lo <= DEFAULT_TOL:
            break
        d = df(x)
        cand = x - fx / d if d != 0.0 and math.isfinite(d) else math.nan
        x = cand if lo < cand < hi else 0.5 * (lo + hi)
        fx = f(x)
    return RootResult(x, fx, iterations)


def grow_upper_bracket(f: Callable[[float], float]) -> float:
    """Smallest 4^k, k >= 0, at which f changes sign relative to f(0+).

    Used for roots on [0, inf): f must be positive at 0 and eventually
    negative (or vice versa).
    """
    sign0 = math.copysign(1.0, f(0.0))
    hi = 1.0
    for _ in range(MAX_ITER):
        if math.copysign(1.0, f(hi)) != sign0:
            return hi
        hi *= 4.0
    raise InvalidInput("could not bracket root: no sign change found")
