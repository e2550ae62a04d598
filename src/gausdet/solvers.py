"""Scalar root finding for strictly monotone functions.

Bracketed bisection with safeguarded Newton acceleration: a Newton step is
taken only when it stays inside the current sign-change bracket, otherwise
the step falls back to bisection.  Monotonicity of the target functions
makes the bracket shrink to the unique root unconditionally, to a width of
DEFAULT_TOL = 1e-12 or for at most MAX_ITER = 200 steps.  Newton iterates
of a convex or concave f approach the root from one side, where the bracket
need not shrink, so the solver also stops after a Newton step no longer
than DEFAULT_TOL (one that rounds to nothing is not taken).

The caller passes f at the bracket ends, which it evaluated to choose
them, so f is never evaluated twice at an end, and may pass the first
point.  The solver asks for df only at the point of its latest f call, so
df may reuse that call's work.  df is the slope of the Newton step
x - f(x)/df(x), f' for plain Newton; ``exponents.chernoff_root`` passes f'
scaled so that the step is Newton's on a better-shaped function with the
same root and signs.
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
    flo: float,
    fhi: float,
    start: float = math.nan,
) -> RootResult:
    """Root of f on [lo, hi] from flo = f(lo) and fhi = f(hi), of opposite sign.

    The first point is start when it lies strictly inside the bracket, else
    the midpoint.
    """
    if not lo < hi:
        raise InvalidInput(f"empty bracket [{lo}, {hi}]")
    if flo == 0.0:
        return RootResult(lo, 0.0, 0)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0)
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise InvalidInput(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )

    x = start if lo < start < hi else 0.5 * (lo + hi)
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
        if abs(cand - x) <= DEFAULT_TOL:  # Newton has converged
            if lo < cand < hi:
                x, fx = cand, f(cand)
            break
        x = cand if lo < cand < hi else 0.5 * (lo + hi)
        fx = f(x)
    return RootResult(x, fx, iterations)
