"""Scalar root finding for strictly monotone functions.

Bracketed bisection with safeguarded Newton acceleration: a Newton step is
taken only when it stays inside the current sign-change bracket, otherwise
the step falls back to bisection.  Monotonicity of the target functions
makes the bracket shrink to the unique root unconditionally, to a width of
DEFAULT_TOL = 1e-12 or for at most MAX_ITER = 200 steps.  An upper bracket
on [0, inf) grows from 1 by factors of 4, at most MAX_ITER times.

The caller passes f at the bracket ends, which it evaluated to choose
them, so f is never evaluated twice at an end.  The solver asks for df only
at the point of its latest f call, so df may reuse that call's work
(``exponents.chernoff_root`` squares the buffer its f filled).
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
) -> RootResult:
    """Root of f on [lo, hi] from flo = f(lo) and fhi = f(hi), of opposite sign."""
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


def grow_upper_bracket(
    f: Callable[[float], float], f0: float
) -> tuple[float, float]:
    """Smallest 4^k, k >= 0, at which f changes sign relative to f0 = f(0+),
    with f there.

    Used for roots on [0, inf): f must be positive at 0 and eventually
    negative (or vice versa).
    """
    sign0 = math.copysign(1.0, f0)
    hi = 1.0
    for _ in range(MAX_ITER):
        fhi = f(hi)
        if math.copysign(1.0, fhi) != sign0:
            return hi, fhi
        hi *= 4.0
    raise InvalidInput("could not bracket root: no sign change found")
