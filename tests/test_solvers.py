"""Unit tests for the bracketed Newton/bisection solver."""

import math

import pytest

from gausdet.errors import InvalidInput
from gausdet.solvers import solve_bracketed


def test_sqrt_two():
    res = solve_bracketed(lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 2.0,
                          -2.0, 2.0)
    assert res.root == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert abs(res.residual) < 1e-10
    assert res.iterations >= 1


def test_endpoint_roots_exact():
    assert solve_bracketed(lambda x: x, lambda x: 1.0, 0.0, 1.0,
                           0.0, 1.0).root == 0.0
    assert solve_bracketed(lambda x: x - 1.0, lambda x: 1.0, 0.0, 1.0,
                           -1.0, 0.0).root == 1.0


def test_no_sign_change_rejected():
    with pytest.raises(InvalidInput, match="no sign change"):
        solve_bracketed(lambda x: x * x + 1.0, lambda x: 1.0, 0.0, 1.0, 1.0, 2.0)


def test_empty_bracket_rejected():
    with pytest.raises(InvalidInput, match="empty bracket"):
        solve_bracketed(lambda x: x, lambda x: 1.0, 1.0, 1.0, 1.0, 1.0)


def test_steep_function_converges():
    # Newton steps outside the bracket must fall back to bisection.
    f = lambda x: math.tanh(50.0 * (x - 0.7)) + 0.5  # noqa: E731
    res = solve_bracketed(f, lambda x: 50.0 / math.cosh(50.0 * (x - 0.7)) ** 2,
                          0.0, 1.0, f(0.0), f(1.0))
    assert abs(f(res.root)) < 1e-8


def test_given_ends_are_not_evaluated_again():
    points = []

    def f(x):
        points.append(x)
        return 2.0 - x * x

    res = solve_bracketed(f, lambda x: -2.0 * x, 0.0, 4.0, f(0.0), f(4.0))
    assert res.root == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("start, first", [(1.5, 1.5), (0.0, 1.0), (2.0, 1.0),
                                          (math.nan, 1.0), (math.inf, 1.0)])
def test_start_used_only_strictly_inside(start, first):
    points = []

    def f(x):
        points.append(x)
        return 2.0 - x * x

    res = solve_bracketed(f, lambda x: -2.0 * x, 0.0, 2.0, 2.0, -2.0, start)
    assert points[0] == first
    assert res.root == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_stops_after_a_newton_step_within_tolerance():
    # From a start one ulp off the root, Newton's step is the last one.
    f = lambda x: 2.0 - x * x  # noqa: E731
    res = solve_bracketed(f, lambda x: -2.0 * x, 0.0, 2.0, 2.0, -2.0,
                          math.sqrt(2.0))
    assert res.iterations == 1
    assert res.root == pytest.approx(math.sqrt(2.0), rel=2.3e-16)
