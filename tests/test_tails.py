"""Unit tests for the tail sandwiches and normal approximation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, ndtr

from gausdet import (
    IntensityVector,
    berry_esseen_alpha,
    chi2_lower_tail_sandwich,
    chi2_upper_tail_sandwich,
    normal_tail_bounds,
    prop4_threshold,
    signal_statistics,
    standard_normal_upper_tail,
)
from gausdet.errors import InvalidInput, OutOfRegime


class TestNormalTail:
    def test_q_matches_scipy(self):
        for z in (-2.0, 0.0, 1.3, 4.0):
            assert standard_normal_upper_tail(z) == pytest.approx(
                float(ndtr(-z)), rel=1e-14
            )

    def test_q_matches_scipy_into_the_far_tail(self):
        # Q(37) ~ 6e-300: the erfc form keeps relative accuracy down to
        # the last normal doubles.
        for z in np.linspace(-8.0, 37.0, 4501):
            assert standard_normal_upper_tail(float(z)) == pytest.approx(
                float(ndtr(-z)), rel=1e-12
            ), z

    @given(st.floats(1e-3, 8.0))
    def test_sandwich_contains_exact(self, z):
        sw = normal_tail_bounds(z)
        q = float(ndtr(-z))
        assert sw.lower <= q <= sw.upper

    def test_sandwich_tightens(self):
        # The bound ratio upper/lower = (z^2+1)/z^2 -> 1 as z grows.
        wide = normal_tail_bounds(0.5)
        tight = normal_tail_bounds(5.0)
        assert tight.upper / tight.lower < wide.upper / wide.lower

    def test_nonpositive_z_rejected(self):
        with pytest.raises(InvalidInput):
            normal_tail_bounds(0.0)
        with pytest.raises(InvalidInput):
            normal_tail_bounds(-1.0)


class TestChi2Sandwiches:
    def test_lower_tail_contains_exact(self):
        for n in (1, 2, 5, 20):
            for frac in (0.2, 0.5, 0.9, 1.0):
                A = frac * n
                exact = math.log(float(gammainc(n / 2.0, A / 2.0)))
                sw = chi2_lower_tail_sandwich(A, n)
                assert sw.lower <= exact <= sw.upper, (n, A)

    def test_upper_tail_contains_exact(self):
        for n in (2, 5, 20, 100):
            for mult in (1.0, 1.5, 3.0):
                A = mult * n
                exact = math.log(float(gammaincc(n / 2.0, A / 2.0)))
                sw = chi2_upper_tail_sandwich(A, n)
                assert sw.lower <= exact <= sw.upper, (n, A)

    def test_pivot_at_a_equals_n(self):
        # A = n makes the pivot exactly -A/2 + (n/2) = 0 shifted: p = -n/2 + n/2.
        sw = chi2_lower_tail_sandwich(5.0, 5)
        assert sw.upper == pytest.approx(-0.5 * (5.0 - 5.0), abs=1e-12)

    def test_regime_checks(self):
        with pytest.raises(OutOfRegime):
            chi2_lower_tail_sandwich(6.0, 5)  # A > n
        with pytest.raises(OutOfRegime):
            chi2_upper_tail_sandwich(4.0, 5)  # A < n
        with pytest.raises(OutOfRegime):
            chi2_upper_tail_sandwich(2.0, 1)  # n = 1 unsupported
        with pytest.raises(InvalidInput):
            chi2_lower_tail_sandwich(-1.0, 5)
        with pytest.raises(InvalidInput):
            chi2_lower_tail_sandwich(1.0, 0)


class TestBerryEsseen:
    def test_value_and_guarantee(self):
        sigma = IntensityVector(np.ones(50))
        stats = signal_statistics(sigma)
        A = stats.T - stats.D + 2.0 * math.sqrt(stats.B)
        approx, guarantee = berry_esseen_alpha(sigma, A)
        assert approx == pytest.approx(float(ndtr(-2.0)), rel=1e-12)
        assert guarantee == pytest.approx(5.0 / math.sqrt(stats.B), rel=1e-12)

    def test_regime(self):
        sigma = IntensityVector(np.ones(10))
        stats = signal_statistics(sigma)
        with pytest.raises(OutOfRegime):
            berry_esseen_alpha(sigma, stats.T - stats.D)  # z = 0

    @pytest.mark.parametrize("A", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, A):
        with pytest.raises(InvalidInput, match="A must be finite"):
            berry_esseen_alpha(IntensityVector(np.ones(10)), A)


class TestProp4Threshold:
    def test_closed_form(self):
        sigma = IntensityVector(np.ones(100))
        stats = signal_statistics(sigma)
        a_star, cap = prop4_threshold(sigma)
        expected = stats.T - stats.D + math.sqrt(
            stats.B * (math.log(stats.B) - math.log(math.log(stats.B)))
        )
        assert a_star == pytest.approx(expected, rel=1e-14)
        assert cap == pytest.approx(6.0 / math.sqrt(stats.B), rel=1e-14)

    def test_small_b_rejected(self):
        with pytest.raises(OutOfRegime):
            prop4_threshold(IntensityVector([1.0]))  # B = 0.5
