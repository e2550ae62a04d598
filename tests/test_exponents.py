"""Unit tests for the Chernoff exponents and large-deviation bounds."""

import dataclasses
import math
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gausdet import (
    BoundInterval,
    IntensityVector,
    NpTest,
    TailSandwich,
    alpha_upper_bound,
    beta_lower_bound,
    beta_mismatch_upper,
    beta_upper_bound,
    bound_transfer,
    chi2_lower_tail_sandwich,
    g_eval,
    mismatch_profile,
    np_test_exact_probs,
    signal_statistics,
    solve_u0,
    sufficient_condition_check,
    weighted_chi2_cdf,
)
from gausdet import exponents, oracle
from gausdet.errors import DimensionMismatch, InvalidInput, OutOfRegime
from gausdet.exponents import (
    AT_ONE,
    AT_ZERO,
    INTERIOR,
    MODE_ASYMP1A,
    MODE_EXACT_U0,
    MODE_U0_EQUALS_1,
    default_block_count,
)

positive_sigmas = arrays(
    np.float64,
    st.integers(2, 8),
    elements=st.floats(0.1, 5.0, allow_nan=False),
).map(IntensityVector)


def mid_window_level(sigma):
    lo, hi = signal_statistics(sigma).window
    return 0.5 * (lo + hi)


class TestGEval:
    @given(positive_sigmas, st.floats(-2.0, 2.0))
    def test_g_at_one_is_minus_half_a(self, sigma, A):
        g1, _ = g_eval(sigma, A, 1.0)
        assert g1 == pytest.approx(-A / 2.0, rel=1e-12, abs=1e-12)

    def test_closed_form_equal_sigma(self):
        # sigma = (1,1), D + A = 1.5, u = 1/3: 2g = 2 ln(4/3) - 0.5.
        sigma = IntensityVector([1.0, 1.0])
        A = 1.5 - 2.0 * math.log(2.0)
        g, gp = g_eval(sigma, A, 1.0 / 3.0)
        assert 2.0 * g == pytest.approx(2.0 * math.log(4.0 / 3.0) - 0.5,
                                        rel=1e-12)
        assert gp == pytest.approx(0.0, abs=1e-12)  # u0 = n/(D+A) - 1/sigma^2

    def test_negative_u_rejected(self):
        with pytest.raises(InvalidInput):
            g_eval(IntensityVector([1.0]), 0.0, -0.1)

    @given(positive_sigmas, st.floats(-1.0, 1.0),
           st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.01, 0.99))
    def test_concavity_chords(self, sigma, A, u1, u2, t):
        # g is concave on u >= 0: chords lie below the graph.
        g1, _ = g_eval(sigma, A, u1)
        g2, _ = g_eval(sigma, A, u2)
        gm, _ = g_eval(sigma, A, t * u1 + (1 - t) * u2)
        assert gm >= t * g1 + (1 - t) * g2 - 1e-10


class TestSolveU0:
    def test_interior_closed_form(self):
        # Equal sigma: u0 = n/(D+A) - 1/sigma^2 when interior.
        sigma = IntensityVector([1.0, 1.0])
        A = 1.5 - 2.0 * math.log(2.0)
        sol = solve_u0(sigma, A)
        assert sol.boundary_case == INTERIOR
        assert sol.argmax == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert abs(sol.stationarity_residual) < 1e-10
        assert 2.0 * sol.value == pytest.approx(
            2.0 * math.log(4.0 / 3.0) - 0.5, rel=1e-12
        )

    def test_boundary_at_zero(self):
        sigma = IntensityVector([1.0, 1.0])
        hi = signal_statistics(sigma).window[1]
        sol = solve_u0(sigma, hi + 0.5)
        assert sol.boundary_case == AT_ZERO
        assert sol.argmax == 0.0
        assert sol.value == 0.0

    def test_boundary_at_one(self):
        sigma = IntensityVector([1.0, 1.0])
        lo = signal_statistics(sigma).window[0]
        A = lo - 0.5
        sol = solve_u0(sigma, A)
        assert sol.boundary_case == AT_ONE
        assert sol.argmax == 1.0
        assert sol.value == pytest.approx(-A / 2.0, rel=1e-12)

    @given(positive_sigmas, st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_interior_stationarity(self, sigma, frac):
        lo, hi = signal_statistics(sigma).window
        A = lo + frac * (hi - lo)
        sol = solve_u0(sigma, A)
        if sol.boundary_case == INTERIOR:
            assert 0.0 < sol.argmax < 1.0
            assert abs(sol.stationarity_residual) < 1e-9
            # Maximality: nearby points do not beat the optimum.
            for u in (sol.argmax * 0.9, min(1.0, sol.argmax * 1.1)):
                g, _ = g_eval(sigma, A, u)
                assert g <= sol.value + 1e-12


class TestBetaUpperBound:
    def test_equal_sigma_value(self):
        # sigma = (1,1), D + A = 1.5: bound = exp(-g(u0)).
        sigma = IntensityVector([1.0, 1.0])
        A = 1.5 - 2.0 * math.log(2.0)
        g = 0.5 * (2.0 * math.log(4.0 / 3.0) - 0.5)
        assert beta_upper_bound(sigma, A) == pytest.approx(
            math.exp(-g), rel=1e-10
        )

    def test_dominates_exact_beta(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sigma = IntensityVector(rng.uniform(0.3, 2.0, size=4))
            lo, hi = signal_statistics(sigma).window
            A = lo + rng.uniform(0.2, 0.8) * (hi - lo)
            if signal_statistics(sigma).D + A < 0:
                continue
            _, beta = np_test_exact_probs(NpTest(sigma, A))
            assert beta <= beta_upper_bound(sigma, A) + 1e-12

    def test_clipped_at_one(self):
        sigma = IntensityVector([1.0, 1.0])
        hi = signal_statistics(sigma).window[1]
        assert beta_upper_bound(sigma, hi + 1.0) == 1.0


class TestMismatch:
    def test_profile_formula(self):
        sigma = IntensityVector([1.0, 1.0])
        lam = IntensityVector([math.sqrt(3.0), math.sqrt(3.0)])
        nu2 = mismatch_profile(sigma, lam)
        np.testing.assert_allclose(nu2, [2.0, 2.0], rtol=1e-14)

    def test_profile_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mismatch_profile(IntensityVector([1.0]), IntensityVector([1.0, 1.0]))

    def test_equal_nu_closed_form(self):
        # nu^2 = (2,2), D + A = 1.5: v0 = 5/6, 2g = 2 ln(8/3) - 1.25.
        sigma = IntensityVector([1.0, 1.0])
        lam = IntensityVector([math.sqrt(3.0), math.sqrt(3.0)])
        A = 1.5 - 2.0 * math.log(2.0)
        sol, bound = beta_mismatch_upper(sigma, lam, A)
        assert sol.argmax == pytest.approx(5.0 / 6.0, abs=1e-10)
        expected_2g = 2.0 * math.log(8.0 / 3.0) - 1.25
        assert bound == pytest.approx(math.exp(-0.5 * expected_2g), rel=1e-10)

    def test_matched_reduces_to_plain_bound(self):
        sigma = IntensityVector([0.8, 1.2, 1.0])
        A = mid_window_level(sigma)
        _, bound = beta_mismatch_upper(sigma, sigma, A)
        assert bound == pytest.approx(beta_upper_bound(sigma, A), rel=1e-10)

    def test_trivial_bound_when_mean_below_threshold(self):
        # Large threshold: v0 = 0, bound 1.
        sigma = IntensityVector([1.0, 1.0])
        lam = IntensityVector([0.1, 0.1])
        sol, bound = beta_mismatch_upper(sigma, lam, A=5.0)
        assert sol.boundary_case == AT_ZERO
        assert bound == 1.0

    def test_dominates_exact_mismatched_beta(self):
        # beta_sigma(A, lambda) = P(sum nu^2 xi^2 < D + A) exactly.
        from gausdet import weighted_chi2_cdf

        rng = np.random.default_rng(11)
        for _ in range(10):
            sigma = IntensityVector(rng.uniform(0.5, 1.5, size=3))
            lam = IntensityVector(rng.uniform(0.5, 1.5, size=3))
            A = mid_window_level(sigma)
            nu2 = mismatch_profile(sigma, lam)
            thr = signal_statistics(sigma).D + A
            exact = weighted_chi2_cdf(nu2, max(thr, 0.0))
            _, bound = beta_mismatch_upper(sigma, lam, A)
            assert exact <= bound + 1e-12


class TestAlphaUpperBound:
    def test_f_at_one_is_half_a(self):
        # 2f(1) = (D+A) + sum ln(1 - r^2) = A identically.
        rng = np.random.default_rng(5)
        for _ in range(10):
            sigma = IntensityVector(rng.uniform(0.2, 3.0, size=5))
            A = rng.uniform(-1.0, 3.0)
            stats = signal_statistics(sigma)
            two_f1 = (stats.D + A) + float(
                np.sum(np.log1p(-sigma.r_squared))
            )
            assert two_f1 == pytest.approx(A, rel=1e-12, abs=1e-12)

    def test_boundary_cases(self):
        sigma = IntensityVector([1.0, 1.0])
        stats = signal_statistics(sigma)
        sol, bound, simple = alpha_upper_bound(sigma, stats.window[0] - 0.1)
        assert sol.boundary_case == AT_ZERO and bound == 1.0
        sol, bound, simple = alpha_upper_bound(sigma, stats.window[1] + 0.1)
        assert sol.boundary_case == AT_ONE
        assert bound == pytest.approx(simple, rel=1e-12)

    def test_interior_dominates_exact_alpha(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sigma = IntensityVector(rng.uniform(0.3, 2.0, size=4))
            A = mid_window_level(sigma)
            if signal_statistics(sigma).D + A < 0:
                continue
            alpha, _ = np_test_exact_probs(NpTest(sigma, A))
            sol, bound, simple = alpha_upper_bound(sigma, A)
            assert alpha <= bound + 1e-12
            assert alpha <= simple + 1e-12
            if sol.boundary_case == INTERIOR:
                assert abs(sol.stationarity_residual) < 1e-9
                # The optimized exponent beats the simple t = 1 bound.
                assert bound <= simple + 1e-12


class TestSufficientConditions:
    def test_matched_lambda_gives_zero_lhs(self):
        sigma = IntensityVector([1.0, 0.8, 1.3])
        A = mid_window_level(sigma)
        check = sufficient_condition_check(sigma, sigma, A, MODE_EXACT_U0)
        assert check.lhs == pytest.approx(0.0, abs=1e-12)
        assert not check.violated

    def test_larger_lambda_gives_positive_lhs(self):
        sigma = IntensityVector([1.0, 1.0])
        lam = IntensityVector([1.5, 1.5])
        A = mid_window_level(sigma)
        for mode in (MODE_EXACT_U0, MODE_U0_EQUALS_1):
            check = sufficient_condition_check(sigma, lam, A, mode)
            assert check.lhs > 0.0
            assert not check.violated

    def test_exact_u0_out_of_window(self):
        sigma = IntensityVector([1.0, 1.0])
        hi = signal_statistics(sigma).window[1]
        with pytest.raises(OutOfRegime):
            sufficient_condition_check(sigma, sigma, hi + 1.0, MODE_EXACT_U0)

    def test_asymp1a_matched_is_nonpositive(self):
        # With lambda = sigma the mismatch exponent maximum matches g(u0),
        # so the perturbation g(u0) - max(...) is <= 0.
        sigma = IntensityVector([1.0, 0.9, 1.1])
        A = mid_window_level(sigma)
        check = sufficient_condition_check(sigma, sigma, A, MODE_ASYMP1A)
        assert check.lhs <= 1e-12

    @pytest.mark.parametrize("mode", [MODE_EXACT_U0, MODE_U0_EQUALS_1, MODE_ASYMP1A])
    def test_non_finite_level_rejected(self, mode):
        sigma = IntensityVector([1.0, 1.0])
        with pytest.raises(InvalidInput, match="A must be finite"):
            sufficient_condition_check(sigma, sigma, math.nan, mode)

    def test_unknown_mode(self):
        with pytest.raises(InvalidInput):
            sufficient_condition_check(
                IntensityVector([1.0]), IntensityVector([1.0]), 0.0, "bogus"
            )


class TestBetaLowerBound:
    def test_interval_and_construction_equal_sigma(self):
        # Equal sigma, K = 1: the constructive bound must coincide with the
        # chi-square lower-tail sandwich at the rescaled threshold.
        n = 20
        sigma = IntensityVector(np.full(n, 1.3))
        A = mid_window_level(sigma)
        res = beta_lower_bound(sigma, A, K=1)
        stats = signal_statistics(sigma)
        rescaled = (stats.D + A) / 1.3**2
        sw = chi2_lower_tail_sandwich(rescaled, n)
        assert res.constructive_lower == pytest.approx(sw.lower, rel=1e-10)
        # Equal sigma: delta = 0, interval = [-g - ln(pi n), -g].
        assert res.interval.upper == pytest.approx(-res.u0.value, rel=1e-12)
        assert res.interval.lower == pytest.approx(
            -res.u0.value - math.log(math.pi * n), rel=1e-12
        )
        assert res.u1 == pytest.approx(res.u0.argmax, abs=1e-9)

    def test_interval_is_a_tail_sandwich(self):
        sigma = IntensityVector([0.8, 1.0, 1.3])
        res = beta_lower_bound(sigma, mid_window_level(sigma))
        assert type(res.interval) is TailSandwich
        assert math.isnan(res.interval.center)
        assert BoundInterval is TailSandwich

    def test_u1_at_least_u0(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            sigma = IntensityVector(np.sort(rng.uniform(0.4, 2.5, size=12)))
            A = mid_window_level(sigma)
            res = beta_lower_bound(sigma, A)
            assert res.u1 >= res.u0.argmax - 1e-10
            assert abs(res.u1_residual) < 1e-8
            assert 1 <= res.K <= 12
            assert res.constructive_lower <= res.interval.upper + 1e-12

    def test_constructive_below_true_log_beta(self):
        rng = np.random.default_rng(17)
        from gausdet import weighted_chi2_cdf

        for _ in range(8):
            sigma = IntensityVector(rng.uniform(0.5, 2.0, size=10))
            A = mid_window_level(sigma)
            res = beta_lower_bound(sigma, A)
            thr = signal_statistics(sigma).D + A
            ln_beta = math.log(weighted_chi2_cdf(sigma.squared, thr))
            assert res.constructive_lower <= ln_beta + 1e-10
            assert ln_beta <= res.interval.upper + 1e-10

    def test_zero_sigma_rejected(self):
        with pytest.raises(InvalidInput):
            beta_lower_bound(IntensityVector([0.0, 1.0]), 0.0)

    @pytest.mark.filterwarnings("error")
    def test_positive_sigma_with_underflowing_square(self):
        # sigma_1^2 underflows to 0, but every sigma_i > 0, so delta exists.
        sigma = IntensityVector([1e-170, 1.0, 2.0])
        res = beta_lower_bound(sigma, mid_window_level(sigma))
        assert res.K == 3
        for value in (res.interval.lower, res.interval.upper,
                      res.constructive_lower, res.u1):
            assert math.isfinite(value)
        assert res.interval.lower <= res.interval.upper

    def test_out_of_window_rejected(self):
        sigma = IntensityVector(np.full(5, 1.0))
        hi = signal_statistics(sigma).window[1]
        with pytest.raises(OutOfRegime):
            beta_lower_bound(sigma, hi + 1.0)

    def test_bad_k_rejected(self):
        sigma = IntensityVector(np.full(5, 1.0))
        A = mid_window_level(sigma)
        with pytest.raises(InvalidInput):
            beta_lower_bound(sigma, A, K=0)
        with pytest.raises(InvalidInput):
            beta_lower_bound(sigma, A, K=6)

    def test_default_block_count_clamped(self):
        assert default_block_count(5, 0.0) == 1
        assert 1 <= default_block_count(100, 2.0) <= 100
        assert default_block_count(2, 1e6) == 2

    def test_float32_level_read_as_a_float(self):
        # u0 and u1 solve against one threshold, D + A with A read as a float.
        sigma = IntensityVector(np.linspace(0.2, 1.5, 1000))
        A = np.float32(67.412)
        got, want = beta_lower_bound(sigma, A), beta_lower_bound(sigma, float(A))
        assert type(got.u1) is float
        assert (got.u1, got.u1_residual) == (want.u1, want.u1_residual)


class TestBoundTransfer:
    def test_matched_is_applicable(self):
        sigma = IntensityVector(np.full(10, 1.2))
        A = mid_window_level(sigma)
        res = bound_transfer(sigma, sigma, A)
        assert res.applicable
        assert res.value == min(0.0, res.raw)

    def test_componentwise_larger_lambda_applicable(self):
        sigma = IntensityVector(np.full(6, 1.0))
        lam = IntensityVector(np.full(6, 1.7))
        A = mid_window_level(sigma)
        res = bound_transfer(sigma, lam, A)
        assert res.applicable
        # Transfer value is a log-probability bound, so never positive.
        assert res.value <= 0.0

    def test_smaller_lambda_not_applicable(self):
        sigma = IntensityVector(np.full(6, 1.5))
        lam = IntensityVector(np.full(6, 0.2))
        A = mid_window_level(sigma)
        res = bound_transfer(sigma, lam, A)
        assert not res.applicable
        assert res.value is None

    def test_zero_sigma_rejected(self):
        with pytest.raises(InvalidInput):
            bound_transfer(
                IntensityVector([0.0, 1.0]), IntensityVector([1.0, 1.0]), 0.0
            )

    @pytest.mark.filterwarnings("error")
    def test_positive_sigma_with_underflowing_square(self):
        sigma = IntensityVector([1e-170, 1.0, 2.0])
        A = mid_window_level(sigma)
        res = bound_transfer(sigma, IntensityVector([0.5, 1.5, 2.5]), A)
        assert res.applicable
        assert math.isfinite(res.raw) and res.value == min(0.0, res.raw)


class TestPinnedExponents:
    """The four exponent solves at fixed inputs, pinned to exact values.

    Levels sit below, inside and above the operating window, so every
    endpoint case and the interior root are covered at n = 1, 7 and 1000;
    one flat and one random sigma at n = 1e5, the size the benchmark
    times, add an interior level each.  The flat one is solved on its one
    run (a value and its count), and its roots are the true roots to
    1e-14 (``TestPinnedRootsMatchMpmath``).
    Values are compared through repr, so even the sign of a zero counts:
    any change to a solver's bracket, iteration or evaluation order shows
    here.
    """

    SIGMAS = {
        1: IntensityVector([0.8]),
        7: IntensityVector(np.linspace(0.3, 2.1, 7)),
        1000: IntensityVector(np.linspace(0.2, 1.5, 1000)),
        "1e5 flat": IntensityVector(np.full(100_000, 0.9)),
        "1e5 random": IntensityVector(
            np.random.default_rng(2018).uniform(0.3, 1.5, 100_000)),
    }
    LAMBDA_SCALE = 1.25

    # (n, A, expected); an ExponentSolution is written as its astuple.
    U0 = [
        (1, -0.6044523393970826, (1.0, 0.3022261696985413, 0.25, 0, 'at_one')),
        (1, 0.020425709383405183, (0.3787878787878787, 0.01097127700915769, 0.0, 1, 'interior')),
        (1, 0.645303758163893, (0.0, 0.0, -0.25, 0, 'at_zero')),
        (1, 0.7857915630419419, (0.0, 0.0, -0.32024390243902445, 0, 'at_zero')),
        (7, -3.0338864505875085, (1.0, 1.5169432252937542, 0.25, 0, 'at_one')),
        (7, 1.9378294551983655, (0.19795427353248865, 0.1842160633398423, -8.881784197001252e-16, 4, 'interior')),
        (7, 6.909545360984239, (0.0, 0.0, -0.25, 0, 'at_zero')),
        (7, 11.940225754993351, (0.0, 0.0, -2.765340197004556, 0, 'at_zero')),
        (1000, -166.98708957533552, (1.0, 83.49354478766776, 0.25, 0, 'at_one')),
        (1000, 67.41200421800937, (0.2905835450037046, 14.91656625904487, 0.0, 4, 'interior')),
        (1000, 301.81109801135426, (0.0, 0.0, -0.25, 0, 'at_zero')),
        (1000, 564.9475785288674, (0.0, 0.0, -131.8182402587566, 0, 'at_zero')),
        ('1e5 flat', -81.8557984916697, (0.4531722054380664, 2208.0550235050123, 0.0, 1, 'interior')),
        ('1e5 random', 2231.6600915606723, (0.38182000024736545, 2459.499388166212, 0.0, 4, 'interior')),
    ]
    ALPHA = [
        (1, -0.6044523393970826, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0, 1.3528671696705954)),
        (1, 0.020425709383405183, ((0.6212121212121211, 0.021184131700860254, 0.0, 1, 'interior'), 0.9790386759149364, 0.9898391194235971)),
        (1, 0.645303758163893, ((1.0, 0.3226518790819465, 0.24999999999999994, 0, 'at_one'), 0.7242259286843701, 0.7242259286843701)),
        (1, 0.7857915630419419, ((1.0, 0.39289578152097093, 0.3202439024390244, 0, 'at_one'), 0.6750991017215443, 0.6750991017215443)),
        (7, -3.0338864505875085, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0, 4.558270272208198)),
        (7, 1.9378294551983655, ((0.8020457264675114, 1.1531307909390245, 0.0, 4, 'interior'), 0.3156469960456787, 0.3794946697881216)),
        (7, 6.909545360984239, ((1.0, 3.4547726804921193, 0.2499999999999991, 0, 'at_one'), 0.03159448558275783, 0.03159448558275781)),
        (7, 11.940225754993351, ((1.0, 5.970112877496675, 2.765340197004555, 0, 'at_one'), 0.002553953118887322, 0.00255395311888732)),
        (1000, -166.98708957533552, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0, 1.822996252254179e+36)),
        (1000, 67.41200421800937, ((0.7094164549962955, 48.62256836804957, 0.0, 4, 'interior'), 7.646925547314872e-22, 2.2996898957402976e-15)),
        (1000, 301.81109801135426, ((1.0, 150.90554900567713, 0.25, 0, 'at_one'), 2.9010337295156646e-66, 2.9010337295156646e-66)),
        (1000, 564.9475785288674, ((1.0, 282.4737892644337, 131.8182402587566, 0, 'at_one'), 2.1047089127307367e-123, 2.1047089127307367e-123)),
        ('1e5 flat', -81.8557984916697, ((0.5468277945619333, 2167.1271242591774, 7.275957614183426e-12, 1, 'interior'), 0.0, 5.953341537960036e+17)),
        ('1e5 random', 2231.6600915606723, ((0.6181799997526346, 3575.329433946543, 0.0, 4, 'interior'), 0.0, 0.0)),
    ]
    MISMATCH = [
        (1, 0.020425709383405183, ((0.6600378787878787, 0.03775772198083288, 0.0, 1, 'interior'), 0.9629462133327966)),
        (1, 0.645303758163893, ((0.0, 0.0, -0.1797560975609756, 0, 'at_zero'), 1.0)),
        (1, 0.7857915630419419, ((0.0, 0.0, -0.25000000000000006, 0, 'at_zero'), 1.0)),
        (7, 1.9378294551983655, ((0.3055310038755198, 0.5171485760987165, 8.881784197001252e-16, 4, 'interior'), 0.5962181972791438)),
        (7, 6.909545360984239, ((0.08312281714822214, 0.08329938167507578, -8.881784197001252e-16, 4, 'interior'), 0.920075652193151)),
        (7, 11.940225754993351, ((0.0, 0.0, -0.2500000000000018, 0, 'at_zero'), 1.0)),
        (1000, 67.41200421800937, ((0.4736980410877712, 45.84173474014639, 0.0, 4, 'interior'), 1.2336374969614808e-20)),
        (1000, 301.81109801135426, ((0.17205390855986955, 10.123350022982834, 5.684341886080802e-14, 4, 'interior'), 4.013145878020962e-05)),
        (1000, 564.9475785288674, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0)),
        ('1e5 flat', -81.8557984916697, ((0.7014480675070318, 6078.97042213189, 0.0, 1, 'interior'), 0.0)),
        ('1e5 random', 2231.6600915606723, ((0.5674670529473325, 6268.706445735279, 0.0, 4, 'interior'), 0.0)),
    ]
    LOWER = [
        (1, 0.020425709383405183, (-1.1557011628585578, -0.01097127700915769, -0.9166695532671911, (0.3787878787878787, 0.01097127700915769, 0.0, 1, 'interior'), 0.3787878787878786, 0.0, 1)),
        (7, 1.9378294551983655, (-12.45077618039264, -0.1842160633398423, -3.911683987835346, (0.19795427353248865, 0.1842160633398423, -8.881784197001252e-16, 4, 'interior'), 0.31801736091161154, 0.0, 3)),
        (1000, 67.41200421800937, (-203.10775732291876, -14.91656625904487, -75.55636775124222, (0.2905835450037046, 14.91656625904487, 0.0, 4, 'interior'), 0.34236126986443455, -1.1368683772161603e-13, 22)),
        ('1e5 flat', -81.8557984916697, (-2220.712678855832, -2208.0550235050123, -2214.3838545137537, (0.4531722054380664, 2208.0550235050123, 0.0, 1, 'interior'), 0.45317220543806636, 0.0, 1)),
        ('1e5 random', 2231.6600915606723, (-4490.623494183899, -2459.499388166212, -3155.680104697947, (0.38182000024736545, 2459.499388166212, 0.0, 4, 'interior'), 0.3887575019771198, -7.275957614183426e-12, 159)),
    ]

    def test_cases_covered(self):
        cases = {row[2][4] for row in self.U0}
        assert cases == {AT_ZERO, AT_ONE, INTERIOR}
        assert {row[2][0][4] for row in self.ALPHA} == cases
        assert {row[2][0][4] for row in self.MISMATCH} == {AT_ZERO, INTERIOR}

    def test_solve_u0(self):
        for n, A, want in self.U0:
            got = dataclasses.astuple(solve_u0(self.SIGMAS[n], A))
            assert repr(got) == repr(want), (n, A)

    def test_alpha_upper_bound(self):
        for n, A, want in self.ALPHA:
            sol, chernoff, simple = alpha_upper_bound(self.SIGMAS[n], A)
            got = (dataclasses.astuple(sol), chernoff, simple)
            assert repr(got) == repr(want), (n, A)

    def test_beta_mismatch_upper(self):
        for n, A, want in self.MISMATCH:
            sigma = self.SIGMAS[n]
            lam = IntensityVector(self.LAMBDA_SCALE * sigma.values)
            sol, bound = beta_mismatch_upper(sigma, lam, A)
            got = (dataclasses.astuple(sol), bound)
            assert repr(got) == repr(want), (n, A)

    def test_beta_lower_bound(self):
        for n, A, want in self.LOWER:
            res = beta_lower_bound(self.SIGMAS[n], A)
            got = (res.interval.lower, res.interval.upper, res.constructive_lower,
                   dataclasses.astuple(res.u0), res.u1, res.u1_residual, res.K)
            assert repr(got) == repr(want), (n, A)


def _pinned_interior_inputs():
    """(label, sigma, lambda, A) of the pinned levels at which every solve
    is interior."""
    pins = TestPinnedExponents
    for n, A, _ in pins.LOWER:
        sigma = pins.SIGMAS[n]
        lam = IntensityVector(pins.LAMBDA_SCALE * sigma.values)
        yield f"{n} at {A}", sigma, lam, A


SOLVES = {
    "solve_u0": lambda sigma, lam, A: solve_u0(sigma, A),
    "alpha_upper_bound": lambda sigma, lam, A: alpha_upper_bound(sigma, A),
    "beta_mismatch_upper": beta_mismatch_upper,
    "beta_lower_bound": lambda sigma, lam, A: beta_lower_bound(sigma, A),
}


class TestChernoffEvaluations:
    """chernoff_root evaluates h, the Chernoff function's slope, at no point
    twice: not at the bracket ends it has already evaluated to choose them,
    nor at 0 when it grows an upper bracket."""

    @staticmethod
    def h_points(call):
        """call()'s result, and the x of every call of chernoff_root's h
        that it made."""
        points = []

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_name == "h"
                    and code.co_filename == exponents.__file__):
                points.append(frame.f_locals["x"])

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = call()
        finally:
            sys.setprofile(previous)
        return result, points

    @pytest.mark.parametrize("solve", ["solve_u0", "alpha_upper_bound",
                                       "beta_mismatch_upper"])
    def test_each_point_once(self, solve):
        for label, sigma, lam, A in _pinned_interior_inputs():
            sigma = IntensityVector(sigma.values)  # keeps no bracket sums yet
            for call in ("first", "again"):
                out, points = self.h_points(lambda: SOLVES[solve](sigma, lam, A))
                sol = out if solve == "solve_u0" else out[0]
                assert sol.boundary_case == INTERIOR, label
                if solve == "beta_mismatch_upper" or call == "first":
                    # 0, the bracket end and the first midpoint, then one per step
                    assert len(points) >= sol.iterations + 2, label
                else:
                    # S at 0 and at the end is the vector's: the first point,
                    # then one per step
                    end = 1.0 if solve == "solve_u0" else -1.0
                    assert 0.0 not in points and end not in points, (label, points)
                    assert len(points) >= sol.iterations, label
                assert len(set(points)) == len(points), (label, points)


class TestPeakMemory:
    """Peak traced memory at n = 1e5, in n-length float64 arrays.

    D and r_squared are kept by the vector after their first use
    (``test_model.TestDerivedOnce``), so reading them again makes nothing;
    each solve holds its weights and one buffer of the same length at a time.
    """

    _, SIGMA, LAM, A = list(_pinned_interior_inputs())[-1]

    def peak_arrays(self, call) -> float:
        call()  # first-call set-up is not what is measured
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        return (peak - base) / (8 * self.SIGMA.n)

    def test_intensity_vector(self):
        assert self.peak_arrays(lambda: self.SIGMA.D) <= 1.25
        assert self.peak_arrays(lambda: self.SIGMA.r_squared) <= 2.25

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    def test_solve(self, solve):
        call = lambda: SOLVES[solve](self.SIGMA, self.LAM, self.A)  # noqa: E731
        assert self.peak_arrays(call) <= 2.25


def chernoff_calls(call):
    """call()'s result, and (w, threshold, end, counts, RootResult, case) of
    every chernoff_root call that it made."""
    calls = []
    real = exponents.chernoff_root

    def spy(w, threshold, end, counts=None, kept=None):
        res, case = real(w, threshold, end, counts, kept)
        calls.append((w, threshold, end, counts, res, case))
        return res, case

    with mock.patch.object(exponents, "chernoff_root", spy):
        return call(), calls


def t0_solve(sigma, A):
    """alpha_upper_bound's t0 solve without its simple bound exp(-A/2),
    which overflows for A < -1419.6."""
    return exponents._maximize(sigma.r_squared, sigma.D + A, -1.0)


@st.composite
def sigmas_up_to_2000(draw):
    """Flat sigma, random sigma, or random sigma with about a third zeros."""
    n = draw(st.integers(1, 2000))
    kind = draw(st.sampled_from(["flat", "random", "zeros"]))
    scale = draw(st.floats(0.05, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "flat":
        return IntensityVector(np.full(n, scale))
    values = scale * rng.uniform(0.1, 3.0, n)
    if kind == "zeros":
        values[rng.random(n) < 1 / 3] = 0.0
    return IntensityVector(values)


class TestAlphaBetaIdentity:
    """r^2/(1 - t r^2) = s^2/(1 + (1 - t) s^2) with r^2 = s^2/(1 + s^2), so
    the false-alarm solve is the miss solve reflected: t0 = 1 - u0 and
    f(t0) = g(u0) + A/2 at every interior level."""

    @given(sigmas_up_to_2000(), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    @example(IntensityVector([0.01131734272546965]), 0.5)
    def test_t0_is_one_minus_u0(self, sigma, frac):
        lo, hi = signal_statistics(sigma).window
        assume(lo < hi)
        A = lo + frac * (hi - lo)
        u, t = solve_u0(sigma, A), t0_solve(sigma, A)
        assume(u.boundary_case == INTERIOR)
        assert t.boundary_case == INTERIOR
        # Both exponents are differences of sums of size D + |A|.
        scale = sigma.D + abs(A)
        # Each root moves by a rounding of the sums of size D + |A| over the
        # slope sum q_i^2, q_i = s_i^2/(1 + u0 s_i^2): at n = 1 and
        # s^2 = 1.28e-4 that is 1.7e-12, and t0 + u0 - 1 reads 1.65e-12.
        q = sigma.squared / (1.0 + u.argmax * sigma.squared)
        conditioning = 8.0 * sys.float_info.epsilon * scale / float(np.sum(q * q))
        assert abs(t.argmax + u.argmax - 1.0) <= 1e-12 + conditioning
        assert abs(t.value - (u.value + 0.5 * A)) <= 1e-12 * scale


class TestNewtonSteps:
    """Newton steps on 1/S from the secant start: exact in one step for equal
    weights, a few otherwise."""

    @staticmethod
    def interior_iterations(call):
        _, calls = chernoff_calls(call)
        assert calls and all(case == INTERIOR for *_, case in calls)
        return [res.iterations for *_, res, case in calls]

    @pytest.mark.parametrize("n", [1, 10, 100_000])
    @pytest.mark.parametrize("value", [0.3, 0.9, 2.0, 10.0])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_flat_sigma_at_most_two(self, n, value, frac):
        sigma = IntensityVector(np.full(n, value))
        lam = IntensityVector(np.full(n, 1.25 * value))
        lo, hi = signal_statistics(sigma).window
        A = lo + frac * (hi - lo)
        for call in (lambda: solve_u0(sigma, A), lambda: t0_solve(sigma, A),
                     lambda: beta_mismatch_upper(sigma, lam, A),
                     lambda: beta_lower_bound(sigma, A, K=1)):
            assert max(self.interior_iterations(call)) <= 2

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    def test_random_sigma_at_most_five(self, solve):
        _, sigma, lam, A = list(_pinned_interior_inputs())[-1]
        assert sigma.n == 100_000
        its = self.interior_iterations(lambda: SOLVES[solve](sigma, lam, A))
        assert max(its) <= 5


def mpmath_root(w, threshold, lo, hi, counts=None):
    """Root of sum c_i w_i/(1 + x w_i) = threshold in (lo, hi), to 40 digits."""
    with mpmath.workdps(40):
        c = np.ones_like(w) if counts is None else counts
        terms = [(mpmath.mpf(float(ci)), mpmath.mpf(float(wi)))
                 for ci, wi in zip(c, w)]
        T = mpmath.mpf(threshold)

        def h(x):
            return mpmath.fsum(ci * wi / (1 + x * wi) for ci, wi in terms) - T

        return float(mpmath.findroot(h, (mpmath.mpf(lo), mpmath.mpf(hi)),
                                     solver="anderson"))


class TestPinnedRootsMatchMpmath:
    """Every interior root of TestPinnedExponents at n <= 1000 and of the
    flat n = 1e5 sigma (u0, t0, v0 and the blockwise u1) is the root of its
    float inputs to 1e-14; the flat one is solved on one value and its
    count."""

    @staticmethod
    def pinned_calls():
        pins = TestPinnedExponents
        for name, rows in (("solve_u0", pins.U0), ("alpha_upper_bound", pins.ALPHA),
                           ("beta_mismatch_upper", pins.MISMATCH),
                           ("beta_lower_bound", pins.LOWER)):
            for n, A, _ in rows:
                if n == "1e5 flat" or isinstance(n, int) and n <= 1000:
                    sigma = pins.SIGMAS[n]
                    lam = IntensityVector(pins.LAMBDA_SCALE * sigma.values)
                    _, calls = chernoff_calls(lambda: SOLVES[name](sigma, lam, A))
                    yield from ((name, n, A, call) for call in calls)

    def test_interior_roots(self):
        checked = 0
        for name, n, A, (w, T, end, counts, res, case) in self.pinned_calls():
            if case != INTERIOR:
                continue
            c_sum = w.size if counts is None else float(np.sum(counts))
            lo, hi = sorted((0.0, 2.0 * c_sum / T if math.isinf(end) else end))
            want = mpmath_root(w, T, lo, hi, counts)
            assert res.root == pytest.approx(want, rel=1e-14), (name, n, A)
            checked += 1
            if n == "1e5 flat":
                assert w.size == 1 and counts is not None
        assert checked >= 22


class TestUpperBracket:
    """On [0, inf) the bracket ends at hi = 2 sum c/T: S(x) < sum c/x, so
    h(hi) = S(hi) - T < -T/2 < 0."""

    @staticmethod
    def bracket(w, threshold, counts=None):
        """chernoff_root's root on [0, inf) and the bracket it solved on."""
        seen = []
        real = exponents.solve_bracketed

        def spy(f, df, lo, hi, flo, fhi, start):
            seen.append((lo, hi, flo, fhi))
            return real(f, df, lo, hi, flo, fhi, start)

        with mock.patch.object(exponents, "solve_bracketed", spy):
            res, case = exponents.chernoff_root(w, threshold, math.inf, counts)
        assert case == INTERIOR and len(seen) == 1
        return res, seen[0]

    @given(
        arrays(np.float64, st.integers(1, 8), elements=st.floats(-300.0, 300.0)),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.floats(-3.0, -1e-9),
    )
    @settings(max_examples=200, deadline=None)
    def test_h_negative_at_hi(self, log_w, seed, blocks, log_frac):
        rng = np.random.default_rng(seed)
        w = 10.0 ** log_w
        w[rng.random(w.size) < 0.25] = 0.0  # zeros
        assume(np.any(w > 0))
        counts = rng.integers(1, 50, w.size).astype(float) if blocks else None
        c = np.ones_like(w) if counts is None else counts
        threshold = 10.0 ** log_frac * float(np.sum(c * w))
        res, (lo, hi, h_lo, h_hi) = self.bracket(w, threshold, counts)
        assert (lo, hi) == (0.0, 2.0 * float(np.sum(c)) / threshold)
        assert h_lo > 0.0 > h_hi
        assert 0.0 < res.root < hi

    @pytest.mark.parametrize("threshold", [1e-310, 0.0, -1.0])
    def test_unbracketable(self, threshold):
        # 2 sum c/T overflows, or T <= 0 < h: no sign change on [0, inf).
        with pytest.raises(InvalidInput, match="could not bracket"):
            exponents.chernoff_root(np.array([1e-300]), threshold, math.inf)


@st.composite
def vectors_with_repeats(draw, max_n=100_000):
    """A vector in which some value repeats: flat, two-valued, one-hot with
    zeros, or random values each drawn about four times."""
    n = draw(st.integers(3, max_n))
    kind = draw(st.sampled_from(["flat", "two_valued", "one_hot", "duplicated"]))
    scale = draw(st.floats(0.05, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "one_hot":
        values = np.zeros(n)
        values[rng.integers(n)] = scale
    elif kind == "duplicated":
        values = rng.choice(scale * rng.uniform(0.1, 3.0, max(1, n // 4)), n)
    else:
        values = np.full(n, scale)
        if kind == "two_valued":
            hot = rng.random(n) < rng.uniform(0.05, 0.95)
            hot[:2] = False  # scale occurs at least twice
            values[hot] = scale * rng.uniform(0.1, 3.0)
    return IntensityVector(values)


def _at_1e5():
    """One vector of each kind of ``vectors_with_repeats`` at n = 1e5."""
    one_hot = np.zeros(100_000)
    one_hot[17] = 3.0
    rng = np.random.default_rng(27)
    return [np.full(100_000, 0.9), np.r_[2.5, np.full(99_999, 0.5)], one_hot,
            rng.choice(rng.uniform(0.3, 1.5, 25_000), 100_000)]


AT_1E5 = [IntensityVector(v) for v in _at_1e5()]


def dense_twin(sigma):
    """sigma with its run form set to every value sorted and counts None, so
    that every exponent call on it sums over the dense arrays."""
    twin = IntensityVector(sigma.values)
    vars(twin)["runs"] = (np.sort(sigma.values), None)
    return twin


def close(got, want, scale=0.0, rel=1e-13):
    """got within rel of want, relative to the larger of the two and scale."""
    return abs(got - want) <= rel * max(abs(got), abs(want), scale)


def same_solution(got, want, sigma, A):
    """Two ExponentSolutions of one solve for sigma at level A agree: the
    case, the argmax and the exponent.  The exponent is compared relative to
    the sums D + |A| it is the difference of.  The argmax is compared
    relative to n/(D + A): at a root, h moves by the roundings of S and of
    the threshold T = D + A, about 1e-16 T, and |h'| >= S^2/n = T^2/n there
    (Cauchy-Schwarz), so a root is resolved to about 1e-16 n/T; for a flat
    sigma it is n/T - 1/w, a difference of two terms of that size."""
    return (got.boundary_case == want.boundary_case
            and close(got.argmax, want.argmax, sigma.n / (sigma.D + A))
            and close(got.value, want.value, sigma.D + abs(A)))


def dense_lhs(sigma, lam, A, mode, u, g_ref):
    """The lhs of ``sufficient_condition_check`` at u, summed over the dense
    arrays (NaN where a log argument is nonpositive), and the size of the
    terms it sums."""
    if mode == MODE_ASYMP1A:
        nu2, T = mismatch_profile(sigma, lam), sigma.D + A
        g_nu = max(exponents._exponent(nu2, T, u), exponents._exponent(nu2, T, 1.0))
        return g_ref - g_nu, abs(g_ref) + abs(g_nu) + T + float(np.sum(nu2))
    s2, l2 = sigma.squared, lam.squared
    args = 1.0 + sigma.r_squared * (u * (l2 - s2) / (1.0 + u * s2))
    if np.any(args <= 0):
        return math.nan, math.nan
    logs = np.log(args)
    return float(np.sum(logs)), float(np.sum(np.abs(logs)))


class TestRunForm:
    """A vector whose values repeat is solved on its distinct values with
    their counts.  Every entry point agrees within 1e-13 relative with the
    same call summed over the dense arrays; an exponent is compared relative
    to the sums D + |A| it is the difference of."""

    @staticmethod
    def level(sigma, frac):
        lo, hi = signal_statistics(sigma).window
        assume(lo < hi)
        return lo + frac * (hi - lo)

    @given(vectors_with_repeats(), st.floats(0.02, 0.98), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    @example(AT_1E5[0], 0.5, 0.5)
    @example(AT_1E5[1], 0.3, 1.0)
    @example(AT_1E5[2], 0.5, 0.1)
    @example(AT_1E5[3], 0.7, 0.5)
    def test_single_vector_entry_points(self, sigma, frac, u):
        assert sigma.runs[1] is not None
        dense = dense_twin(sigma)
        A = self.level(sigma, frac)
        scale = sigma.D + abs(A)
        assert same_solution(solve_u0(sigma, A), solve_u0(dense, A), sigma, A)
        (g, dg), (g_d, dg_d) = g_eval(sigma, A, u), g_eval(dense, A, u)
        assert close(g, g_d, scale) and close(dg, dg_d, scale)
        if A > -1400.0:  # exp(-A/2) overflows below -1419.6 (fault (f))
            (sol, bound, simple), (sol_d, bound_d, simple_d) = (
                alpha_upper_bound(sigma, A), alpha_upper_bound(dense, A))
            assert same_solution(sol, sol_d, sigma, A) and simple == simple_d
            assert close(bound, bound_d, rel=1e-13 * max(1.0, sol.value))
        if sigma.delta is not None:
            got, want = beta_lower_bound(sigma, A), beta_lower_bound(dense, A)
            assert same_solution(got.u0, want.u0, sigma, A)
            assert (got.K, got.u1, got.u1_residual, got.constructive_lower) == (
                want.K, want.u1, want.u1_residual, want.constructive_lower)
            assert close(got.interval.lower, want.interval.lower, scale)

    @given(vectors_with_repeats(), st.floats(0.05, 5.0), st.floats(0.02, 0.98))
    @settings(max_examples=60, deadline=None)
    @example(AT_1E5[0], 1.1, 0.5)
    @example(AT_1E5[1], 0.4, 0.3)
    @example(AT_1E5[2], 0.8, 0.5)
    @example(AT_1E5[3], 0.9, 0.7)
    def test_pair_entry_points(self, sigma, flat_value, frac):
        flat = IntensityVector(np.full(sigma.n, flat_value))
        scaled = IntensityVector(1.25 * sigma.values)
        for s, lam in ((sigma, flat), (flat, sigma), (sigma, scaled)):
            s_d, lam_d = dense_twin(s), dense_twin(lam)
            A = self.level(s, frac)
            scale = s.D + abs(A)
            (sol, bound), (sol_d, bound_d) = (beta_mismatch_upper(s, lam, A),
                                              beta_mismatch_upper(s_d, lam_d, A))
            assert same_solution(sol, sol_d, s, A)
            assert close(bound, bound_d, rel=1e-13 * max(1.0, sol.value))
            u0 = solve_u0(s, A)
            for mode in (MODE_EXACT_U0, MODE_U0_EQUALS_1, MODE_ASYMP1A):
                try:
                    got = sufficient_condition_check(s, lam, A, mode)
                except OutOfRegime:
                    assert u0.boundary_case != INTERIOR
                    continue
                # The dense sums at the same u0: how u0 itself may move is
                # same_solution's to check.
                u = 1.0 if mode == MODE_U0_EQUALS_1 else u0.argmax
                lhs, lhs_scale = dense_lhs(s, lam, A, mode, u, got.g_ref)
                assert got.violated == math.isnan(lhs)
                if not got.violated:
                    assert close(got.lhs, lhs, lhs_scale)
                if mode != MODE_U0_EQUALS_1:
                    assert close(got.g_ref, u0.value, scale)
            if s.delta is not None:
                got, want = bound_transfer(s, lam, A), bound_transfer(s_d, lam_d, A)
                assert got.applicable == want.applicable
                if got.applicable:
                    assert close(got.raw, want.raw, scale)

    @given(vectors_with_repeats(max_n=1000), st.floats(0.02, 0.98))
    @settings(max_examples=60, deadline=None)
    def test_exact_oracle(self, sigma, frac):
        A = self.level(sigma, frac)
        test = NpTest(sigma, A)

        def dense(w, upper):
            """The mixture over every positive weight, one row each, ascending."""
            return oracle._mixture_tail(np.sort(w[w > 0]), None, test.threshold, upper)

        try:
            want = dense(sigma.r_squared, True), dense(sigma.squared, False)
        except OutOfRegime:
            return
        got = np_test_exact_probs(test)
        # The dense mixture sums n rows of ln G per point and loses up to
        # 5.2e-14 of a tail at n = 1000 (its runs lose 4e-16 against
        # mpmath, ``test_two_valued_oracle_against_quadrature``).
        for g, w in zip(got, want):
            assert close(g, w) or abs(g - w) <= 1e-13

    @pytest.mark.parametrize("counts, values, A", [
        ((89, 911), (0.2703978, 0.5144711), 17.611624801375328),
        ((266, 734), (0.49061896, 1.55599777), 674.0557971964591),
        ((1, 99_999), (2.5, 0.5), 1.0),
    ])
    def test_two_valued_oracle_against_quadrature(self, counts, values, A):
        """beta = P(w_0 X + w_1 Y <= x) for X, Y chi-square with the counts
        as degrees of freedom, by quadrature over X at 30 digits.  The raw
        weights through ``weighted_chi2_cdf`` give the same bits."""
        sigma = IntensityVector(np.repeat(values, counts))
        test = NpTest(sigma, A)
        with mpmath.workdps(30):
            w0, w1 = (mpmath.mpf(v) ** 2 for v in values)
            k0, k1 = counts
            x = mpmath.mpf(test.threshold)

            def integrand(t):
                density = mpmath.exp((k0 / 2 - 1) * mpmath.log(t) - t / 2
                                     - mpmath.loggamma(k0 / 2) - k0 / 2 * mpmath.log(2))
                return density * mpmath.gammainc(k1 / 2, 0, (x - w0 * t) / (2 * w1),
                                                 regularized=True)

            top = x / w0
            knots = [0] + [p for p in (k0 / 2, k0, 2 * k0, 4 * k0) if p < top] + [top]
            want = float(mpmath.quad(integrand, knots))
        _, beta = np_test_exact_probs(test)
        assert abs(beta - want) <= 5e-15
        cdf = weighted_chi2_cdf(sigma.squared, test.threshold)
        assert abs(cdf - want) <= 5e-15
        assert cdf == beta

    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.floats(0.02, 0.98))
    @settings(max_examples=40, deadline=None)
    def test_all_distinct_solves_on_the_dense_arrays(self, n, seed, frac):
        """A vector with no repeated value takes the dense path: each root
        solve gets its cached arrays in their own order, without counts, so
        its outputs are those of the formulas on them bit for bit."""
        rng = np.random.default_rng(seed)
        sigma = IntensityVector(rng.uniform(0.3, 1.5, n))
        lam = IntensityVector(sigma.values * rng.uniform(0.95, 1.05, n))
        assume(sigma.runs[1] is None and lam.runs[1] is None)
        A = self.level(sigma, frac)
        T = sigma.D + A
        _maximize = exponents._maximize
        assert repr(solve_u0(sigma, A)) == repr(_maximize(sigma.squared, T, 1.0))
        assert repr(alpha_upper_bound(sigma, A)[0]) == repr(
            _maximize(sigma.r_squared, T, -1.0))
        assert repr(beta_mismatch_upper(sigma, lam, A)[0]) == repr(
            _maximize(mismatch_profile(sigma, lam), T, math.inf))
        res, calls = chernoff_calls(lambda: beta_lower_bound(sigma, A))
        w, _, _, counts, _, _ = calls[0]
        assert w is sigma.squared and counts is None
        heads = np.concatenate(([0], np.cumsum(exponents._block_sizes(n, res.K))[:-1]))
        assert np.array_equal(calls[1][0], np.sort(sigma.squared)[::-1][heads])

    @given(st.one_of(vectors_with_repeats(), st.builds(
               lambda n, seed: IntensityVector(
                   np.random.default_rng(seed).uniform(0.3, 1.5, n)),
               st.integers(1, 100_000), st.integers(0, 2**32 - 1))),
           st.floats(0.02, 0.98))
    @settings(max_examples=60, deadline=None)
    @example(AT_1E5[0], 0.5)
    @example(AT_1E5[1], 0.3)
    @example(AT_1E5[2], 0.5)
    @example(AT_1E5[3], 0.7)
    @example(IntensityVector(np.random.default_rng(5).uniform(0.3, 1.5, 100_000)), 0.4)
    def test_lower_bound_takes_u0_from_solve_u0(self, sigma, frac):
        """beta_lower_bound's u0 is solve_u0's, bit for bit: flat, repeated
        and all-distinct values alike.  A vector with a zero has no delta, so
        it has no sandwich, while its u0 is still solved."""
        A = self.level(sigma, frac)
        u0 = solve_u0(sigma, A)
        if sigma.delta is None:
            with pytest.raises(InvalidInput, match="delta undefined"):
                beta_lower_bound(sigma, A)
        elif u0.boundary_case != INTERIOR:
            with pytest.raises(OutOfRegime):
                beta_lower_bound(sigma, A)
        else:
            assert repr(beta_lower_bound(sigma, A).u0) == repr(u0)

    @pytest.mark.parametrize("values", [
        np.full(50, 0.8), np.repeat(np.linspace(0.3, 1.5, 10), 5),
        np.linspace(0.3, 1.5, 50)], ids=["flat", "repeats", "distinct"])
    def test_miss_solves_make_no_null_weights(self, values):
        """The miss exponent reads sigma^2 alone, so its entry points leave
        the null weights sigma^2/(1+sigma^2) of every vector unmade."""
        A = sum(signal_statistics(IntensityVector(values)).window) / 2  # on a twin
        sigma, lam = IntensityVector(values), IntensityVector(1.1 * values)
        g_eval(sigma, A, 0.5)
        beta_upper_bound(sigma, A)
        beta_lower_bound(sigma, A)
        bound_transfer(sigma, lam, A)
        assert "r_squared" not in vars(sigma) and "r_squared" not in vars(lam)


def t0(sigma, A):
    """alpha_upper_bound's t0 solution; below A = -1400, where its simple
    bound exp(-A/2) overflows, the same solve by the calls it makes."""
    if A > -1400.0:
        return alpha_upper_bound(sigma, A)[0]
    r2, counts, kept = exponents._fixed_bracket(sigma, -1.0)
    return exponents._maximize(r2, sigma.D + A, -1.0, counts, kept)


class TestBracketSums:
    """The u0 and t0 solves keep S at their bracket ends on the vector
    (``IntensityVector.bracket_sums``), whatever the level: a solve on a
    vector that keeps them gives the bits of the same solve on a fresh copy.
    S(end) is made only when a solve gets past the test at 0."""

    @pytest.mark.parametrize("where", ["above", "below"])
    def test_at_zero_sums_only_at_zero(self, where):
        sigma = IntensityVector(np.linspace(0.3, 1.5, 1000))
        A = self.level(sigma, where)
        solve, end = (solve_u0, 1.0) if where == "above" else (t0, -1.0)
        assert solve(sigma, A).boundary_case == AT_ZERO
        assert sigma.bracket_sums == {end: {0.0: sigma.bracket_sums[end][0.0]}}

    @staticmethod
    def level(sigma, where):
        lo, hi = signal_statistics(sigma).window
        if where == "below":
            return lo - 1.0 - 0.5 * abs(lo)
        if where == "above":
            return hi + 1.0 + 0.5 * abs(hi)
        return lo + where * (hi - lo)

    @staticmethod
    def outcome(call):
        try:
            return repr(call())
        except (InvalidInput, OutOfRegime) as exc:
            return f"{type(exc).__name__}: {exc}"

    levels = st.one_of(st.floats(0.0, 1.0), st.sampled_from(["below", "above"]))

    @given(st.one_of(vectors_with_repeats(), sigmas_up_to_2000(), st.builds(
               lambda n, seed: IntensityVector(
                   np.random.default_rng(seed).uniform(0.3, 1.5, n)),
               st.integers(1, 100_000), st.integers(0, 2**32 - 1))),
           levels, levels)
    @settings(max_examples=60, deadline=None)
    @example(AT_1E5[1], 0.5, "below")
    @example(AT_1E5[2], "above", 0.3)
    @example(IntensityVector(np.random.default_rng(6).uniform(0.3, 1.5, 100_000)),
             0.4, 0.6)
    def test_kept_sums_give_the_bits_of_a_fresh_vector(self, sigma, first, second):
        solves = {"u0": solve_u0, "t0": t0, "lower": beta_lower_bound}
        A = self.level(sigma, first)
        for solve in solves.values():
            self.outcome(lambda: solve(sigma, A))
        kept = sigma.bracket_sums
        assert kept.keys() == {1.0, -1.0}
        assert {0.0} <= kept[1.0].keys() <= {0.0, 1.0}
        assert {0.0} <= kept[-1.0].keys() <= {0.0, -1.0}
        A = self.level(sigma, second)
        for name, solve in solves.items():
            fresh = IntensityVector(sigma.values)
            assert self.outcome(lambda: solve(sigma, A)) == self.outcome(
                lambda: solve(fresh, A)), name
