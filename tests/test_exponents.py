"""Unit tests for the Chernoff exponents and large-deviation bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gausdet import (
    IntensityVector,
    NpTest,
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
)
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
        prof = mismatch_profile(sigma, lam)
        np.testing.assert_allclose(prof.nu_squared, [2.0, 2.0], rtol=1e-14)

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
            nu2 = mismatch_profile(sigma, lam).nu_squared
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
    endpoint case and the interior root are covered at n = 1, 7 and 1000.
    Values are compared through repr, so even the sign of a zero counts:
    any change to a solver's bracket, iteration or evaluation order shows
    here.
    """

    SIGMAS = {
        1: IntensityVector([0.8]),
        7: IntensityVector(np.linspace(0.3, 2.1, 7)),
        1000: IntensityVector(np.linspace(0.2, 1.5, 1000)),
    }
    LAMBDA_SCALE = 1.25

    # (n, A, expected); an ExponentSolution is written as its astuple.
    U0 = [
        (1, -0.6044523393970826, (1.0, 0.3022261696985413, 0.25, 0, 'at_one')),
        (1, 0.020425709383405183, (0.3787878787878786, 0.01097127700915769, 0.0, 5, 'interior')),
        (1, 0.645303758163893, (0.0, 0.0, -0.25, 0, 'at_zero')),
        (1, 0.7857915630419419, (0.0, 0.0, -0.32024390243902445, 0, 'at_zero')),
        (7, -3.0338864505875085, (1.0, 1.5169432252937542, 0.25, 0, 'at_one')),
        (7, 1.9378294551983655, (0.1979542735324886, 0.1842160633398423, 0.0, 8, 'interior')),
        (7, 6.909545360984239, (0.0, 0.0, -0.25, 0, 'at_zero')),
        (7, 11.940225754993351, (0.0, 0.0, -2.765340197004556, 0, 'at_zero')),
        (1000, -166.98708957533552, (1.0, 83.49354478766776, 0.25, 0, 'at_one')),
        (1000, 67.41200421800937, (0.2905835450037046, 14.91656625904487, 0.0, 6, 'interior')),
        (1000, 301.81109801135426, (0.0, 0.0, -0.25, 0, 'at_zero')),
        (1000, 564.9475785288674, (0.0, 0.0, -131.8182402587566, 0, 'at_zero')),
    ]
    ALPHA = [
        (1, -0.6044523393970826, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0, 1.3528671696705954)),
        (1, 0.020425709383405183, ((0.6212121212121214, 0.021184131700860254, 0.0, 5, 'interior'), 0.9790386759149364, 0.9898391194235971)),
        (1, 0.645303758163893, ((1.0, 0.3226518790819465, 0.24999999999999994, 0, 'at_one'), 0.7242259286843701, 0.7242259286843701)),
        (1, 0.7857915630419419, ((1.0, 0.39289578152097093, 0.3202439024390244, 0, 'at_one'), 0.6750991017215443, 0.6750991017215443)),
        (7, -3.0338864505875085, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0, 4.558270272208198)),
        (7, 1.9378294551983655, ((0.8020457264675114, 1.1531307909390245, 0.0, 9, 'interior'), 0.3156469960456787, 0.3794946697881216)),
        (7, 6.909545360984239, ((1.0, 3.4547726804921193, 0.2499999999999991, 0, 'at_one'), 0.03159448558275783, 0.03159448558275781)),
        (7, 11.940225754993351, ((1.0, 5.970112877496675, 2.765340197004555, 0, 'at_one'), 0.002553953118887322, 0.00255395311888732)),
        (1000, -166.98708957533552, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0, 1.822996252254179e+36)),
        (1000, 67.41200421800937, ((0.7094164549962955, 48.62256836804957, 0.0, 6, 'interior'), 7.646925547314872e-22, 2.2996898957402976e-15)),
        (1000, 301.81109801135426, ((1.0, 150.90554900567713, 0.25, 0, 'at_one'), 2.9010337295156646e-66, 2.9010337295156646e-66)),
        (1000, 564.9475785288674, ((1.0, 282.4737892644337, 131.8182402587566, 0, 'at_one'), 2.1047089127307367e-123, 2.1047089127307367e-123)),
    ]
    MISMATCH = [
        (1, 0.020425709383405183, ((0.6600378787878787, 0.03775772198083288, 0.0, 5, 'interior'), 0.9629462133327966)),
        (1, 0.645303758163893, ((0.0, 0.0, -0.1797560975609756, 0, 'at_zero'), 1.0)),
        (1, 0.7857915630419419, ((0.0, 0.0, -0.25000000000000006, 0, 'at_zero'), 1.0)),
        (7, 1.9378294551983655, ((0.30553100387551996, 0.5171485760987165, -8.881784197001252e-16, 7, 'interior'), 0.5962181972791438)),
        (7, 6.909545360984239, ((0.08312281714822217, 0.08329938167507567, -8.881784197001252e-16, 8, 'interior'), 0.9200756521931511)),
        (7, 11.940225754993351, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0)),
        (1000, 67.41200421800937, ((0.47369804108777125, 45.84173474014639, 0.0, 5, 'interior'), 1.2336374969614808e-20)),
        (1000, 301.81109801135426, ((0.17205390855986963, 10.12335002298282, 0.0, 7, 'interior'), 4.013145878021019e-05)),
        (1000, 564.9475785288674, ((0.0, 0.0, -0.25, 0, 'at_zero'), 1.0)),
    ]
    LOWER = [
        (1, 0.020425709383405183, (-1.1557011628585578, -0.01097127700915769, -0.9166695532671911, (0.3787878787878786, 0.01097127700915769, 0.0, 5, 'interior'), 0.3787878787878786, 0.0, 1)),
        (7, 1.9378294551983655, (-12.45077618039264, -0.1842160633398423, -3.911683987835346, (0.1979542735324886, 0.1842160633398423, 0.0, 8, 'interior'), 0.31801736091161154, 0.0, 3)),
        (1000, 67.41200421800937, (-203.10775732291876, -14.91656625904487, -75.55636775124222, (0.2905835450037046, 14.91656625904487, 0.0, 6, 'interior'), 0.34236126986443455, -1.1368683772161603e-13, 22)),
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
