"""Unit tests for Monte Carlo machinery and the exact distribution oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, ndtr
from scipy.stats import chi2

from gausdet import (
    BayesTest,
    Box,
    DiscretePrior,
    Ellipsoid,
    FinitePoints,
    GlrtTest,
    IntensityVector,
    NpTest,
    estimate_error_probs,
    example3_experiment,
    lemma1_check,
    np_test_exact_probs,
    signal_statistics,
    weighted_chi2_cdf,
)
from gausdet.errors import DimensionMismatch, InvalidInput
from gausdet.simulate import (
    MonteCarloEstimate,
    _imhof_cdf,
    _ruben_cdf,
    _shard_plan,
    _shard_rows,
    shard_stream,
)


class TestMonteCarloEstimate:
    def test_from_counts(self):
        est = MonteCarloEstimate.from_counts(250, 1000, seed=7)
        assert est.p_hat == 0.25
        assert est.stderr == pytest.approx(
            math.sqrt(0.25 * 0.75 / 1000), rel=1e-12
        )
        assert est.samples == 1000 and est.seed == 7


class TestSharding:
    def test_stream_determinism(self):
        a = shard_stream(42, 0).standard_normal(10)
        b = shard_stream(42, 0).standard_normal(10)
        c = shard_stream(42, 1).standard_normal(10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_validation(self):
        with pytest.raises(InvalidInput):
            shard_stream(-1, 0)
        with pytest.raises(InvalidInput):
            shard_stream(2**64, 0)

    def test_shard_rows_depend_only_on_dimension(self):
        assert _shard_rows(1) == 4_000_000
        assert _shard_rows(10_000) == 400
        assert _shard_rows(10**8) == 1

    def test_shard_plan_covers_samples(self):
        plan = list(_shard_plan(10_500, 1000))
        assert sum(take for _, take in plan) == 10_500
        assert [shard for shard, _ in plan] == list(range(len(plan)))


class TestEstimateErrorProbs:
    def test_reproducible(self):
        test = NpTest(IntensityVector([1.0, 1.0]), A=0.0)
        a = estimate_error_probs(test, None, samples=5000, seed=3)
        b = estimate_error_probs(test, None, samples=5000, seed=3)
        assert a.p_hat == b.p_hat
        c = estimate_error_probs(test, None, samples=5000, seed=4)
        assert a.p_hat != c.p_hat  # different seed, different draws

    def test_sample_floor(self):
        test = NpTest(IntensityVector([1.0]), A=0.0)
        with pytest.raises(InvalidInput):
            estimate_error_probs(test, None, samples=10)

    def test_dimension_mismatch(self):
        test = NpTest(IntensityVector([1.0, 1.0]), A=0.0)
        with pytest.raises(DimensionMismatch):
            estimate_error_probs(test, IntensityVector([1.0]), samples=2000)

    def test_matches_exact_probs(self):
        sigma = IntensityVector([1.0, 0.5, 1.5])
        test = NpTest(sigma, A=0.2)
        alpha, beta = np_test_exact_probs(test)
        est_a = estimate_error_probs(test, None, samples=60_000, seed=1)
        est_b = estimate_error_probs(test, sigma, samples=60_000, seed=2)
        assert abs(est_a.p_hat - alpha) <= 4.0 * est_a.stderr
        assert abs(est_b.p_hat - beta) <= 4.0 * est_b.stderr

    def test_mismatched_true_intensity(self):
        # A stronger true signal must be missed no more often.
        sigma = IntensityVector([1.0, 1.0])
        test = NpTest(sigma, A=0.0)
        weak = estimate_error_probs(test, sigma, samples=50_000, seed=5)
        strong = estimate_error_probs(
            test, IntensityVector([3.0, 3.0]), samples=50_000, seed=5
        )
        assert strong.p_hat <= weak.p_hat


class TestWeightedChi2Cdf:
    def test_input_validation(self):
        with pytest.raises(InvalidInput):
            weighted_chi2_cdf([-1.0], 1.0)
        with pytest.raises(InvalidInput):
            weighted_chi2_cdf([1.0], -1.0)

    def test_degenerate_cases(self):
        assert weighted_chi2_cdf([0.0, 0.0], 1.0) == 1.0
        assert weighted_chi2_cdf([1.0], 0.0) == 0.0

    def test_zero_weights_dropped(self):
        assert weighted_chi2_cdf([0.0, 2.0], 1.5) == pytest.approx(
            weighted_chi2_cdf([2.0], 1.5), rel=1e-12
        )

    def test_equal_weights_match_gamma(self):
        for n in (1, 2, 5, 10):
            for x in (0.5, 2.0, 7.0):
                got = weighted_chi2_cdf(np.full(n, 1.7), x)
                want = float(gammainc(n / 2.0, x / (2.0 * 1.7)))
                assert got == pytest.approx(want, rel=1e-12)

    def test_single_weight_matches_normal(self):
        got = weighted_chi2_cdf([2.5], 3.0)
        want = 2.0 * float(ndtr(math.sqrt(3.0 / 2.5))) - 1.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_ruben_base_case_matches_gamma(self):
        # Equal weights collapse the mixture to its leading term.
        for n in (2, 4, 8):
            for x in (1.0, 4.0, 10.0):
                got = _ruben_cdf(np.full(n, 1.0), x)
                want = float(gammainc(n / 2.0, x / 2.0))
                assert got == pytest.approx(want, abs=1e-12)

    def test_ruben_agrees_with_imhof(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            w = rng.uniform(0.3, 3.0, size=4)
            x = rng.uniform(0.5, 12.0)
            assert _ruben_cdf(w, x) == pytest.approx(
                _imhof_cdf(w, x), abs=1e-6
            )

    def test_ruben_high_accuracy_two_weights(self):
        # Series vs the regularized gamma at a rational weight ratio where
        # an exact reference is available by symmetry of the two branches.
        got = _ruben_cdf(np.array([1.0, 1.0 + 1e-9]), 3.0)
        want = float(gammainc(1.0, 1.5))
        assert got == pytest.approx(want, abs=1e-8)

    def test_imhof_matches_gamma_on_equal_weights(self):
        # The inversion integral is only the wide-spread fallback; its
        # slowly decaying oscillatory tail limits it to ~1e-4 at n = 2.
        for n in (2, 4, 8):
            for x in (1.0, 4.0, 10.0):
                got = _imhof_cdf(np.full(n, 1.0), x)
                want = float(gammainc(n / 2.0, x / 2.0))
                assert got == pytest.approx(want, abs=1e-4)

    def test_imhof_matches_convolution_oracle(self):
        # Two weights: F(x) = E[F1((x - w2 Z)/1)] with Z ~ chi2_1.
        w1, w2 = 1.0, 2.5

        def oracle(x):
            def integrand(t):
                return chi2.pdf(t, 1) * float(
                    gammainc(0.5, max(x - w2 * t, 0.0) / (2.0 * w1))
                )

            val, _ = quad(integrand, 0.0, x / w2, limit=500)
            return val

        for x in (0.5, 2.0, 6.0):
            got = weighted_chi2_cdf([w1, w2], x)
            assert got == pytest.approx(oracle(x), abs=1e-8)

    @given(
        st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5),
        st.floats(0.1, 10.0),
        st.floats(1.01, 2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_x(self, weights, x, factor):
        assert weighted_chi2_cdf(weights, x * factor) >= weighted_chi2_cdf(
            weights, x
        ) - 1e-12


class TestNpTestExactProbs:
    def test_one_dimensional_closed_form(self):
        sigma = IntensityVector([1.0])
        test = NpTest(sigma, A=0.3)
        alpha, beta = np_test_exact_probs(test)
        thr = test.threshold
        # alpha: P(0.5 xi^2 > thr); beta: P(xi^2 < thr).
        assert alpha == pytest.approx(
            2.0 * float(ndtr(-math.sqrt(2.0 * thr))), rel=1e-10
        )
        assert beta == pytest.approx(
            2.0 * float(ndtr(math.sqrt(thr))) - 1.0, rel=1e-10
        )

    def test_alpha_beta_tradeoff(self):
        # Raising the level lowers alpha and raises beta.
        sigma = IntensityVector([1.0, 1.0, 1.0])
        a1, b1 = np_test_exact_probs(NpTest(sigma, A=-0.5))
        a2, b2 = np_test_exact_probs(NpTest(sigma, A=0.5))
        assert a2 < a1
        assert b2 > b1

    def test_tiny_alpha_on_flat_sigma(self):
        # Flat sigma = 1, n = 50, A = 60: alpha = Q(25, thr) is about
        # 4.475e-18, far below the rounding of 1 - cdf.
        test = NpTest(IntensityVector(np.ones(50)), A=60.0)
        alpha, _ = np_test_exact_probs(test)
        want = float(gammaincc(25.0, test.threshold))
        assert want == pytest.approx(4.475e-18, rel=1e-3, abs=0.0)
        assert alpha == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_tiny_alpha_with_one_weight(self):
        # alpha = P(r^2 xi^2 > thr) = Q(1/2, thr / (2 r^2)), far below 1e-16.
        sigma = IntensityVector([2.0])
        test = NpTest(sigma, A=80.0)
        alpha, _ = np_test_exact_probs(test)
        want = float(gammaincc(0.5, test.threshold / (2.0 * sigma.r_squared[0])))
        assert 0.0 < want < 1e-20
        assert alpha == pytest.approx(want, rel=1e-10, abs=0.0)


class TestRegions:
    def test_box_validation_and_contains(self):
        with pytest.raises(InvalidInput):
            Box(np.array([1.0, -1.0]))
        box = Box(np.array([1.0, 2.0]))
        got = box.contains(np.array([[0.5, 1.5], [1.5, 0.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(got, [True, False, True])

    def test_ellipsoid_validation_and_contains(self):
        with pytest.raises(InvalidInput):
            Ellipsoid(np.array([1.0]), -1.0)
        ell = Ellipsoid(np.array([1.0, 4.0]), 4.0)
        got = ell.contains(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.1]]))
        np.testing.assert_array_equal(got, [True, True, False])


class TestLemma1Check:
    def test_holds_on_box(self):
        res = lemma1_check(
            Box(np.ones(2)), np.ones(2), np.ones(2), samples=30_000, seed=1
        )
        assert res.holds
        assert res.p_sum.p_hat <= res.p_xi.p_hat

    def test_matches_closed_form_2d_box(self):
        res = lemma1_check(
            Box(np.ones(2)), np.ones(2), np.ones(2), samples=80_000, seed=2
        )
        want_sum = (2.0 * float(ndtr(1.0 / math.sqrt(2.0))) - 1.0) ** 2
        want_xi = (2.0 * float(ndtr(1.0)) - 1.0) ** 2
        assert abs(res.p_sum.p_hat - want_sum) <= 4.0 * res.p_sum.stderr
        assert abs(res.p_xi.p_hat - want_xi) <= 4.0 * res.p_xi.stderr

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            lemma1_check(Box(np.ones(2)), np.ones(3), np.ones(2), samples=2000)
        with pytest.raises(InvalidInput):
            lemma1_check(Box(np.ones(2)), np.ones(2), np.ones(2), samples=10)


class TestExample3:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            example3_experiment(1, 1.0, samples=2000)
        with pytest.raises(InvalidInput):
            example3_experiment(10, 0.0, samples=2000)
        with pytest.raises(InvalidInput):
            example3_experiment(10, 1.0, samples=10)
        with pytest.raises(DimensionMismatch):
            example3_experiment(
                10, 1.0, samples=2000, probe_lambda=IntensityVector([1.0])
            )

    def test_level_and_threshold_formulas(self):
        rep = example3_experiment(50, 1.0, samples=2000, seed=1)
        nr2 = 50.0
        assert rep.A == pytest.approx(2.0 * math.log(50.0) - math.log(51.0))
        assert rep.threshold == pytest.approx(
            51.0 * (math.log(51.0) + rep.A) / 50.0
        )
        assert rep.alpha_bound == pytest.approx(
            1.0 / math.sqrt(2.0 * math.log(50.0))
        )
        assert rep.beta_bound == pytest.approx(
            math.sqrt(2.0 * math.log(50.0)) / math.sqrt(50.0)
        )
        assert rep.beta_lambda is None and rep.log_ratio is None

    def test_predictor_matches_monte_carlo(self):
        rep = example3_experiment(50, 1.0, samples=60_000, seed=3)
        assert abs(rep.beta_sigma1.p_hat - rep.beta_predictor) <= (
            4.0 * rep.beta_sigma1.stderr
        )

    def test_alpha_matches_max_statistic_law(self):
        # Under noise: P(reject) = 1 - P(max xi_i^2 <= thr) = 1 - F^n.
        rep = example3_experiment(50, 1.0, samples=60_000, seed=4)
        per = 2.0 * float(ndtr(math.sqrt(rep.threshold))) - 1.0
        want = 1.0 - per**50
        assert abs(rep.alpha.p_hat - want) <= 4.0 * rep.alpha.stderr

    def test_probe_lambda_reported(self):
        probe = IntensityVector(np.full(50, 1.0))
        rep = example3_experiment(50, 1.0, samples=20_000, seed=5,
                                  probe_lambda=probe)
        assert rep.beta_lambda is not None
        assert rep.log_ratio == pytest.approx(
            math.log(rep.beta_lambda.p_hat) / math.log(rep.beta_sigma1.p_hat)
        )

    def test_deterministic_for_seed(self):
        a = example3_experiment(30, 1.0, samples=5000, seed=9)
        b = example3_experiment(30, 1.0, samples=5000, seed=9)
        assert a.alpha.p_hat == b.alpha.p_hat
        assert a.beta_sigma1.p_hat == b.beta_sigma1.p_hat


class TestPinnedStreams:
    """Monte Carlo outputs at fixed seeds, pinned to exact values.

    Any change to the Philox streams, the shard plan or a decision rule's
    arithmetic that flips a single sample shows here.
    """

    SIGMA = IntensityVector([0.5, 1.0, 1.5, 2.0])
    FLAT = tuple(IntensityVector(np.full(6, s)) for s in (0.6, 3.0, 1.2))

    def test_np(self):
        test = NpTest(self.SIGMA, 0.3)
        assert estimate_error_probs(test, None, 20_000, 7).p_hat == 0.12655
        assert estimate_error_probs(test, self.SIGMA, 20_000, 7).p_hat == 0.36585

    def test_np_over_three_shards(self):
        sigma = IntensityVector(np.linspace(0.2, 1.2, 500))
        stats = signal_statistics(sigma)
        test = NpTest(sigma, stats.T - stats.D + stats.B**0.5)
        assert _shard_rows(500) * 2 < 20_000
        assert estimate_error_probs(test, None, 20_000, 5).p_hat == 0.16205

    def test_bayes(self):
        prior = DiscretePrior(self.FLAT, np.array([0.5, 0.0, 0.5]))
        test = BayesTest(prior, 0.4)
        assert estimate_error_probs(test, None, 20_000, 3).p_hat == 0.1126
        assert estimate_error_probs(test, self.FLAT[0], 20_000, 3).p_hat == 0.7331
        prior2 = DiscretePrior(
            (
                IntensityVector(np.linspace(0.1, 2, 6)),
                IntensityVector(np.linspace(2, 0.1, 6)),
            ),
            np.array([0.3, 0.7]),
        )
        test2 = BayesTest(prior2, 0.0)
        assert estimate_error_probs(test2, None, 20_000, 9).p_hat == 0.158

    def test_glrt(self):
        test = GlrtTest(FinitePoints(self.FLAT), np.array([0.5, 1.0, -0.2]))
        assert estimate_error_probs(test, None, 20_000, 4).p_hat == 0.19015
        assert estimate_error_probs(test, self.FLAT[2], 20_000, 4).p_hat == 0.27025

    def test_example3(self):
        probe = np.zeros(50)
        probe[[3, 17]] = 5.0
        rep = example3_experiment(50, 1.0, 5_000, 11, IntensityVector(probe))
        assert rep.alpha.p_hat == 0.2108
        assert rep.beta_sigma1.p_hat == 0.2508
        assert rep.beta_lambda.p_hat == 0.1366

    def test_lemma1(self):
        box = lemma1_check(
            Box(np.array([1.0, 0.5, 2.0])), [1, 1, 1], [0.5, 0.2, 1.0], 20_000, 2
        )
        assert (box.p_sum.p_hat, box.p_xi.p_hat) == (0.2016, 0.25205)
        ell = lemma1_check(
            Ellipsoid(np.array([1.0, 2.0]), 1.5), [1, 0.5], [0.3, 0.3], 20_000, 6
        )
        assert (ell.p_sum.p_hat, ell.p_xi.p_hat) == (0.57345, 0.6433)
