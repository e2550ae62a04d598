"""Unit tests for Monte Carlo machinery and the exact distribution oracles."""

import math
import threading
import time

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
    simulate,
    weighted_chi2_cdf,
)
from gausdet.errors import DimensionMismatch, InvalidInput, OutOfRegime
from gausdet.simulate import (
    MonteCarloEstimate,
    _shard_counts,
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

    @pytest.mark.parametrize(
        "weights, x",
        [([1.0, math.nan], 1.0), ([1.0], math.nan), ([1.0, 2.0], math.nan),
         ([1.0, math.inf], 1.0), ([1.0, 2.0], math.inf)],
    )
    def test_non_finite_input_rejected(self, weights, x):
        with pytest.raises(InvalidInput):
            weighted_chi2_cdf(weights, x)

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
        # Equal weights collapse the Ruben mixture to its leading term.
        for n in (2, 4, 8):
            for x in (1.0, 4.0, 10.0):
                got = weighted_chi2_cdf(np.full(n, 1.0), x)
                want = float(gammainc(n / 2.0, x / 2.0))
                assert got == pytest.approx(want, rel=1e-12)

    # Absolute error bound stated in the weighted_chi2_cdf docstring.
    BOUND = 5e-15

    def test_four_weights_match_mpmath(self):
        # 40-digit mpmath Ruben sums, unassigned mass below 1e-22.
        cases = [
            ([2.738563889470123, 0.4827313083764094, 2.1163731980709835,
              1.575870706143939], 8.290419434796355,
             0.69770523370184885431, 0.30229476629815114569),
            ([0.4070767487824595, 0.43826946739542205, 0.7766313759287795,
              2.942408077978048], 3.9748219143288557,
             0.59147394013822006403, 0.40852605986177993597),
            ([1.893750658309162, 2.9563423069456194, 2.203731770132567,
              0.8670911669985808], 5.380500616874386,
             0.41306056499991479529, 0.58693943500008520471),
            ([0.5801057620820431, 1.0691141668655095, 1.116012734061409,
              0.3521615981560138], 10.18839606192631,
             0.98328556597409977136, 0.016714434025900228639),
            ([2.7216463768792956, 1.6975252318415623, 2.0155979976830234,
              1.907374126419141], 8.10386362794603,
             0.58148559420443832811, 0.41851440579556167189),
        ]
        for weights, x, lower, upper in cases:
            assert abs(weighted_chi2_cdf(weights, x) - lower) <= self.BOUND
            got = simulate._weighted_chi2(weights, x, upper=True)
            assert abs(got - upper) <= self.BOUND

    def test_ruben_high_accuracy_two_weights(self):
        # Series vs the regularized gamma at a rational weight ratio where
        # an exact reference is available by symmetry of the two branches.
        got = weighted_chi2_cdf(np.array([1.0, 1.0 + 1e-9]), 3.0)
        want = float(gammainc(1.0, 1.5))
        assert got == pytest.approx(want, abs=1e-8)

    def test_near_equal_weights_tiny_cdf(self):
        # The mixture's truncation slack is not returned as the value: the
        # mpmath reference is 3.3517008578336033e-37.
        got = weighted_chi2_cdf(np.linspace(1.0, 1.001, 200), 40.0)
        assert got == pytest.approx(3.3517008578336033e-37, rel=1e-12, abs=0.0)

    def test_spread_1e2_at_the_mean(self):
        w = np.geomspace(1.0, 1e2, 10)
        got = weighted_chi2_cdf(w, float(w.sum()))
        assert abs(got - 0.6138129711722379) <= self.BOUND

    @pytest.mark.parametrize(
        "n, spread, seed, want",
        [(100, 1e4, 41, 0.55282), (1000, 1e2, 43, 0.51202)],
    )
    def test_wide_spread_at_the_mean(self, n, spread, seed, want):
        w = np.geomspace(1.0, spread, n)
        x = float(w.sum())
        got = weighted_chi2_cdf(w, x)
        assert got == pytest.approx(want, abs=1e-5)
        # Monotone bracket: every weight at max w, or at min w.
        assert float(gammainc(n / 2.0, x / (2.0 * spread))) <= got
        assert got <= float(gammainc(n / 2.0, x / 2.0))
        rng, samples, hits = np.random.default_rng(seed), 200_000, 0
        for _ in range(samples // 2_000):
            xi = rng.standard_normal((2_000, n))
            hits += int(np.count_nonzero((xi * xi) @ w <= x))
        p = hits / samples
        assert abs(p - got) <= 4.0 * math.sqrt(p * (1.0 - p) / samples)

    def test_too_wide_spread_out_of_regime(self):
        w = np.geomspace(1.0, 1e4, 1000)
        with pytest.raises(OutOfRegime):
            weighted_chi2_cdf(w, float(w.sum()))
        s2 = w * 3.0 * math.sqrt(1000) / w.sum()
        with pytest.raises(OutOfRegime):
            np_test_exact_probs(NpTest(IntensityVector(np.sqrt(s2)), A=0.0))

    @given(
        st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8),
        st.floats(0.01, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_tails_sum_to_one(self, log10_weights, x_over_mean):
        w = 10.0 ** np.array(log10_weights)
        x = x_over_mean * float(w.sum())
        lower = weighted_chi2_cdf(w, x)
        upper = simulate._weighted_chi2(w, x, upper=True)
        assert abs(lower + upper - 1.0) <= 2.0 * self.BOUND

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

    def test_zero_probe_misses_exactly_the_accepted_noise_draws(self):
        # lambda = 0 is pure noise: on shared draws the probe's acceptances
        # are exactly the draws that the false alarm does not count.
        rep = example3_experiment(40, 1.0, samples=3000, seed=2,
                                  probe_lambda=IntensityVector(np.zeros(40)))
        hits = (rep.alpha.p_hat + rep.beta_lambda.p_hat) * rep.alpha.samples
        assert hits == rep.alpha.samples

    def test_probe_at_the_design_point_reproduces_its_miss(self):
        probe = np.zeros(64)
        probe[0] = math.sqrt(64)  # R sqrt(n), with R = 1: squares to n R^2 exactly
        rep = example3_experiment(64, 1.0, samples=3000, seed=6,
                                  probe_lambda=IntensityVector(probe))
        assert rep.beta_lambda.p_hat == rep.beta_sigma1.p_hat

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
        assert rep.beta_sigma1.p_hat == 0.2462
        assert rep.beta_lambda.p_hat == 0.1466

    def test_lemma1(self):
        box = lemma1_check(
            Box(np.array([1.0, 0.5, 2.0])), [1, 1, 1], [0.5, 0.2, 1.0], 20_000, 2
        )
        assert (box.p_sum.p_hat, box.p_xi.p_hat) == (0.2016, 0.25205)
        ell = lemma1_check(
            Ellipsoid(np.array([1.0, 2.0]), 1.5), [1, 0.5], [0.3, 0.3], 20_000, 6
        )
        assert (ell.p_sum.p_hat, ell.p_xi.p_hat) == (0.57345, 0.6433)

    def test_example3_over_three_shards(self):
        n = 2000
        assert 2 * _shard_rows(n) < 5_000 <= 3 * _shard_rows(n)
        probe = np.zeros(n)
        probe[[5, 1234]] = math.sqrt(n / 2.0)
        rep = example3_experiment(n, 1.0, 5_000, 13, IntensityVector(probe))
        assert rep.alpha.p_hat == 0.1782
        assert rep.beta_sigma1.p_hat == 0.0524
        assert rep.beta_lambda.p_hat == 0.0096

    def test_np_miss_over_three_shards(self):
        sigma = IntensityVector(np.linspace(0.2, 1.2, 500))
        lo, hi = signal_statistics(sigma).window
        test = NpTest(sigma, lo + 0.8 * (hi - lo))
        assert 2 * _shard_rows(500) < 20_000 <= 3 * _shard_rows(500)
        assert estimate_error_probs(test, sigma, 20_000, 8).p_hat == 0.12565

    def test_lemma1_over_two_shards(self):
        assert _shard_rows(2 * 2) < 1_500_000 <= 2 * _shard_rows(2 * 2)
        box = lemma1_check(
            Box(np.array([1.0, 0.7])), [1, 1], [0.4, 0.6], 1_500_000, 3
        )
        assert box.p_sum.p_hat == 0.2916166666666667
        assert box.p_xi.p_hat == 0.3522186666666667


class TestShardExecutor:
    """Shards run on min(shards, CPUs) threads with counts independent of it."""

    @staticmethod
    def events(rng, rows):
        Y = rng.standard_normal((rows, 3))
        return Y[:, 0] > 0.5, np.abs(Y).max(axis=1) < 1.0

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_counts_do_not_depend_on_worker_count(self, monkeypatch, cpus):
        # Four shards of 1,000 rows and a short fifth: uneven strides.
        samples = 4 * _shard_rows(4000) + 123
        serial = [0, 0]
        for shard, rows in _shard_plan(samples, 4000):
            for i, e in enumerate(self.events(shard_stream(9, shard), rows)):
                serial[i] += int(np.count_nonzero(e))
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        assert _shard_counts(9, samples, 4000, self.events) == serial

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_example3_counts_do_not_depend_on_worker_count(self, monkeypatch, cpus):
        # Three shards; the reference scores each law on its own copy of the
        # same draws, as max_i scale_i y_i^2 <= threshold.
        n, samples, seed = 2000, 5_000, 21
        probe = np.zeros(n)
        probe[[7, 99]] = math.sqrt(n / 2.0)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        rep = example3_experiment(n, 1.0, samples, seed, IntensityVector(probe))
        one_hot = np.ones(n)
        one_hot[0] = 1.0 + n
        serial = [0, 0, 0]
        for shard, rows in _shard_plan(samples, n):
            Y2 = shard_stream(seed, shard).standard_normal((rows, n)) ** 2
            serial[0] += int(np.count_nonzero(Y2.max(axis=1) > rep.threshold))
            for i, scale in ((1, one_hot), (2, 1.0 + probe**2)):
                accepted = (Y2 * scale).max(axis=1) <= rep.threshold
                serial[i] += int(np.count_nonzero(accepted))
        estimates = (rep.alpha, rep.beta_sigma1, rep.beta_lambda)
        assert [e.p_hat for e in estimates] == [h / samples for h in serial]

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
        error = InvalidInput("raised on a worker")
        threads = set()

        def events(rng, rows):
            threads.add(threading.get_ident())
            if rows < _shard_rows(4000):  # the short last shard, on worker 2
                raise error
            return (np.zeros(rows, dtype=bool),)

        with pytest.raises(InvalidInput) as info:
            _shard_counts(1, 2 * _shard_rows(4000) + 10, 4000, events)
        assert info.value is error
        assert threading.get_ident() not in threads

    def test_a_failed_worker_stops_the_others(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        calls = []
        lock = threading.Lock()

        def events(rng, rows):
            with lock:
                calls.append(rows)
                first = len(calls) == 1
            if first:  # the other worker fails meanwhile
                time.sleep(0.5)
                return (np.zeros(rows, dtype=bool),)
            raise InvalidInput("raised on a worker")

        with pytest.raises(InvalidInput):
            _shard_counts(1, 10 * _shard_rows(4000), 4000, events)
        assert len(calls) == 2  # not the sleeping worker's other four shards
