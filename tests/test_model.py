"""Unit tests for the model layer: intensity vectors, statistics, tests."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from gausdet import (
    BayesTest,
    DiscretePrior,
    FinitePoints,
    GlrtTest,
    Hypothesis,
    IntensityVector,
    NpTest,
    Observation,
    ProductFloor,
    SumFloor,
    bayes_decide,
    bayes_log_ratio,
    glrt_decide,
    log_likelihood_ratio,
    np_decide,
    signal_statistics,
)
from gausdet.errors import DimensionMismatch, InvalidInput
from gausdet.model import _log_weighted_sum_exp

sigmas = arrays(
    np.float64,
    st.integers(1, 6),
    elements=st.floats(0.0, 10.0, allow_nan=False),
).map(IntensityVector)

positive_sigmas = arrays(
    np.float64,
    st.integers(1, 6),
    elements=st.floats(0.05, 10.0, allow_nan=False),
).map(IntensityVector)


class TestIntensityVector:
    def test_negative_entry_rejected_with_index(self):
        with pytest.raises(InvalidInput, match=r"sigma\[1\] negative"):
            IntensityVector(np.array([1.0, -0.5]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            IntensityVector(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            IntensityVector(np.array([1.0, np.nan]))
        with pytest.raises(InvalidInput):
            IntensityVector(np.array([np.inf]))

    @pytest.mark.filterwarnings("error")
    def test_largest_sigma_whose_square_is_finite(self):
        top = math.sqrt(sys.float_info.max)
        v = IntensityVector([top, 1.0])
        assert np.all(np.isfinite(v.squared))
        with pytest.raises(InvalidInput, match=r"sigma\[1\] too large"):
            IntensityVector([1.0, math.nextafter(top, math.inf)])

    @pytest.mark.filterwarnings("error")
    def test_sum_of_squares_must_be_finite(self):
        # Each square is finite; their sum overflows from 1.3e154 on, not at
        # 9.4e153 (sqrt(float max / 2) is about 9.48e153).
        with pytest.raises(InvalidInput, match="sum of squares overflows"):
            IntensityVector([1.3e154, 1.3e154])
        ok = IntensityVector([9.4e153, 9.4e153, 1.0])
        assert math.isfinite(signal_statistics(ok).window[1])

    def test_immutable(self):
        v = IntensityVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            v.values[0] = 3.0

    def test_accepts_list(self):
        v = IntensityVector([1, 2, 3])
        assert v.n == 3
        assert v.values.dtype == np.float64

    def test_derived_arrays(self):
        v = IntensityVector(np.array([1.0, 2.0]))
        np.testing.assert_allclose(v.squared, [1.0, 4.0])
        np.testing.assert_allclose(v.r_squared, [0.5, 0.8])

    def test_eq_and_hash(self):
        a = IntensityVector(np.array([1.0, 2.0]))
        b = IntensityVector(np.array([1.0, 2.0]))
        c = IntensityVector(np.array([2.0, 1.0]))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != [1.0, 2.0]


class TestSignalStatistics:
    def test_closed_form(self):
        stats = signal_statistics(IntensityVector(np.array([1.0, 2.0])))
        assert stats.D == pytest.approx(math.log(2) + math.log(5), rel=1e-15)
        assert stats.T == pytest.approx(0.5 + 0.8, rel=1e-15)
        assert stats.B == pytest.approx(2 * (0.25 + 0.64), rel=1e-15)
        assert stats.delta == pytest.approx(math.log(4.0), rel=1e-15)
        assert stats.window[0] == pytest.approx(stats.T - stats.D)
        assert stats.window[1] == pytest.approx(5.0 - stats.D)

    def test_delta_none_with_zero_component(self):
        stats = signal_statistics(IntensityVector(np.array([0.0, 1.0])))
        assert stats.delta is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("decades", [160, 170])
    def test_delta_outside_the_float_range_of_sigma_squared(self, decades):
        # max/min sigma^2 overflows at 1e-160; sigma^2 underflows to 0 at 1e-170.
        stats = signal_statistics(IntensityVector([10.0**-decades, 1.0]))
        assert stats.delta == pytest.approx(2 * decades * math.log(10), rel=1e-15)

    @given(sigmas)
    def test_ordering_t_le_d_le_sum(self, sigma):
        # x/(1+x) <= ln(1+x) <= x componentwise.
        stats = signal_statistics(sigma)
        total = float(np.sum(sigma.squared))
        assert stats.T <= stats.D + 1e-12
        assert stats.D <= total + 1e-12
        assert stats.window[0] <= stats.window[1] + 1e-12


class TestLogLikelihoodRatio:
    def test_closed_form(self):
        sigma = IntensityVector(np.array([1.0, 1.0]))
        r = log_likelihood_ratio(np.array([1.0, 1.0]), sigma)
        assert r == pytest.approx(0.5 - math.log(2), rel=1e-14)

    def test_observation_wrapper(self):
        sigma = IntensityVector(np.array([1.0, 1.0]))
        y = Observation(np.array([1.0, 1.0]))
        assert log_likelihood_ratio(y, sigma) == log_likelihood_ratio(
            np.array([1.0, 1.0]), sigma
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            log_likelihood_ratio(np.array([1.0]), IntensityVector([1.0, 1.0]))

    @given(positive_sigmas, st.floats(0.1, 5.0), st.floats(1.01, 3.0))
    def test_monotone_in_magnitude(self, sigma, y0, factor):
        # Scaling |y| up can only increase the likelihood ratio.
        y = np.full(sigma.n, y0)
        assert log_likelihood_ratio(factor * y, sigma) >= log_likelihood_ratio(
            y, sigma
        )


class TestNpTest:
    def test_threshold(self):
        test = NpTest(IntensityVector([1.0, 1.0]), A=0.5)
        assert test.threshold == pytest.approx(2 * math.log(2) + 0.5)

    def test_empty_region_rejected(self):
        with pytest.raises(InvalidInput, match="empty acceptance region"):
            NpTest(IntensityVector([1.0]), A=-5.0)

    def test_boundary_decides_h0(self):
        sigma = IntensityVector([1.0])
        test = NpTest(sigma, A=0.0)
        # On the boundary: 0.5 y^2 = threshold exactly.
        y_boundary = math.sqrt(2.0 * test.threshold)
        assert np_decide(test, [y_boundary]) is Hypothesis.H0
        assert np_decide(test, [y_boundary * (1 + 1e-9)]) is Hypothesis.H1

    def test_in_window_flag(self):
        sigma = IntensityVector([1.0, 1.0])
        stats = signal_statistics(sigma)
        mid = 0.5 * (stats.window[0] + stats.window[1])
        assert NpTest(sigma, mid).in_window
        assert not NpTest(sigma, stats.window[1] + 1.0).in_window

    def test_accepts_vectorized_matches_decide(self):
        rng = np.random.default_rng(0)
        sigma = IntensityVector([0.5, 1.0, 2.0])
        test = NpTest(sigma, A=0.2)
        Y = rng.standard_normal((50, 3))
        acc = test.accepts(Y)
        for row, a in zip(Y, acc):
            assert (np_decide(test, row) is Hypothesis.H0) == bool(a)

    def test_accepts_dimension_mismatch(self):
        test = NpTest(IntensityVector([1.0, 1.0]), A=0.0)
        with pytest.raises(DimensionMismatch):
            test.accepts(np.zeros((3, 5)))


class TestDiscretePriorAndBayes:
    def test_weight_validation(self):
        pts = (IntensityVector([1.0]),)
        with pytest.raises(InvalidInput):
            DiscretePrior(pts, np.array([0.5]))  # does not sum to 1
        with pytest.raises(InvalidInput):
            DiscretePrior(pts, np.array([-1.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            DiscretePrior(pts, np.array([0.5, 0.5]))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            DiscretePrior(
                (IntensityVector([1.0]), IntensityVector([1.0, 1.0])),
                np.array([0.5, 0.5]),
            )

    def test_two_point_value(self):
        # w = (1/2, 1/2) on (1,1) and (0,0), y = (2,0):
        # ln(0.5 e^{1 - ln 2} + 0.5 e^0).
        prior = DiscretePrior(
            (IntensityVector([1.0, 1.0]), IntensityVector([0.0, 0.0])),
            np.array([0.5, 0.5]),
        )
        expected = math.log(0.5 * math.exp(1.0 - math.log(2.0)) + 0.5)
        assert bayes_log_ratio([2.0, 0.0], prior) == pytest.approx(
            expected, rel=1e-12
        )

    @given(positive_sigmas, st.floats(-3.0, 3.0))
    def test_one_point_prior_equals_llr(self, sigma, y0):
        prior = DiscretePrior((sigma,), np.array([1.0]))
        y = np.full(sigma.n, y0)
        assert bayes_log_ratio(y, prior) == pytest.approx(
            log_likelihood_ratio(y, sigma), rel=1e-12, abs=1e-12
        )

    def test_no_underflow_with_large_d(self):
        # D of order hundreds: a naive exp would underflow to -inf.
        big = IntensityVector(np.full(4, 1e40))
        small = IntensityVector(np.full(4, 1.0))
        prior = DiscretePrior((big, small), np.array([0.5, 0.5]))
        value = bayes_log_ratio(np.zeros(4), prior)
        assert math.isfinite(value)
        # The small point dominates the mixture at y = 0.
        expected = math.log(0.5) + log_likelihood_ratio(np.zeros(4), small)
        assert value == pytest.approx(expected, rel=1e-6)

    def test_bayes_test_matches_decide(self):
        rng = np.random.default_rng(1)
        prior = DiscretePrior(
            (IntensityVector([1.0, 2.0]), IntensityVector([0.5, 0.5])),
            np.array([0.3, 0.7]),
        )
        test = BayesTest(prior, level=0.1)
        Y = rng.standard_normal((40, 2))
        acc = test.accepts(Y)
        for row, a in zip(Y, acc):
            assert (bayes_decide(row, prior, 0.1) is Hypothesis.H0) == bool(a)

    def test_bayes_test_matches_decide_on_many_rows(self):
        rng = np.random.default_rng(7)
        points = tuple(
            IntensityVector(rng.uniform(0.0, 3.0, 5)) for _ in range(4)
        )
        prior = DiscretePrior(points, np.array([0.4, 0.0, 0.25, 0.35]))
        level = 0.3
        Y = rng.standard_normal((10_000, 5)) * rng.uniform(0.5, 3.0, 5)
        acc = BayesTest(prior, level).accepts(Y)
        assert 0 < np.count_nonzero(acc) < acc.size
        decided = [bayes_decide(row, prior, level) is Hypothesis.H0 for row in Y]
        assert np.array_equal(acc, decided)


class TestLogWeightedSumExp:
    def test_matches_scipy_logsumexp(self):
        rng = np.random.default_rng(3)
        for m, k in ((1, 1), (5, 3), (200, 17), (1000, 64)):
            logs = rng.uniform(-1e3, 1e3, (m, k))
            w = rng.uniform(0.0, 1.0, k)
            w[rng.random(k) < 0.3] = 0.0
            w[0] = max(w[0], 0.1)  # at least one support point
            expected = logsumexp(logs, b=w, axis=1)
            got = _log_weighted_sum_exp(logs.copy(), w)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_zero_weight_cannot_underflow_the_others(self):
        logs = np.array([[0.0, 1e3, -1.0]])
        got = _log_weighted_sum_exp(logs, np.array([0.5, 0.0, 0.5]))
        assert got[0] == pytest.approx(math.log(0.5 + 0.5 * math.exp(-1.0)))


class TestGlrt:
    def test_scalar_level_broadcast(self):
        cands = FinitePoints((IntensityVector([1.0]), IntensityVector([2.0])))
        test = GlrtTest(cands, 0.5)
        np.testing.assert_allclose(test.levels, [0.5, 0.5])

    def test_per_candidate_levels_length_checked(self):
        cands = FinitePoints((IntensityVector([1.0]), IntensityVector([2.0])))
        with pytest.raises(DimensionMismatch):
            GlrtTest(cands, np.array([0.1, 0.2, 0.3]))

    def test_single_candidate_equals_np_test(self):
        rng = np.random.default_rng(2)
        sigma = IntensityVector([1.0, 0.7])
        A = 0.3
        np_test = NpTest(sigma, A)
        glrt = GlrtTest(FinitePoints((sigma,)), A)
        Y = rng.standard_normal((100, 2))
        np.testing.assert_array_equal(np_test.accepts(Y), glrt.accepts(Y))

    def test_superset_accepts_less(self):
        # Adding candidates can only shrink the acceptance region.
        rng = np.random.default_rng(3)
        a = IntensityVector([1.0, 0.5])
        b = IntensityVector([0.5, 1.5])
        c = IntensityVector([2.0, 2.0])
        small = GlrtTest(FinitePoints((a, b)), 0.2)
        large = GlrtTest(FinitePoints((a, b, c)), 0.2)
        Y = rng.standard_normal((200, 2))
        acc_small = small.accepts(Y)
        acc_large = large.accepts(Y)
        assert np.all(acc_large <= acc_small)

    def test_glrt_decide(self):
        cands = FinitePoints((IntensityVector([1.0]),))
        assert glrt_decide(cands, 10.0, [0.1]) is Hypothesis.H0
        assert glrt_decide(cands, -0.5, [10.0]) is Hypothesis.H1
        with pytest.raises(DimensionMismatch):
            glrt_decide(cands, 0.0, [0.1, 0.2])


class TestCandidateSets:
    def test_finite_points_validation(self):
        with pytest.raises(InvalidInput):
            FinitePoints(())
        with pytest.raises(DimensionMismatch):
            FinitePoints((IntensityVector([1.0]), IntensityVector([1.0, 1.0])))
        assert len(FinitePoints((IntensityVector([1.0]),))) == 1

    def test_product_floor(self):
        pf = ProductFloor(3, 2.0)
        pts = pf.witness_points()
        assert len(pts) == 1
        np.testing.assert_allclose(pts.points[0].values, [2.0, 2.0, 2.0])
        with pytest.raises(InvalidInput):
            ProductFloor(0, 1.0)
        with pytest.raises(InvalidInput):
            ProductFloor(3, 0.0)

    def test_sum_floor(self):
        sf = SumFloor(4, 1.5)
        one_hots = sf.one_hot_points()
        assert len(one_hots) == 4
        v = 1.5 * math.sqrt(4)
        for i, p in enumerate(one_hots.points):
            expected = np.zeros(4)
            expected[i] = v
            np.testing.assert_allclose(p.values, expected)
            # Every one-hot point sits exactly on the floor.
            assert float(np.sum(p.squared)) == pytest.approx(4 * 1.5**2)
        witnesses = sf.witness_points()
        assert len(witnesses) == 5
        np.testing.assert_allclose(witnesses.points[-1].values, np.full(4, 1.5))
