"""Unit tests for the model layer: intensity vectors, statistics, tests."""

import math
import sys
import warnings

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

    def test_callers_array_stays_writable(self):
        a = np.ones(3)
        v = IntensityVector(a)
        a[0] = 2.0
        assert v.values[0] == 1.0 and not v.values.flags.writeable
        levels = np.array([0.5, 1.0])
        GlrtTest(FinitePoints((v, v)), levels)
        levels[0] = 3.0

    @pytest.mark.parametrize("values", [["a"], [[1, 2], [3]], [10**400], [None]])
    def test_unconvertible_values_raise_invalid_input(self, values):
        with pytest.raises(InvalidInput, match="sigma"):
            IntensityVector(values)

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

    def test_accepts_block_sums_against_their_weight_columns(self):
        # Coordinates 0-2 and 3-4 share their weight columns in every point,
        # so the two block sums of y^2 score as the five coordinates do.
        rng = np.random.default_rng(1)
        points = (IntensityVector([1.0, 1.0, 1.0, 0.5, 0.5]),
                  IntensityVector([2.0, 2.0, 2.0, 0.0, 0.0]))
        tests = [NpTest(points[0], A=0.2),
                 BayesTest(DiscretePrior(points, np.array([0.3, 0.7])), 0.1),
                 GlrtTest(FinitePoints(points), np.array([0.4, -0.3]))]
        Y = rng.standard_normal((400, 5))
        sums = np.column_stack([(Y[:, :3] ** 2).sum(1), (Y[:, 3:] ** 2).sum(1)])
        kept = Y.copy(), sums.copy()
        for test in tests:
            weights = test._W[:, [0, 3]]
            acc = test.accepts(sums, weights=weights)
            np.testing.assert_array_equal(acc, test.accepts(Y))
            # Two tests may score one draw matrix: neither rows nor block
            # sums are squared or scaled in place.
            np.testing.assert_array_equal(Y, kept[0])
            np.testing.assert_array_equal(sums, kept[1])
            assert 0 < acc.sum() < 400
            with pytest.raises(DimensionMismatch):
                test.accepts(Y, weights=weights)


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


class TestBayesLogRatio:
    def test_matches_scipy_logsumexp(self):
        # Each point's intensities reach up to 10^e, e in (0, 80): large
        # ones give ratios near -D/2, small ones near +y^2 . w/2, both of
        # several hundred.
        rng = np.random.default_rng(3)
        ratios = []
        for k in (1, 3, 17, 64):
            for _ in range(20):
                points = tuple(
                    IntensityVector(10.0 ** rng.uniform(-1, rng.uniform(0, 80), 8))
                    for _ in range(k))
                w = rng.uniform(0.0, 1.0, k)
                w[rng.random(k) < 0.3] = 0.0
                w[0] = max(w[0], 0.1)  # at least one support point
                prior = DiscretePrior(points, w / w.sum())
                y = rng.uniform(-20.0, 20.0, 8)
                logs = [log_likelihood_ratio(y, p) for p in points]
                ratios.extend(logs)
                expected = logsumexp(logs, b=prior.weights)
                np.testing.assert_allclose(bayes_log_ratio(y, prior), expected,
                                           rtol=1e-13, atol=0.0)
        assert min(ratios) < -500.0 and max(ratios) > 500.0

    def test_zero_weight_cannot_underflow_the_others(self):
        # At y = (0, 45) the three ratios are 0, about 1e3 and -1.
        points = (IntensityVector([0.0, 0.0]), IntensityVector([0.0, 1e3]),
                  IntensityVector([math.sqrt(math.e ** 2 - 1.0), 0.0]))
        prior = DiscretePrior(points, np.array([0.5, 0.0, 0.5]))
        assert log_likelihood_ratio([0.0, 45.0], points[1]) > 1e3
        got = bayes_log_ratio([0.0, 45.0], prior)
        assert got == pytest.approx(math.log(0.5 + 0.5 * math.exp(-1.0)))

    @pytest.mark.parametrize("points, weights, y, want", [
        (([1.0, 2.0], [0.5, 0.5]), [0.3, 0.7], [0.3, -1.2],
         -0.1921485747626232),
        (([0.8, 0.8, 0.8], [0.0, 3.0, 1.0], [2.0, 2.0, 2.0]),
         [0.25, 0.0, 0.75], [1.5, 0.2, -2.0], 0.2123348094569344),
        (([0.1, 5.0, 0.3, 1.0], [2.0, 0.0, 1.0, 4.0], [0.7] * 4),
         [0.2, 0.5, 0.3], [3.0, -0.5, 2.5, 1.0], 2.5500878536138325),
    ], ids=["two-points", "zero-weight", "three-points"])
    def test_pinned_values(self, points, weights, y, want):
        prior = DiscretePrior(tuple(map(IntensityVector, points)),
                              np.array(weights))
        assert bayes_log_ratio(y, prior) == want


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


def _glrt_margins(rows, points, levels):
    """max_k [2 r(y, sigma_k) - A_k] of each row, and the size of its terms."""
    margins = [max(2.0 * log_likelihood_ratio(y, p) - a for p, a in zip(points, levels))
               for y in rows]
    forms = (rows * rows) @ np.stack([p.r_squared for p in points]).T
    D = np.array([p.D for p in points])
    return np.array(margins), np.max(forms + D + np.abs(levels), axis=1)


def _bayes_margins(rows, prior, level):
    """ln sum_k p_k exp(r(y, sigma_k)) - level of each row, and the size of its terms."""
    margins = [bayes_log_ratio(y, prior) - level for y in rows]
    kept = prior.weights > 0
    points = [p for p, w in zip(prior.points, kept) if w]
    forms = (rows * rows) @ np.stack([p.r_squared for p in points]).T
    D = np.array([p.D for p in points])
    terms = 0.5 * (forms + D) + np.abs(np.log(prior.weights[kept]))
    return np.array(margins), abs(level) + np.max(terms, axis=1)


def _check_against(acc, margins, scales):
    """accepts agrees with the reference on every row off the boundary."""
    clear = np.abs(margins) > 1e-9 * (1.0 + scales)
    np.testing.assert_array_equal(acc[clear], margins[clear] <= 0.0)
    return clear


class TestAcceptsAgainstScalarReferences:
    """``accepts`` against the one-row ratios, with no warning raised.

    The GLRT reference is max_k [2 log_likelihood_ratio - A_k] <= 0 and the
    Bayes reference bayes_log_ratio <= level, one row at a time.  Rows
    within 1e-9 of the boundary, relative to the terms summed, are skipped.
    With ``blocked``, each point is constant on random blocks of
    coordinates and ``accepts`` scores the blocks' sums of y_i^2 against
    the blocks' weight columns.
    """

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(1, 200), m=st.integers(1, 32),
           seed=st.integers(0, 2**32 - 1), zero_weights=st.booleans(),
           blocked=st.booleans(), scalar_level=st.booleans())
    def test_random_points(self, n, k, m, seed, zero_weights, blocked,
                           scalar_level):
        rng = np.random.default_rng(seed)
        block_of = rng.integers(0, n, n) if blocked else np.arange(n)
        sigma = rng.uniform(0.0, 3.0, (k, n))
        sigma[rng.random((k, n)) < 0.3] = 0.0
        sigma = sigma[:, block_of]  # constant on each block
        points = tuple(IntensityVector(s) for s in sigma)
        Y = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0, n)
        if blocked:
            blocks = np.unique(block_of)
            firsts = np.array([np.flatnonzero(block_of == b)[0] for b in blocks])
            scored = np.column_stack([(Y[:, block_of == b] ** 2).sum(axis=1)
                                      for b in blocks])
        weights = rng.uniform(0.0, 1.0, k)
        if zero_weights:
            weights[rng.random(k) < 0.5] = 0.0
            weights[rng.integers(k)] = 1.0
        prior = DiscretePrior(points, weights / weights.sum())

        # Levels that accept about half the rows: the references are made
        # at level 0 and shifted by their median.
        levels = rng.uniform(-3.0, 3.0, k)
        if scalar_level:
            levels = np.full(k, levels[0])
        margins, scales = _glrt_margins(Y, points, levels)
        shift = np.median(margins)
        levels += shift
        tests = [(GlrtTest(FinitePoints(points), levels[0] if scalar_level else levels),
                  margins - shift, scales + abs(shift))]
        margins, scales = _bayes_margins(Y, prior, 0.0)
        level = float(np.median(margins))
        tests.append((BayesTest(prior, level), margins - level, scales + abs(level)))

        for test, margins, scales in tests:
            if blocked:
                acc = test.accepts(scored, weights=test._W[:, firsts])
            else:
                acc = test.accepts(Y)
            assert acc.shape == (m,)
            _check_against(acc, margins, scales)

    @pytest.mark.parametrize("level", [-1e3, 5e2, 1e3])
    def test_squares_near_1e6(self, level):
        # y_i^2 near 1e6 against weights near 2.5e-4: forms near 1e3, on
        # both sides of each level, and one point whose form is near 4e6.
        rng = np.random.default_rng(11)
        points = [IntensityVector(rng.uniform(0.01, 0.02, 4)) for _ in range(5)]
        big = IntensityVector(np.full(4, 1.0))
        Y = np.sqrt(rng.uniform(0.5e6, 1.5e6, (300, 4)))
        glrt = GlrtTest(FinitePoints(tuple(points)), level)
        margins, scales = _glrt_margins(Y, points, np.full(5, level))
        clear = _check_against(glrt.accepts(Y), margins, scales)
        assert clear.sum() > 290
        if level == 1e3:
            assert 0 < glrt.accepts(Y).sum() < 300
        with_big = GlrtTest(FinitePoints((*points, big)), level)
        assert not with_big.accepts(Y).any()

        prior = DiscretePrior(tuple(points), np.full(5, 0.2))
        margins, scales = _bayes_margins(Y, prior, level)
        _check_against(BayesTest(prior, level).accepts(Y), margins, scales)
        # A point of weight zero with a ratio near 2e6 changes nothing; one
        # of positive weight overflows its term and rejects every row.
        zero = DiscretePrior((*points, big), np.r_[np.full(5, 0.2), 0.0])
        np.testing.assert_array_equal(BayesTest(zero, level).accepts(Y),
                                      BayesTest(prior, level).accepts(Y))
        small = DiscretePrior((*points, big), np.r_[np.full(5, 0.19), 0.05])
        assert not BayesTest(small, level).accepts(Y).any()
        if level == 5e2:
            assert 0 < BayesTest(prior, level).accepts(Y).sum() < 300

    def test_accepts_raises_no_warning(self):
        # Terms that overflow and terms that underflow, in one batch.
        points = (IntensityVector(np.full(3, 30.0)), IntensityVector(np.full(3, 0.1)))
        prior = DiscretePrior(points, np.array([0.0, 1.0]))
        Y = np.array([[0.0, 0.0, 0.0], [1e3, 1e3, 1e3], [40.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for test in (BayesTest(prior, -700.0), BayesTest(prior, 0.0),
                         BayesTest(DiscretePrior(points, np.array([0.5, 0.5])), 0.0),
                         GlrtTest(FinitePoints(points), 0.0)):
                margins, scales = (
                    _glrt_margins(Y, points, test.levels) if isinstance(test, GlrtTest)
                    else _bayes_margins(Y, test.prior, test.level))
                assert _check_against(test.accepts(Y), margins, scales).all()


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
