"""Unit tests for Monte Carlo machinery and the exact distribution oracles."""

import math
import threading
import time
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
    oracle,
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
        assert _shard_rows(1) == 131_072
        assert _shard_rows(10_000) == 13
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


def _unblocked(test, true_sigma, samples, seed):
    """The estimator without blocks: one normal per coordinate, then ``accepts``."""
    scale = None if true_sigma is None else np.sqrt(1.0 + true_sigma.squared)

    def events(rng, rows):
        Y = rng.standard_normal((rows, test.n))
        if scale is not None:
            Y *= scale
        return (test.accepts(Y),)

    (accepted,) = _shard_counts(seed, samples, test.n, events)
    hits = accepted if true_sigma is not None else samples - accepted
    return MonteCarloEstimate.from_counts(hits, samples, seed)


class _DrawSpy:
    """Wraps each shard's stream and records its draw calls."""

    def __init__(self):
        self.normals, self.chisquares, self.uniforms = [], [], []

    def stream(self, seed, shard):
        rng, spy = shard_stream(seed, shard), self

        class Spied:
            def standard_normal(self, size):
                spy.normals.append(size)  # list.append is atomic across threads
                return rng.standard_normal(size)

            def chisquare(self, df, size):
                spy.chisquares.append((int(df), size))
                return rng.chisquare(df, size)

            def random(self, size):
                spy.uniforms.append(size)
                return rng.random(size)

        return Spied()


class TestBlockedDraws:
    """Coordinates sharing weights and variance are drawn as one chi-square."""

    @staticmethod
    def within(est, want, k=4.0):
        return abs(est.p_hat - want) <= k * max(est.stderr, 1.0 / est.samples)

    def test_flat_sigma_matches_incomplete_gamma(self, monkeypatch):
        n, s = 200, 0.3
        sigma = IntensityVector(np.full(n, s))
        lo, hi = signal_statistics(sigma).window
        test = NpTest(sigma, 0.5 * (lo + hi))
        w, thr = s * s / (1.0 + s * s), test.threshold
        spy = _DrawSpy()
        monkeypatch.setattr(simulate, "shard_stream", spy.stream)
        est_a = estimate_error_probs(test, None, 100_000, 1)
        est_b = estimate_error_probs(test, sigma, 100_000, 2)
        assert self.within(est_a, float(gammaincc(n / 2, thr / (2.0 * w))))
        # Under sigma the statistic is w (1 + s^2) chi2_n = s^2 chi2_n.
        assert self.within(est_b, float(gammainc(n / 2, thr / (2.0 * s * s))))
        # One block: one shard of 2^17 rows, no normals, one chi2_200 each.
        assert spy.normals == [(100_000, 0)] * 2
        assert spy.chisquares == [(n, 100_000)] * 2

    def test_two_level_sigma_matches_oracle(self):
        sigma = IntensityVector(np.tile([0.5, 1.5], 25))
        lo, hi = signal_statistics(sigma).window
        test = NpTest(sigma, lo + 0.6 * (hi - lo))
        assert [b.tolist() for b in simulate._blocks(test._W, np.ones(50))] == [
            [], [0, 1], [25, 25]]
        alpha, beta = np_test_exact_probs(test)
        assert self.within(estimate_error_probs(test, None, 100_000, 3), alpha)
        assert self.within(estimate_error_probs(test, sigma, 100_000, 4), beta)

    def test_one_hot_zero_block_is_not_drawn(self, monkeypatch):
        values = np.zeros(40)
        values[7] = 2.0
        sigma = IntensityVector(values)
        test = NpTest(sigma, 0.5)
        alpha, beta = np_test_exact_probs(test)
        spy = _DrawSpy()
        monkeypatch.setattr(simulate, "shard_stream", spy.stream)
        assert self.within(estimate_error_probs(test, None, 50_000, 5), alpha)
        assert self.within(estimate_error_probs(test, sigma, 50_000, 6), beta)
        assert spy.normals == [(50_000, 1)] * 2 and spy.chisquares == []

    def test_flat_test_under_non_flat_lambda_splits_the_block(self):
        sigma = IntensityVector(np.full(40, 0.8))
        lam = IntensityVector(np.repeat([0.5, 1.5], 20))
        test = NpTest(sigma, 0.3)
        variance = 1.0 + lam.squared
        assert [b.tolist() for b in simulate._blocks(test._W, variance)] == [
            [], [0, 20], [20, 20]]
        want = weighted_chi2_cdf(sigma.r_squared * variance, test.threshold)
        assert self.within(estimate_error_probs(test, lam, 100_000, 7), want)

    @pytest.mark.parametrize("kind", ["bayes", "glrt"])
    def test_flat_candidates_agree_with_unblocked_draws(self, kind):
        flat = tuple(IntensityVector(np.full(6, s)) for s in (0.6, 3.0, 1.2))
        if kind == "bayes":
            test = BayesTest(DiscretePrior(flat, np.array([0.5, 0.0, 0.5])), 0.4)
        else:
            test = GlrtTest(FinitePoints(flat), np.array([0.5, 1.0, -0.2]))
        for true_sigma, seed in ((None, 11), (flat[2], 12)):
            got = estimate_error_probs(test, true_sigma, 40_000, seed)
            ref = _unblocked(test, true_sigma, 40_000, seed + 100)
            assert abs(got.p_hat - ref.p_hat) <= 4.0 * math.hypot(
                got.stderr, ref.stderr)

    def test_distinct_sigma_draws_are_those_of_one_normal_per_coordinate(self):
        rng = np.random.default_rng(8)
        sigma = IntensityVector(rng.uniform(0.2, 1.5, 300))
        lam = IntensityVector(rng.uniform(0.2, 1.5, 300))
        points = FinitePoints(
            tuple(IntensityVector(rng.uniform(0.0, 1.5, 16)) for _ in range(5)))
        prior = DiscretePrior(points.points, np.full(5, 0.2))
        cases = [(NpTest(sigma, 0.0), None), (NpTest(sigma, 0.0), lam),
                 (GlrtTest(points, 3.0), None), (BayesTest(prior, 0.5), None)]
        for test, true_sigma in cases:
            got = estimate_error_probs(test, true_sigma, 3_000, 9)
            assert got == _unblocked(test, true_sigma, 3_000, 9)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_multi_shard_counts_do_not_depend_on_worker_count(
            self, monkeypatch, cpus):
        # 256 singletons and a block of 100: 257 drawn columns, so 510 rows
        # per shard and three shards; flat sigma at n = 8: three shards of 2^17.
        mixed = IntensityVector(
            np.concatenate([np.linspace(0.5, 1.5, 256), np.full(100, 2.5)]))
        flat = IntensityVector(np.full(8, 0.7))
        runs = [(NpTest(mixed, 0.0), mixed, 1_500), (NpTest(flat, 0.0), None,
                                                     2 * 2**17 + 5)]
        assert 2 * _shard_rows(257) < 1_500 <= 3 * _shard_rows(257)
        got = []
        for cpu_count in (1, cpus):
            monkeypatch.setattr(simulate, "_cpu_count", lambda: cpu_count)
            got.append([estimate_error_probs(t, lam, m, 3).p_hat
                        for t, lam, m in runs])
        assert got[0] == got[1]

    @pytest.mark.parametrize("kind", ["bayes", "glrt"])
    @pytest.mark.parametrize("n, k, rows", [(1_000, 512, 256), (16, 64, 8_192)])
    def test_flat_candidates_size_shards_by_their_count(
            self, monkeypatch, kind, n, k, rows):
        # k flat candidates are one drawn column; a shard holds 2^17 // k
        # rows, so its (rows, k) scores are 2^17 floats, but never fewer
        # than the 2^17 // n rows of one normal per coordinate.
        flat = tuple(IntensityVector(np.full(n, s))
                     for s in np.linspace(0.1, 2.0, k))
        if kind == "bayes":
            test = BayesTest(DiscretePrior(flat, np.full(k, 1.0 / k)), 0.4)
        else:
            test = GlrtTest(FinitePoints(flat), np.linspace(0.5, 3.0, k))
        seen, accepts = [], type(test).accepts

        def spy(self, Y, **kwargs):
            seen.append(len(Y))
            return accepts(self, Y, **kwargs)

        monkeypatch.setattr(type(test), "accepts", spy)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
        samples = max(simulate.MIN_SAMPLES, 2 * rows + 7)
        estimate_error_probs(test, None, samples, 1)
        assert seen[0] == rows == _shard_rows(max(1, min(k, n)))
        assert sum(seen) == samples and max(seen) == rows

    def test_zero_weight_point_does_not_move_the_estimate(self):
        # A Bayes point of zero weight is outside the prior's support: the
        # test and its draws are those of the prior without it.
        flat = [IntensityVector(np.full(6, s)) for s in (0.8, 1.5)]
        mid = IntensityVector([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        with_zero = BayesTest(DiscretePrior((flat[0], mid, flat[1]),
                                            np.array([0.5, 0.0, 0.5])), 0.4)
        support = BayesTest(DiscretePrior(tuple(flat), np.array([0.5, 0.5])), 0.4)
        for true_sigma in (None, flat[1]):
            got, want = (estimate_error_probs(t, true_sigma, 20_000, 3)
                         for t in (with_zero, support))
            assert got.p_hat == want.p_hat

    def test_all_zero_weights_draw_nothing(self, monkeypatch):
        spy = _DrawSpy()
        monkeypatch.setattr(simulate, "shard_stream", spy.stream)
        zero = IntensityVector(np.zeros(5))
        test = NpTest(zero, 0.5)  # accepts every row: y^2 . 0 = 0 <= 0.5
        assert estimate_error_probs(test, None, 2_000, 1).p_hat == 0.0
        assert estimate_error_probs(test, IntensityVector(np.ones(5)), 2_000,
                                    1).p_hat == 1.0
        glrt = GlrtTest(FinitePoints((zero, zero)), np.array([-0.1, 0.3]))
        assert estimate_error_probs(glrt, None, 2_000, 1).p_hat == 1.0
        assert spy.normals == [(2_000, 0)] * 3 and spy.chisquares == []

    def test_distinct_sigma_at_n_1e5_grouping_is_cheap(self):
        # Grouping distinct sigma costs under 1% of an estimate of 1,000
        # samples.
        n = 100_000
        sigma = IntensityVector(np.linspace(0.5, 1.5, n))
        test, variance = NpTest(sigma, 0.0), np.ones(n)
        start = time.perf_counter()
        estimate_error_probs(test, None, 1_000, 1)
        estimate_s = time.perf_counter() - start
        plan_s = []
        for _ in range(3):
            start = time.perf_counter()
            singles, firsts, _ = simulate._blocks(test._W, variance)
            plan_s.append(time.perf_counter() - start)
        assert singles.size == n and firsts.size == 0
        assert min(plan_s) <= 0.01 * estimate_s


def _brute_blocks(W, variance):
    """_blocks by a dict keyed by (column of W, variance): its groups come
    in order of their first coordinate, so singles and blocks do too."""
    groups = {}
    for i in range(W.shape[1]):
        if W[:, i].any():
            groups.setdefault((*W[:, i], variance[i]), []).append(i)
    blocks = [g for g in groups.values() if len(g) > 1]
    return ([g[0] for g in groups.values() if len(g) == 1],
            [g[0] for g in blocks], [len(g) for g in blocks])


@st.composite
def _grouping_cases(draw):
    """Small W and variance whose few values make ties and zero columns."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    W = draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                               min_size=n, max_size=n), min_size=k, max_size=k))
    variance = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    return np.array(W), np.array(variance)


class TestBlocks:
    @given(_grouping_cases())
    @example((np.zeros((2, 5)), np.ones(5)))  # all-zero W
    @example((np.arange(1.0, 13.0).reshape(2, 6), np.ones(6)))  # all distinct
    @example((np.ones((3, 7)), np.ones(7)))  # all equal
    @example((np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 2.0, 0.0, 2.0]]),
              np.ones(4)))  # zero columns around one block
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_grouping(self, case):
        W, variance = case
        got = simulate._blocks(W, variance)
        assert [b.tolist() for b in got] == list(_brute_blocks(W, variance))
        assert all(b.dtype.kind == "i" for b in got)
        # example3 passes its laws' rows in any order.
        reversed_rows = simulate._blocks(W[::-1], variance)
        assert [b.tolist() for b in reversed_rows] == [b.tolist() for b in got]


def _blocks_on_every_key(W, variance):
    """_blocks as it was before constant keys were dropped: every row of W
    and the variance go into the sort and the compares."""
    kept = np.flatnonzero(W.any(axis=0))
    cols = slice(None) if kept.size == W.shape[1] else kept
    keys = [variance[cols], *(W[i, cols] for i in range(W.shape[0] - 1, -1, -1))]
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, order.size])
    first = order[starts]
    by_first = np.argsort(first)
    first, sizes = kept[first[by_first]], sizes[by_first]
    return first[sizes == 1], first[sizes > 1], sizes[sizes > 1]


@st.composite
def _keys_with_constant_rows(draw):
    """Random W and variance in which some rows, or all keys, are constant."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from([[0.0, 1.0], [0.5, 1.0, 2.0], [0.0, 0.5, 1.0, 2.0]]))
    W = rng.choice(values, (k, n))
    for i in range(k):
        if draw(st.booleans()):
            W[i] = draw(st.sampled_from([0.0, 1.0, 3.0]))  # a constant row
    W[:, rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0  # all-zero columns
    variance = (np.full(n, draw(st.sampled_from([1.0, 2.5]))) if draw(st.booleans())
                else rng.choice([1.0, 2.0], n))
    return W, variance


class TestBlocksWithoutConstantKeys:
    """Dropping the keys that are constant over the kept columns leaves the
    blocks exactly as the sort on every key made them."""

    @given(_keys_with_constant_rows())
    @example((np.ones((3, 1)), np.ones(1)))  # n = 1
    @example((np.zeros((2, 1)), np.ones(1)))  # n = 1, all zero
    @example((np.full((2, 6), 2.0), np.full(6, 3.0)))  # every key constant
    @example((np.array([[0.0, 1.0, 0.0, 1.0]]), np.array([5.0, 1.0, 7.0, 1.0])))
    @example((np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 0.0]]), np.ones(3)))
    @example((np.array([[-0.0, 0.0, 1.0]]), np.ones(3)))  # -0.0 ties with 0.0
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sort_on_every_key(self, case):
        W, variance = case
        got = simulate._blocks(W, variance)
        want = _blocks_on_every_key(W, variance)
        assert [b.tolist() for b in got] == [b.tolist() for b in want]
        assert [b.dtype for b in got] == [b.dtype for b in want]

    def test_example3_scales_at_n_1e4(self):
        n = 10_000
        scales = np.ones((3, n))
        scales[1, 0] += n
        scales[2, [17, 4242]] += [3.0, 7.0]
        got = simulate._blocks(scales, np.ones(n))
        want = _blocks_on_every_key(scales, np.ones(n))
        assert [b.tolist() for b in got] == [b.tolist() for b in want]
        assert got[0].tolist() == [0, 17, 4242] and got[2].tolist() == [n - 3]


_FLAT2 = IntensityVector([1.0, 1.0])
_PRIOR2 = DiscretePrior((_FLAT2, IntensityVector([2.0, 2.0])), np.array([0.5, 0.5]))
_ONE_HOT2 = FinitePoints((IntensityVector([1.0, 0.0]), IntensityVector([0.0, 1.0])))


class TestNonFiniteLevels:
    """A non-finite level or parameter raises, naming it, before any draw."""

    @pytest.mark.parametrize("make, name", [
        (lambda: NpTest(_FLAT2, math.nan), "A"),
        (lambda: BayesTest(_PRIOR2, math.nan), "level"),
        (lambda: GlrtTest(_ONE_HOT2, math.nan), "levels"),
        (lambda: GlrtTest(_ONE_HOT2, [0.0, math.nan]), "levels"),
    ], ids=["np", "bayes", "glrt-scalar", "glrt-vector"])
    def test_test_level_rejected(self, make, name):
        with pytest.raises(InvalidInput, match=name):
            estimate_error_probs(make(), samples=2000)

    @pytest.mark.parametrize("R", [math.nan, math.inf])
    def test_example3_radius_rejected(self, R):
        with pytest.raises(InvalidInput, match="R must be finite"):
            example3_experiment(10, R, samples=2000)


class TestWeightedChi2Cdf:
    def test_input_validation(self):
        with pytest.raises(InvalidInput):
            weighted_chi2_cdf([-1.0], 1.0)
        with pytest.raises(InvalidInput):
            weighted_chi2_cdf([1.0], -1.0)

    def test_degenerate_cases(self):
        assert weighted_chi2_cdf([0.0, 0.0], 1.0) == 1.0
        assert weighted_chi2_cdf([1.0], 0.0) == 0.0
        for x in (0.0, 1.0, 1e300):  # all-zero weights: the sum is 0 <= x
            assert weighted_chi2_cdf(np.zeros(5), x) == 1.0
            assert oracle._weighted_chi2(np.zeros(5), x, upper=True) == 0.0

    def test_zero_weights_dropped(self):
        assert weighted_chi2_cdf([0.0, 2.0], 1.5) == pytest.approx(
            weighted_chi2_cdf([2.0], 1.5), rel=1e-12
        )
        # Zeros among repeats are dropped before the rest are grouped, and
        # 999 repeated zeros with one weight take the single-weight path.
        one_hot = np.zeros(1000)
        one_hot[17] = 2.0
        for upper in (False, True):
            assert (oracle._weighted_chi2([0.0, 1.0, 0.0, 2.5, 1.0, 0.0], 3.7, upper)
                    == oracle._weighted_chi2([1.0, 1.0, 2.5], 3.7, upper))
            for x in (0.5, 4.0, 40.0):
                assert (oracle._weighted_chi2(one_hot, x, upper)
                        == oracle._weighted_chi2([2.0], x, upper))
        assert weighted_chi2_cdf(one_hot, 4.0) == math.erf(math.sqrt(4.0 / 4.0))

    @pytest.mark.parametrize(
        "weights, x",
        [([1.0, math.nan], 1.0), ([1.0], math.nan), ([1.0, 2.0], math.nan),
         ([1.0, math.inf], 1.0), ([1.0, 2.0], math.inf)],
    )
    def test_non_finite_input_rejected(self, weights, x):
        with pytest.raises(InvalidInput):
            weighted_chi2_cdf(weights, x)

    @pytest.mark.parametrize("weights", [[], [[1.0, 2.0]]], ids=["empty", "2d"])
    def test_empty_or_2d_weights_rejected(self, weights):
        with pytest.raises(InvalidInput, match="weights must be a nonempty 1-D"):
            weighted_chi2_cdf(weights, 1.0)

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
            got = oracle._weighted_chi2(weights, x, upper=True)
            assert abs(got - upper) <= self.BOUND

    @pytest.mark.parametrize("weights", [[0.5], [0.0, 0.5, 0.0]])
    @pytest.mark.parametrize("y", [0.5, 0.98, 1.0, 1.3])
    def test_single_weight_matches_mpmath(self, weights, y):
        # One weight w at x is erf(sqrt(x / 2w)); w = 1/2 makes x / 2w = y
        # exact.  scipy's shape-1/2 incomplete gamma is off by up to 4.1e-15
        # near y = 1.
        got_lower = weighted_chi2_cdf(weights, y)
        got_upper = oracle._weighted_chi2(weights, y, upper=True)
        with mpmath.workdps(40):  # errors taken against the unrounded values
            root = mpmath.sqrt(mpmath.mpf(y))
            assert abs(got_lower - mpmath.erf(root)) <= 1e-16
            assert abs(got_upper - mpmath.erfc(root)) <= 1e-16

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
        # Spread 1e8 over 1000 weights needs more than the 2^30 terms whose
        # phases the lattice reduces in int64 (spread 1e4 is served).
        w = np.geomspace(1.0, 1e8, 1000)
        with pytest.raises(OutOfRegime, match="more than 1073741824 mixture terms"):
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
        upper = oracle._weighted_chi2(w, x, upper=True)
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


def _hypoexponential_tails(means, x):
    """(cdf, upper tail) at x of a sum of exponentials with distinct means.

    The sum of two chi2_1 at weight w is an exponential of mean 2w, so
    weights that each appear twice give this law exactly.  50-digit mpmath.
    """
    with mpmath.workdps(50):
        rates = [1 / mpmath.mpf(m) for m in means]
        upper = mpmath.fsum(
            mpmath.exp(-li * x) * mpmath.fprod(
                lj / (lj - li) for lj in rates if lj != li)
            for li in rates
        )
        return float(1 - upper), float(upper)


class TestOracleWindow:
    """The mixture evaluates the incomplete gamma only where it moves the sum."""

    BOUND = 5e-15  # absolute error bound stated in the weighted_chi2_cdf docstring

    @staticmethod
    def all_terms(w, x, upper):
        """The full mixture sum over every coefficient, clipped to [0, 1],
        on the weights ascending as the oracle takes them."""
        w = np.sort(np.asarray(w, dtype=float))
        mixture = oracle._Generating(w)
        beta, a = mixture.beta, mixture.coefficients()
        shapes = 0.5 * w.size + np.arange(a.size)
        tail = (gammaincc if upper else gammainc)(shapes, x / (2.0 * beta))
        return min(1.0, max(0.0, float(a @ tail)))

    def test_equals_the_all_terms_sum(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 401))
            spread = 10.0 ** rng.uniform(0.0, math.log10(4e3))
            w = np.exp(rng.uniform(0.0, math.log(spread), n))
            x = float(w.sum()) * 10.0 ** rng.uniform(-1.0, 0.7)
            for upper in (False, True):
                got = oracle._weighted_chi2(w, x, upper)
                want = self.all_terms(w, x, upper)
                assert abs(got - want) <= self.BOUND
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("f", [0.3, 0.5, 1.0, 2.0])
    def test_arc_equals_the_all_terms_sum(self, f):
        # The n = 100, spread 1e4 tails at or above 1e-2 take the lattice,
        # G on an arc of about 550 points of its circle, and make no
        # coefficient; the smaller ones (the cdf at 0.3 sum w, 1.4e-4, and
        # the upper tail at 2 sum w, 5.6e-3) make their own.
        w = np.geomspace(1.0, 1e4, 100)
        x = f * float(w.sum())
        for upper in (False, True):
            coefficients = oracle._Generating.coefficients
            with mock.patch.object(oracle._Generating, "coefficients", autospec=True,
                                   side_effect=coefficients) as made:
                got = oracle._weighted_chi2(w, x, upper)
            want = self.all_terms(w, x, upper)
            assert (got >= oracle._LATTICE_LEAST) == (not made.called)
            assert abs(got - want) <= self.BOUND
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("A", [60.0, 100.0])
    def test_tiny_alpha_on_flat_sigma(self, A):
        # Fault (c) at A = 60, alpha = 4.5e-18; at A = 100 alpha is below the
        # window's 1e-18 edge, so only the widened edge finds it.
        test = NpTest(IntensityVector(np.ones(50)), A=A)
        alpha, _ = np_test_exact_probs(test)
        want = float(gammaincc(25.0, test.threshold))
        assert 0.0 < want < 1e-17
        assert alpha == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x, upper", [(100.0, True), (1e-3, False)])
    def test_small_tails_of_mixed_weights(self, x, upper):
        # The cdf is relatively accurate however small.  The upper tail of
        # mixed weights is a sum of a_k near 1, which carry about 1e-17 of
        # rounding, so it keeps rel 1e-12 only down to about 1e-4.
        w = [1.0, 1.0, 2.0, 2.0, 5.0, 5.0]
        want = _hypoexponential_tails([2.0, 4.0, 10.0], x)[upper]
        assert 0.0 < want < 1e-4
        got = oracle._weighted_chi2(w, x, upper)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "n, spread", [(2, 1e3), (10, 1e4), (100, 1e2), (100, 1e4), (400, 4e3)]
    )
    def test_term_count_is_at_most_a_quarter_above_need(self, n, spread):
        # The Chernoff rule of _Generating: N terms suffice when
        # ln G(z) + (n/2 + N) ln(1/z) <= ln 1e-16 at some z of the grid.
        w = np.geomspace(1.0, spread, n)
        a = oracle._Generating(w).coefficients()
        v = 1.0 - 2.0 ** -np.arange(1.0, 53.0)
        ln_g = -0.5 * np.log1p(-np.outer(v, w / spread)).sum(axis=1)
        ln_step = np.log1p(-v / spread)

        def enough(terms):
            return np.min(ln_g + (0.5 * n + terms) * ln_step) <= math.log(1e-16)

        terms = a.size
        assert enough(terms) and terms <= 2**19
        assert not enough(math.ceil(0.8 * terms) - 1)  # so need >= 0.8 N
        odd = terms >> (terms.bit_length() - 3)
        assert 4 <= odd <= 8 and odd << (terms.bit_length() - 3) == terms

    @pytest.mark.parametrize("n, spread", [(1000, 1e4), (2, 1e5)])
    def test_out_of_regime(self, n, spread):
        # These need 1,310,720 and 4,194,304 terms, past the full circle's
        # 2^19, and the lattice serves both tails.  OutOfRegime is raised
        # when no way fits the term cap: here with the cap at 16.
        w = np.geomspace(1.0, spread, n)
        cdf, upper = (oracle._weighted_chi2(w, float(w.sum()), upper) for upper in (False, True))
        assert 0.3 < cdf < 0.7 and abs(cdf + upper - 1.0) <= self.BOUND
        for upper in (False, True):
            with mock.patch.object(oracle, "_MAX_TERMS", 16), \
                    pytest.raises(OutOfRegime, match="no way to the tail makes at most 16"):
                oracle._weighted_chi2(w, float(w.sum()), upper)


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


    @pytest.mark.parametrize("make, name", [
        (lambda: Box(np.array([math.nan, 1.0])), "half_widths"),
        (lambda: Box(np.ones((2, 2))), "half_widths"),
        (lambda: Box(np.array([])), "half_widths"),
        (lambda: Ellipsoid(np.ones(2), math.nan), "c"),
        (lambda: Ellipsoid(np.ones(2), math.inf), "c"),
        (lambda: Ellipsoid(np.array([1.0, math.inf]), 1.0), "weights"),
        (lambda: Ellipsoid(np.ones((2, 2)), 1.0), "weights"),
    ], ids=["box-nan", "box-2d", "box-empty", "ellipsoid-c-nan", "ellipsoid-c-inf",
            "ellipsoid-weights-inf", "ellipsoid-2d"])
    def test_non_finite_empty_or_2d_rejected(self, make, name):
        with pytest.raises(InvalidInput, match=name):
            make()


_KERNEL_DIMS = (1, 2, 3, 5, 16, 50, 256)


def _paths(forced):
    """Patch the rule so that every shape takes one path, or leave it."""
    rows = {"columns": 0, "rows": 2**62, "rule": simulate._COLUMN_ROWS}[forced]
    return mock.patch.object(simulate, "_COLUMN_ROWS", rows)


def _on_boundary(threshold, scale):
    """Some y with fl(fl(y * y) * scale) == threshold, or None."""
    y = math.sqrt(threshold / scale)
    for step in range(16):
        for cand in (y, -y):
            if np.square(cand) * scale == threshold:
                return cand
        y = math.nextafter(y, math.inf if np.square(y) * scale < threshold else 0.0)
    return None


@st.composite
def _kernel_cases(draw):
    """A (rows, d) array, half widths and scales; some entries lie exactly
    on a box face, some are -0.0 or 0.0."""
    d = draw(st.sampled_from(_KERNEL_DIMS))
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hw = rng.uniform(0.25, 2.0, d)
    Y = rng.standard_normal((rows, d)) * draw(st.sampled_from([0.5, 1.0, 3.0]))
    face = rng.random((rows, d)) < draw(st.floats(0.0, 0.5))
    Y[face] = (np.sign(rng.standard_normal((rows, d))) * hw)[face]
    Y[rng.random((rows, d)) < draw(st.floats(0.0, 0.2))] = -0.0
    Y[rng.random((rows, d)) < 0.05] = 0.0
    return Y, hw, rng.uniform(1.0, 50.0, d), draw(st.sampled_from(["columns", "rows",
                                                                   "rule"]))


class _Served:
    """A stand-in shard stream that serves given normals and uniforms."""

    def __init__(self, normals, uniforms):
        self.normals, self.uniforms = normals, uniforms

    def standard_normal(self, size):
        assert size == self.normals.shape
        return self.normals.copy()

    def random(self, size):
        assert size == self.uniforms.shape
        return self.uniforms.copy()


def _example3_events(d):
    """example3's ``events(rng, rows)`` and report for a probe whose d - 1
    distinct hot values make coordinates 0 .. d - 1 the blocks of one,
    with one block of three zero coordinates after them."""
    n = d + 3
    probe = IntensityVector(np.r_[0.0, np.linspace(0.5, 4.0, d - 1), np.zeros(3)])
    captured = []

    def counts(seed, samples, row_scalars, events):
        captured.append(events)
        return [0, 0, 0]

    with mock.patch.object(simulate, "_shard_counts", counts):
        rep = example3_experiment(n, 1.0, 1_000, 1, probe)
    scales = np.ones((3, n))
    scales[1, 0] += n
    scales[2] += probe.squared
    assert simulate._blocks(scales, np.ones(n))[0].tolist() == list(range(d))
    return captured[0], rep.threshold, scales[:, :d]


class TestRowKernels:
    """Box and example3 membership, and lemma1's scaling, give the same
    verdicts and products as the row-wise ``np.all(..., axis=1)`` and
    broadcast, row for row, on the column path and on the row path."""

    @given(_kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_box_and_helper_match_the_row_reduction(self, case):
        Y, hw, _, forced = case
        want = np.all(np.abs(Y) <= hw, axis=1)
        with _paths(forced):
            got = Box(hw).contains(Y)
            helper = simulate._all_columns(Y, hw, lambda y, b: np.abs(y) <= b)
        assert got.dtype == bool and got.shape == (Y.shape[0],)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(helper, want)

    @given(_kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_scaling_matches_the_broadcast(self, case):
        Y, _, scale, forced = case
        want = Y * scale
        got = Y.copy()
        with _paths(forced):
            simulate._scale_columns(got, scale)
        assert got.tobytes() == want.tobytes()  # -0.0 included

    @given(_kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_example3_laws_match_the_row_reduction(self, case):
        Y, _, _, forced = case
        rows, d = Y.shape
        events, threshold, scales = _example3_events(d)
        for j in range(d):  # put one row of each column on a law's boundary
            y = _on_boundary(threshold, scales[j % 3, j])
            if y is not None:
                Y[j % rows, j] = y
        want = [np.all(np.square(Y) * s <= threshold, axis=1) for s in scales]
        with _paths(forced):
            got = events(_Served(Y, np.zeros((1, rows))), rows)
        np.testing.assert_array_equal(got[0], ~want[0])
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])

    def test_boundary_entries_are_found(self):
        # The example3 test above puts entries exactly on a law's boundary.
        _, threshold, scales = _example3_events(5)
        found = [_on_boundary(threshold, s) for s in scales[:, 1]]
        assert any(y is not None for y in found)
        for y, s in zip(found, scales[:, 1]):
            if y is not None:
                assert np.square(y) * s == threshold

    @pytest.mark.parametrize("d", _KERNEL_DIMS + (10_000,))
    def test_shard_shapes_match_the_row_reduction(self, d):
        # Each kernel at the rows of a lemma1 shard (2 d draws a row) and of
        # an example3 shard (d normals a row), on the path the rule picks.
        rng = np.random.default_rng(d)
        hw, scale = rng.uniform(0.25, 2.0, d), rng.uniform(1.0, 50.0, d)
        for rows in {_shard_rows(2 * d), _shard_rows(d)}:
            Y = rng.standard_normal((rows, d))
            Y[::7] = hw
            Y[3::11] = -0.0
            np.testing.assert_array_equal(
                Box(hw).contains(Y), np.all(np.abs(Y) <= hw, axis=1))
            got = Y.copy()
            simulate._scale_columns(got, scale)
            assert got.tobytes() == (Y * scale).tobytes()

    def test_rule(self):
        # By column from 2048 rows a column; an empty row never by column.
        assert simulate._by_columns(np.empty((2048 * 3, 3)))
        assert not simulate._by_columns(np.empty((2048 * 3 - 1, 3)))
        assert not simulate._by_columns(np.empty((5, 0)))
        empty = simulate._all_columns(np.empty((4, 0)), np.empty(0), np.greater)
        assert empty.tolist() == [True] * 4
        # The benchmark's boxes (d = 2, 3, 5) and a two-hot example3 are
        # scored by column; an all-distinct example3 at n = 256 is not.
        for d in (2, 3, 5):
            assert simulate._by_columns(np.empty((_shard_rows(2 * d), d)))
        assert simulate._by_columns(np.empty((_shard_rows(4), 3)))
        assert not simulate._by_columns(np.empty((_shard_rows(256), 256)))


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

    @pytest.mark.parametrize("xi_sd, eta_sd, match", [
        ([math.nan, 1.0], [1.0, 1.0], "xi_sd"),
        ([1.0, 1.0], [1.0, math.inf], "eta_sd"),
        (np.ones((1, 2)), [1.0, 1.0], "xi_sd"),
        ([-1.0, 1.0], [1.0, 1.0], "nonnegative"),
        ([1.0, 1.0], [1.0, -0.5], "nonnegative"),
    ], ids=["xi-nan", "eta-inf", "xi-2d", "xi-negative", "eta-negative"])
    def test_bad_sds_rejected(self, xi_sd, eta_sd, match):
        with pytest.raises(InvalidInput, match=match):
            lemma1_check(Box(np.ones(2)), xi_sd, eta_sd, samples=2000)


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

    @staticmethod
    def probe(kind, n):
        """Probes with sum lambda_i^2 = n R^2 at R = 1, and two others."""
        if kind == "none":
            return None
        values = np.zeros(n)
        if kind == "two-hot":
            values[[3, 17]] = math.sqrt(n / 2.0)
        elif kind == "flat":
            values[:] = 1.0
        elif kind == "distinct":
            values = np.linspace(0.1, 2.0, n)
        return IntensityVector(values)

    @staticmethod
    def product_law(rep, probe):
        """(alpha, one-hot miss, probe miss): every law accepts iff each
        scale_i y_i^2 <= threshold, with independent coordinates."""
        n, thr = rep.n, rep.threshold

        def accept(scale):
            return float(np.exp(np.sum(np.log(chi2.cdf(thr / scale, 1)))))

        one_hot = np.ones(n)
        one_hot[0] += n * rep.R**2
        want = [1.0 - accept(np.ones(n)), accept(one_hot)]
        if probe is not None:
            want.append(accept(1.0 + probe.squared))
        return want

    @pytest.mark.parametrize("n, kind", [
        (50, "none"), (50, "zero"), (50, "two-hot"), (50, "flat"),
        (50, "distinct"), (10_000, "none"), (10_000, "zero"),
        (10_000, "two-hot"), (10_000, "flat"),
    ])
    def test_estimates_match_the_product_law(self, n, kind):
        # The flat probe's miss at n = 1e4 is about 3e-11: 1e5 samples
        # see none, within 4 standard errors of the exact value.
        samples, probe = 100_000, self.probe(kind, n)
        rep = example3_experiment(n, 1.0, samples, 31, probe)
        got = [rep.alpha, rep.beta_sigma1] + ([rep.beta_lambda] if probe else [])
        for est, p in zip(got, self.product_law(rep, probe)):
            assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / samples)

    @pytest.mark.parametrize("kind", ["none", "two-hot", "flat", "distinct"])
    def test_matches_one_normal_per_coordinate(self, kind):
        # An independent reference: PCG64 normals, one per coordinate per
        # row, each law scored as max_i scale_i y_i^2 <= threshold.
        n, samples = 50, 100_000
        probe = self.probe(kind, n)
        rep = example3_experiment(n, 1.0, samples, 41, probe)
        scales = [np.ones(n), np.ones(n)]
        scales[1][0] += n
        if probe is not None:
            scales.append(1.0 + probe.squared)
        hits = np.zeros(len(scales), dtype=int)
        rng = np.random.default_rng(41)
        for _ in range(samples // 10_000):
            Y2 = rng.standard_normal((10_000, n)) ** 2
            hits += [np.count_nonzero((Y2 * s).max(axis=1) <= rep.threshold)
                     for s in scales]
        hits[0] = samples - hits[0]
        got = [rep.alpha, rep.beta_sigma1] + ([rep.beta_lambda] if probe else [])
        for est, h in zip(got, hits):
            ref = MonteCarloEstimate.from_counts(int(h), samples, 41)
            assert abs(est.p_hat - ref.p_hat) <= 4.0 * math.hypot(
                est.stderr, ref.stderr)

    @pytest.mark.parametrize("kind, normals, uniforms", [
        ("none", 1, 1), ("zero", 1, 1), ("two-hot", 1, 2), ("flat", 1, 1),
        ("distinct", 10_000, 0),
    ])
    def test_blocks_draw_one_uniform_per_row(
            self, monkeypatch, kind, normals, uniforms):
        # Coordinate 0 is always a block of one; a block of m >= 2 shares
        # one uniform per row.  With no blocks a row is n normals, as
        # before, and a shard 2^17 // n rows.
        n, samples = 10_000, 1_000
        spy = _DrawSpy()
        monkeypatch.setattr(simulate, "shard_stream", spy.stream)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
        example3_experiment(n, 1.0, samples, 1, self.probe(kind, n))
        rows = min(samples, _shard_rows(normals + uniforms))
        assert spy.normals[0] == (rows, normals)
        assert spy.uniforms[0] == (uniforms, rows)
        assert sum(size[0] for size in spy.normals) == samples

    @pytest.mark.parametrize("R", [1e-200, 1e-160, 1e200])
    def test_radius_out_of_float_range(self, R):
        # n R^2 underflows to 0, or to a subnormal that leaves the threshold
        # infinite, or overflows.
        with pytest.raises(OutOfRegime, match="n R\\^2"):
            example3_experiment(10, R, samples=2000)


class TestIntegerArguments:
    """samples, seed and example3's n must be integers, not floats."""

    RUNS = {
        "np": lambda **kw: estimate_error_probs(NpTest(_FLAT2, 0.3), **kw),
        "lemma1": lambda **kw: lemma1_check(Box(np.ones(2)), [1, 1], [1, 1], **kw),
        "example3": lambda **kw: example3_experiment(10, 1.0, **kw),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("given, name", [
        ({"samples": 2000.0}, "samples"), ({"samples": "2000"}, "samples"),
        ({"seed": 1.5}, "seed"), ({"seed": 1.0}, "seed"),
    ])
    def test_non_integers_rejected(self, run, given, name):
        with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
            self.RUNS[run](**{"samples": 2000, "seed": 1, **given})

    def test_example3_dimension_must_be_an_integer(self):
        with pytest.raises(InvalidInput, match="n must be an integer"):
            example3_experiment(100.0, 1.0, samples=2000)

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_numpy_integers_accepted(self, run):
        want = self.RUNS[run](samples=2000, seed=3)
        assert self.RUNS[run](samples=np.int64(2000), seed=np.uint64(3)) == want


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
        sigma = IntensityVector(np.linspace(0.2, 1.2, 256))
        stats = signal_statistics(sigma)
        test = NpTest(sigma, stats.T - stats.D + stats.B**0.5)
        assert 2 * _shard_rows(256) < 1_500 <= 3 * _shard_rows(256)
        assert estimate_error_probs(test, None, 1_500, 5).p_hat == 0.15333333333333332

    def test_bayes(self):
        prior = DiscretePrior(self.FLAT, np.array([0.5, 0.0, 0.5]))
        test = BayesTest(prior, 0.4)
        assert estimate_error_probs(test, None, 20_000, 3).p_hat == 0.1133
        assert estimate_error_probs(test, self.FLAT[0], 20_000, 3).p_hat == 0.7325
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
        assert estimate_error_probs(test, None, 20_000, 4).p_hat == 0.18765
        assert estimate_error_probs(test, self.FLAT[2], 20_000, 4).p_hat == 0.2653

    def test_glrt_and_bayes_at_benchmark_shape(self):
        # The mc-stat shape: 64 points on n = 16 coordinates, each with 2 to
        # 8 coordinates at one value.  Every coordinate is a block of one, so
        # a shard holds 2^17 // 16 rows and 200,000 samples take 25 shards.
        rng = np.random.default_rng(2018)
        points = []
        for _ in range(64):
            value = rng.uniform(0.5, 1.5)
            arr = np.zeros(16)
            arr[rng.choice(16, int(rng.integers(2, 9)), replace=False)] = value
            points.append(IntensityVector(arr))
        glrt = GlrtTest(FinitePoints(tuple(points)), rng.uniform(5.0, 7.0, 64))
        w = rng.uniform(0.5, 1.5, 64)
        bayes = BayesTest(DiscretePrior(tuple(points), w / w.sum()),
                          float(rng.uniform(1.5, 2.5)))
        assert simulate._blocks(glrt._W, np.ones(16))[0].size == 16
        assert 24 * _shard_rows(16) < 200_000 <= 25 * _shard_rows(16)
        assert estimate_error_probs(glrt, None, 200_000, 5).p_hat == 0.050345
        assert estimate_error_probs(bayes, None, 200_000, 5).p_hat == 0.002745
        assert estimate_error_probs(glrt, points[0], 200_000, 5).p_hat == 0.87529
        assert estimate_error_probs(bayes, points[0], 200_000, 5).p_hat == 0.9812

    def test_example3(self):
        probe = np.zeros(50)
        probe[[3, 17]] = 5.0
        assert 2_500 <= _shard_rows(3)  # one shard of 1 normal and 2 uniforms
        rep = example3_experiment(50, 1.0, 2_500, 11, IntensityVector(probe))
        assert rep.alpha.p_hat == 0.21
        assert rep.beta_sigma1.p_hat == 0.2492
        assert rep.beta_lambda.p_hat == 0.1488

    @pytest.mark.parametrize("n, top, samples, seed, want", [
        (50, 2.0, 2_500, 11, (0.218, 0.2404, 0.0224)),
        (256, 1.0, 1_500, 13, (0.18133333333333335, 0.13066666666666665,
                               0.2693333333333333)),
    ])
    def test_example3_all_distinct_probe_keeps_its_stream(
            self, n, top, samples, seed, want):
        # No two coordinates share their scales, so there are no blocks: one
        # normal per coordinate, 2^17 // n rows per shard (three shards at
        # n = 256), the values pinned before blocks.
        probe = IntensityVector(np.linspace(0.1, top, n))
        rep = example3_experiment(n, 1.0, samples, seed, probe)
        got = (rep.alpha.p_hat, rep.beta_sigma1.p_hat, rep.beta_lambda.p_hat)
        assert got == want

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
        # Coordinate 0 is drawn as a normal; the hot pair and the other 253
        # coordinates are two blocks, one uniform each: three columns.
        n = 256
        assert 2 * _shard_rows(3) < 100_000 <= 3 * _shard_rows(3)
        probe = np.zeros(n)
        probe[[5, 234]] = math.sqrt(n / 2.0)
        rep = example3_experiment(n, 1.0, 100_000, 13, IntensityVector(probe))
        assert rep.alpha.p_hat == 0.19394
        assert rep.beta_sigma1.p_hat == 0.13498
        assert rep.beta_lambda.p_hat == 0.04352

    def test_lemma1_five_dim_box_over_three_shards(self):
        # Each shard scales and tests its 13,107 rows one column at a time;
        # the values were taken when it did both row by row.
        assert 2 * _shard_rows(2 * 5) < 30_000 <= 3 * _shard_rows(2 * 5)
        assert simulate._by_columns(np.empty((_shard_rows(2 * 5), 5)))
        box = lemma1_check(
            Box(np.array([1.0, 0.5, 2.0, 1.5, 0.8])), [1.0, 0.5, 1.2, 1.0, 0.7],
            [0.4, 0.3, 0.9, 0.2, 0.6], 30_000, 17,
        )
        assert box.p_sum.p_hat == 0.17086666666666667
        assert box.p_xi.p_hat == 0.27126666666666666

    def test_example3_two_distinct_hot_values(self):
        # Coordinate 0 and the two hot coordinates are three normals, the
        # other 253 one block: four columns, four shards, each law tested
        # one normal column at a time; the values were taken when each law
        # was tested row by row.
        n = 256
        probe = np.zeros(n)
        probe[5], probe[234] = 8.0, math.sqrt(n - 64.0)
        assert 3 * _shard_rows(4) < 100_000 <= 4 * _shard_rows(4)
        assert simulate._by_columns(np.empty((_shard_rows(4), 3)))
        rep = example3_experiment(n, 1.0, 100_000, 19, IntensityVector(probe))
        assert rep.alpha.p_hat == 0.19679
        assert rep.beta_sigma1.p_hat == 0.13172
        assert rep.beta_lambda.p_hat == 0.04984

    def test_np_miss_over_three_shards(self):
        sigma = IntensityVector(np.linspace(0.2, 1.2, 256))
        lo, hi = signal_statistics(sigma).window
        test = NpTest(sigma, lo + 0.8 * (hi - lo))
        assert 2 * _shard_rows(256) < 1_500 <= 3 * _shard_rows(256)
        assert estimate_error_probs(test, sigma, 1_500, 8).p_hat == 0.198

    def test_lemma1_over_two_shards(self):
        assert _shard_rows(2 * 2) < 60_000 <= 2 * _shard_rows(2 * 2)
        box = lemma1_check(
            Box(np.array([1.0, 0.7])), [1, 1], [0.4, 0.6], 60_000, 3
        )
        assert box.p_sum.p_hat == 0.29256666666666664
        assert box.p_xi.p_hat == 0.35301666666666665


class TestPinnedOracle:
    """The exact oracle's outputs, pinned bit for bit (``float.hex``).

    The weights are geomspace(1, spread, n), and an NP test takes sigma^2
    proportional to them with sum sigma^2 = 3 sqrt(n), at the middle of its
    operating window.  Any change to the term count, the coefficients, the
    window searches or the summation order shows here; a change that moves
    these values on purpose re-pins them and says so.
    """

    # (n, spread): the cdf at x = sum(w) / 5, sum(w) and 3 sum(w).
    CDF = {
        (2, 1.0): ("0x1.733d4a7a67a9bp-3", "0x1.43a54e4e98864p-1",
                   "0x1.e6824f33314f5p-1"),
        (2, 2.0): ("0x1.853638a7afde3p-3", "0x1.48d2aa2cba50cp-1",
                   "0x1.e459ac247ee4ap-1"),
        (2, 100.0): ("0x1.5a92aff7977d1p-2", "0x1.5d863d39dc1ebp-1",
                     "0x1.d5e3bccda1cfbp-1"),
        (2, 10000.0): ("0x1.617fec2c02a0fp-2", "0x1.5d897a0f50612p-1",
                       "0x1.d55fb34c75bf3p-1"),
        (10, 1.0): ("0x1.dfb414dd16478p-9", "0x1.1e77aa051319fp-1",
                    "0x1.ff8fb7e407d74p-1"),
        (10, 2.0): ("0x1.04f0a5003dd40p-8", "0x1.2036e7ac05900p-1",
                    "0x1.ff5eb1181e085p-1"),
        (10, 100.0): ("0x1.01d7960afe7eep-5", "0x1.3a45b19a17387p-1",
                      "0x1.f57fcf133cc69p-1"),
        (10, 10000.0): ("0x1.d0ff7b7de5f9fp-4", "0x1.4b7ab1471de87p-1",
                        "0x1.e86c83eebac84p-1"),
        (100, 1.0): ("0x1.b5ef5c64bd967p-63", "0x1.09a13e57b0c81p-1",
                     "0x1.0000000000000p+0"),
        (100, 2.0): ("0x1.a48f6ac415960p-62", "0x1.0a2e8f32ac4bcp-1",
                     "0x1.0000000000000p+0"),
        (100, 100.0): ("0x1.00e7ce7f59a4ap-37", "0x1.1357f35cb6ebfp-1",
                       "0x1.ffffffa61e793p-1"),
        (100, 10000.0): ("0x1.6cdfec53c1936p-21", "0x1.1b0b1f537da9cp-1",
                         "0x1.fffd05d045a11p-1"),
        (1000, 1.0): ("0x1.8b1cb42d2b2c2p-590", "0x1.030b811c9dab4p-1",
                      "0x1.0000000000000p+0"),
        (1000, 2.0): ("0x1.8adba1d36b1e4p-446", "0x1.03384384ce972p-1",
                      "0x1.0000000000000p+0"),
        (1000, 100.0): ("0x0.0p+0", "0x1.062820064ce73p-1",
                        "0x1.0000000000000p+0"),
        (1000, 10000.0): ("0x0.0p+0", "0x1.08b1da227c050p-1",
                          "0x1.0000000000000p+0"),
    }
    # (n, spread): (alpha, beta).
    NP = {
        (2, 1.0): ("0x1.04da7cb53b54fp-3", "0x1.eed813d414f8cp-2"),
        (2, 2.0): ("0x1.f53575e89ffbap-4", "0x1.fa09bb52185d1p-2"),
        (2, 100.0): ("0x1.40c209174369ap-4", "0x1.1ea02bfc9d4c7p-1"),
        (2, 10000.0): ("0x1.3c8e5dd24f230p-4", "0x1.1e8aea09ca84fp-1"),
        (10, 1.0): ("0x1.2233b7618c331p-3", "0x1.50badc06d9e97p-2"),
        (10, 2.0): ("0x1.1ab711ebf3648p-3", "0x1.544ca957a2633p-2"),
        (10, 100.0): ("0x1.311b79740199dp-4", "0x1.979e38c13ce07p-2"),
        (10, 10000.0): ("0x1.60e7983adaf31p-5", "0x1.d1a873bab2fb5p-2"),
        (100, 1.0): ("0x1.28d07f9e24af9p-3", "0x1.b0bb08830fea0p-3"),
        (100, 2.0): ("0x1.203ee3b1c8093p-3", "0x1.aefaf3c66107dp-3"),
        (100, 100.0): ("0x1.0ad7bbc428cdap-4", "0x1.8c86cc452b735p-3"),
        (100, 10000.0): ("0x1.b6df76178f9f6p-6", "0x1.92caa57e03ae4p-3"),
        (1000, 1.0): ("0x1.287651797e75bp-3", "0x1.54f62c8f18731p-3"),
        (1000, 2.0): ("0x1.1f35a168aedffp-3", "0x1.4e4982d359b5bp-3"),
        (1000, 100.0): ("0x1.d2bedff5596aep-5", "0x1.95e1852369d44p-4"),
        (1000, 10000.0): ("0x1.12e7175728522p-6", "0x1.040322712a428p-4"),
    }

    @staticmethod
    def profile(n, spread):
        return np.geomspace(1.0, spread, n) if spread > 1 else np.ones(n)

    @pytest.mark.parametrize("n, spread", sorted(CDF))
    def test_cdf(self, n, spread):
        w = self.profile(n, spread)
        xs = [f * float(w.sum()) for f in (0.2, 1.0, 3.0)]
        assert tuple(weighted_chi2_cdf(w, x).hex() for x in xs) == self.CDF[n, spread]

    @pytest.mark.parametrize("n, spread", sorted(NP))
    def test_np_test(self, n, spread):
        w = self.profile(n, spread)
        sigma = IntensityVector(np.sqrt(w * 3.0 * math.sqrt(n) / w.sum()))
        lo, hi = signal_statistics(sigma).window
        test = NpTest(sigma, 0.5 * (lo + hi))
        got = tuple(p.hex() for p in np_test_exact_probs(test))
        assert got == self.NP[n, spread]

    def test_fault_c(self):
        # Flat sigma = 1, n = 50, A = 60: alpha is about 4.5e-18.
        alpha, beta = np_test_exact_probs(NpTest(IntensityVector(np.ones(50)), 60.0))
        assert (alpha.hex(), beta.hex()) == ("0x1.4a376ca10d6a5p-58", "0x1.ffeda0fe25632p-1")

class TestShardExecutor:
    """Shards run on min(shards, CPUs) threads with counts independent of it."""

    @staticmethod
    def events(rng, rows):
        Y = rng.standard_normal((rows, 3))
        return Y[:, 0] > 0.5, np.abs(Y).max(axis=1) < 1.0

    @classmethod
    def serial(cls, seed, samples, row_scalars):
        """The reference: per-shard counts summed one shard after another."""
        totals = [0, 0]
        for shard, rows in _shard_plan(samples, row_scalars):
            for i, e in enumerate(cls.events(shard_stream(seed, shard), rows)):
                totals[i] += int(np.count_nonzero(e))
        return totals

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_counts_do_not_depend_on_worker_count(self, monkeypatch, cpus):
        # Four shards of 1,024 rows and a short fifth: uneven strides.
        samples = 4 * _shard_rows(128) + 123
        serial = self.serial(9, samples, 128)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        assert _shard_counts(9, samples, 128, self.events) == serial

    @given(
        samples=st.integers(1_000, 3_000),
        row_scalars=st.integers(1, 2**18),
        cpus=st.sampled_from([1, 2, 3, 8]),
    )
    @example(samples=3_000, row_scalars=2**18, cpus=8)  # one-row shards
    @example(samples=2 * 1_024 + 1, row_scalars=128, cpus=2)  # a one-row last shard
    @settings(max_examples=25, deadline=None)
    def test_counts_equal_the_serial_shard_sum(self, samples, row_scalars, cpus):
        serial = self.serial(4, samples, row_scalars)
        with mock.patch.object(simulate, "_cpu_count", lambda: cpus):
            assert _shard_counts(4, samples, row_scalars, self.events) == serial

    def test_glrt_at_n16_spans_25_shards_at_any_worker_count(self, monkeypatch):
        # The mc-stat GLRT shape: 200k samples at n = 16 is 25 shards.
        rng = np.random.default_rng(5)
        points = FinitePoints(
            tuple(IntensityVector(rng.uniform(0.0, 1.5, 16)) for _ in range(8))
        )
        test = GlrtTest(points, rng.uniform(5.0, 7.0, 8))
        shards = []

        def stream(seed, shard):
            shards.append(shard)
            return shard_stream(seed, shard)

        monkeypatch.setattr(simulate, "shard_stream", stream)
        p_hats = []
        for cpus in (1, 2):
            monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
            p_hats.append(estimate_error_probs(test, None, 200_000, 3).p_hat)
        assert sorted(shards) == sorted(2 * list(range(25)))
        assert p_hats[0] == p_hats[1]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_example3_counts_do_not_depend_on_worker_count(self, monkeypatch, cpus):
        # Coordinates 0, 7 and 99 are blocks of one, drawn as normals; the
        # pair (300, 301) and the other 1,995 coordinates are blocks, one
        # uniform each: five columns, 26,214 rows per shard, three shards.
        # The reference draws each shard in that order and scores each law
        # as max_i scale_i y_i^2 <= threshold on the normals and U < F(c)^m
        # on each block's uniforms, F(c) = P(chi2_1 <= c).
        n, samples, seed = 2000, 60_000, 21
        probe = np.zeros(n)
        probe[7], probe[99] = math.sqrt(n / 2.0), math.sqrt(n / 3.0)
        probe[[300, 301]] = 1.0
        assert 2 * _shard_rows(5) < samples <= 3 * _shard_rows(5)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        rep = example3_experiment(n, 1.0, samples, seed, IntensityVector(probe))
        thr = rep.threshold
        rest, pair = float(chi2.cdf(thr, 1)) ** 1995, float(chi2.cdf(thr, 1)) ** 2
        laws = [  # (scales at 0, 7 and 99; P(block max <= threshold))
            (np.ones(3), (rest, pair)),
            (np.array([1.0 + n, 1.0, 1.0]), (rest, pair)),
            (1.0 + probe[[0, 7, 99]] ** 2,
             (rest, float(chi2.cdf(thr / 2.0, 1)) ** 2)),
        ]
        serial = [0, 0, 0]
        for shard, rows in _shard_plan(samples, 5):
            rng = shard_stream(seed, shard)
            Y2 = rng.standard_normal((rows, 3)) ** 2
            U = rng.random((2, rows))
            for i, (scale, p) in enumerate(laws):
                accepted = ((Y2 * scale).max(axis=1) <= thr) & (U[0] < p[0]) & (
                    U[1] < p[1])
                serial[i] += int(np.count_nonzero(accepted if i else ~accepted))
        estimates = (rep.alpha, rep.beta_sigma1, rep.beta_lambda)
        assert [e.p_hat for e in estimates] == [h / samples for h in serial]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_worker_runs_on_the_callers_thread(self, monkeypatch, cpus):
        samples = 3 * _shard_rows(128) + 7  # four shards
        threads = []

        def events(rng, rows):
            threads.append(threading.get_ident())
            return self.events(rng, rows)

        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        assert _shard_counts(2, samples, 128, events) == self.serial(2, samples, 128)
        assert len(threads) == 4
        on_caller = [t == threading.get_ident() for t in threads]
        assert on_caller == [cpus == 1] * 4

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
        error = InvalidInput("raised on a worker")
        threads = set()

        def events(rng, rows):
            threads.add(threading.get_ident())
            if rows < _shard_rows(128):  # the short last shard, on worker 2
                raise error
            return (np.zeros(rows, dtype=bool),)

        with pytest.raises(InvalidInput) as info:
            _shard_counts(1, 2 * _shard_rows(128) + 10, 128, events)
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
            _shard_counts(1, 10 * _shard_rows(128), 128, events)
        assert len(calls) == 2  # not the sleeping worker's other four shards
