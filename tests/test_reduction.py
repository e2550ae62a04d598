"""Unit tests for candidate-set reduction and domination certificates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausdet import (
    FinitePoints,
    IntensityVector,
    ProductFloor,
    SumFloor,
    canonical_reduction,
    dominance_check,
    find_lemma2_certificate,
    lemma2_certificate,
    reduce_to_minimal,
)
from gausdet import reduction
from gausdet.errors import DimensionMismatch, InvalidInput
from gausdet.reduction import ASYMPTOTIC, DOMINATES, EXACT, INCOMPARABLE


def finite(*rows):
    return FinitePoints(tuple(IntensityVector(np.asarray(r, float)) for r in rows))


def reference_reduce(candidates):
    """The per-point loop reduce_to_minimal used before it compared blocks
    of points: (kept points, removed count, witness map)."""
    pts = candidates.points
    P = np.stack([p.values for p in pts])
    m = len(pts)
    kept_in = []
    witness = {}
    for i in range(m):
        below = np.all(P <= P[i], axis=1)
        below[i:] &= ~np.all(P[i:] == P[i], axis=1)  # a duplicate counts before i
        if below.any():
            witness[i] = int(np.argmax(below))  # the first dominating point
        else:
            kept_in.append(i)
    pos = {i: k for k, i in enumerate(kept_in)}
    out_witness = {}
    for i, j in witness.items():
        while j not in pos:
            j = witness[j]
        out_witness[i] = pos[j]
    return tuple(pts[i] for i in kept_in), m - len(kept_in), out_witness


def assert_matches_reference(cand):
    """reduce_to_minimal gives the loop's kept objects in order, its removed
    count, and its witness map in the same order, in Python ints."""
    kept, removed_count, witness = reference_reduce(cand)
    res = reduce_to_minimal(cand)
    assert len(res.reduced.points) == len(kept)
    assert all(a is b for a, b in zip(res.reduced.points, kept))
    assert res.removed_count == removed_count
    assert list(res.witness_map.items()) == list(witness.items())
    assert {type(v) for kv in res.witness_map.items() for v in kv} <= {int}


def descending_chain(m, n):
    """m points, each strictly above the next in every coordinate."""
    return np.repeat(np.arange(m, 0, -1.0)[:, None], n, axis=1)


def grid_points(m):
    """m 3-D integer points near the plane x + y + z = 14: many minimal
    points, and ties, duplicates and chains among the rest."""
    rng = np.random.default_rng(36)
    xy = rng.integers(0, 8, (m, 2))
    z = 14 - xy.sum(axis=1) + rng.integers(0, 3, m)
    return np.column_stack([xy, z]).astype(float)


def long_points(m, n, seed):
    """m random points of length n: a duplicate, a dominated point and, from
    m = 5, two that are above the first but in their first or last
    coordinate."""
    P = np.random.default_rng(seed).uniform(0.5, 1.5, (m, n))
    P[m - 1] = P[0]
    P[1] = P[0] + 0.25
    if m >= 5:
        P[2:4] = P[0] + 0.25
        P[2, 0] = P[3, -1] = 0.25
    return P


class TestDominance:
    def test_equality_dominates(self):
        a = IntensityVector([1.0, 2.0])
        assert dominance_check(a, a) == DOMINATES

    def test_strict_domination(self):
        assert dominance_check(
            IntensityVector([1.0, 2.0]), IntensityVector([1.5, 2.0])
        ) == DOMINATES

    def test_incomparable(self):
        assert dominance_check(
            IntensityVector([1.0, 2.0]), IntensityVector([2.0, 1.0])
        ) == INCOMPARABLE

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dominance_check(IntensityVector([1.0]), IntensityVector([1.0, 1.0]))


class TestReduceToMinimal:
    def test_singleton(self):
        res = reduce_to_minimal(finite([1.0, 2.0]))
        assert len(res.reduced) == 1
        assert res.removed_count == 0
        assert res.witness_map == {}

    def test_known_example(self):
        res = reduce_to_minimal(finite([1, 2], [2, 3], [3, 1]))
        kept = [p.values.tolist() for p in res.reduced.points]
        assert kept == [[1.0, 2.0], [3.0, 1.0]]
        assert res.removed_count == 1
        assert res.witness_map == {1: 0}

    def test_duplicates_collapse_to_first(self):
        res = reduce_to_minimal(finite([1, 1], [1, 1], [1, 1]))
        assert len(res.reduced) == 1
        assert res.removed_count == 2
        assert res.witness_map == {1: 0, 2: 0}

    def test_witness_chain_resolution(self):
        # 2 dominated by 1 dominated by 0: all witnesses point at index 0.
        res = reduce_to_minimal(finite([1, 1], [2, 2], [3, 3]))
        assert res.witness_map == {1: 0, 2: 0}

    def test_witnesses_actually_dominate(self):
        rng = np.random.default_rng(23)
        pts = [rng.uniform(0.0, 2.0, size=3) for _ in range(12)]
        cand = finite(*pts)
        res = reduce_to_minimal(cand)
        for removed, kept in res.witness_map.items():
            w = res.reduced.points[kept].values
            assert np.all(w <= cand.points[removed].values)
        assert len(res.reduced) + res.removed_count == 12

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        min_size=1, max_size=40)))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_reference(self, rows):
        # A small grid gives many ties, duplicates and witness chains.
        m = len(rows)
        first = {}  # i -> the first j below rows[i]; an equal j only if j < i
        for i in range(m):
            for j in range(m):
                below = all(a <= b for a, b in zip(rows[j], rows[i]))
                if j != i and below and (j < i or rows[j] != rows[i]):
                    first[i] = j
                    break
        kept = [i for i in range(m) if i not in first]
        witness = {}
        for i, j in first.items():
            while j in first:
                j = first[j]
            witness[i] = kept.index(j)
        res = reduce_to_minimal(finite(*rows))
        assert [p.values.tolist() for p in res.reduced.points] == [
            [float(v) for v in rows[i]] for i in kept]
        assert res.removed_count == m - len(kept)
        assert res.witness_map == witness

    @given(
        st.lists(
            st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50)
    def test_idempotent(self, rows):
        cand = finite(*rows)
        once = reduce_to_minimal(cand)
        twice = reduce_to_minimal(once.reduced)
        assert twice.removed_count == 0
        assert [p.values.tolist() for p in twice.reduced.points] == [
            p.values.tolist() for p in once.reduced.points
        ]


class TestBlockedReduction:
    """reduce_to_minimal against the per-point loop, on shapes that cross
    block boundaries and take both layouts of the all-pairs compare."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: grid_points(1500), id="grid-1500x3"),
        pytest.param(lambda: descending_chain(3000, 3), id="chain-3000x3"),
        pytest.param(lambda: long_points(3, 200_000, 1), id="3x200000"),
        pytest.param(lambda: long_points(5, 400_000, 2), id="5x400000-coordinate-chunks"),
        pytest.param(lambda: long_points(40, 5_000, 3), id="40x5000"),
    ])
    def test_matches_per_point_loop(self, make):
        assert_matches_reference(finite(*make()))

    @pytest.mark.parametrize("column_rows", [0, 10**9], ids=["by-coordinate", "row-wise"])
    @pytest.mark.parametrize("budget", [7, 1 << 20], ids=["tiny-blocks", "default-blocks"])
    @pytest.mark.parametrize("P", [
        pytest.param(grid_points(300), id="grid-300x3"),
        pytest.param(long_points(6, 50, 4), id="6x50"),
    ])
    def test_each_layout_and_block_size(self, P, column_rows, budget, monkeypatch):
        monkeypatch.setattr(reduction, "_COLUMN_ROWS", column_rows)
        monkeypatch.setattr(reduction, "_SLAB_BOOLS", budget)
        assert_matches_reference(finite(*P))

    def test_grid_has_ties_duplicates_and_chains(self):
        P = grid_points(1500)
        res = reduce_to_minimal(finite(*P))
        assert 10 < len(res.reduced) < 1500 - 10
        assert len(np.unique(P, axis=0)) < 1500

    def test_descending_chain_keeps_its_last_point(self):
        res = reduce_to_minimal(finite(*descending_chain(3000, 3)))
        assert len(res.reduced) == 1 and res.removed_count == 2999
        assert res.reduced.points[0].values.tolist() == [1.0, 1.0, 1.0]
        assert res.witness_map == dict.fromkeys(range(2999), 0)

    def test_peak_memory_is_bounded(self):
        # An (m, m) boolean mask of this chain alone would take 25 MB.
        cand = finite(*descending_chain(5000, 2))
        tracemalloc.start()
        try:
            res = reduce_to_minimal(cand)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.removed_count == 4999
        assert peak < 16 * 2**20, peak


class TestLemma2Certificate:
    def test_valid_single_group(self):
        sigma = IntensityVector([1.0, 1.0])
        lam = IntensityVector([0.5, 4.0])  # geometric mean sqrt(2) > 1
        cert = lemma2_certificate(sigma, lam, [[0, 1]])
        assert cert.valid
        assert cert.geo_means[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_invalid_when_sigma_exceeds_geo_mean(self):
        sigma = IntensityVector([2.0, 2.0])
        lam = IntensityVector([0.5, 4.0])
        cert = lemma2_certificate(sigma, lam, [[0, 1]])
        assert not cert.valid

    def test_zero_lambda_gives_zero_geo_mean(self):
        sigma = IntensityVector([0.5, 0.5])
        lam = IntensityVector([0.0, 4.0])
        cert = lemma2_certificate(sigma, lam, [[0, 1]])
        assert cert.geo_means[0] == 0.0
        assert not cert.valid

    def test_self_certificate_valid_despite_rounding(self):
        # exp(mean(ln D)) can round one ulp below D; the flat corner point
        # certified against itself must still be valid.
        rng = np.random.default_rng(11)
        cases = [(5, 1.548219614885789)] + [
            (int(n), float(D))
            for n, D in zip(
                rng.integers(1, 65, 10_000), np.exp(rng.uniform(-7.0, 7.0, 10_000))
            )
        ]
        for n, D in cases:
            point = IntensityVector(np.full(n, D))
            assert lemma2_certificate(point, point, [list(range(n))]).valid, (n, D)

    def test_excess_above_rounding_stays_invalid(self):
        lam = IntensityVector([0.5, 4.0, 1.548219614885789, 2.0, 0.7])
        gm = math.exp(np.mean(np.log(lam.values)))
        sigma = IntensityVector(np.full(5, gm * (1.0 + 1e-9)))
        cert = lemma2_certificate(sigma, lam, [list(range(5))])
        assert not cert.valid

    def test_partition_validation(self):
        sigma = IntensityVector([1.0, 1.0])
        lam = IntensityVector([1.0, 1.0])
        with pytest.raises(InvalidInput, match="empty group"):
            lemma2_certificate(sigma, lam, [[0, 1], []])
        with pytest.raises(InvalidInput, match="repeated"):
            lemma2_certificate(sigma, lam, [[0, 0], [1]])
        with pytest.raises(InvalidInput, match="out of range"):
            lemma2_certificate(sigma, lam, [[0, 2]])
        with pytest.raises(InvalidInput, match="cover"):
            lemma2_certificate(sigma, lam, [[0]])
        with pytest.raises(DimensionMismatch):
            lemma2_certificate(sigma, IntensityVector([1.0]), [[0, 1]])

    @pytest.mark.parametrize("n, groups, message", [
        (2, [[0, 0]], "index 0 repeated in partition"),
        (2, [[0, 1, 1, 5]], "index 1 repeated in partition"),
        (2, [[0, 5, 1, 1]], "index 5 out of range for n = 2"),
        (3, [[-1, 0, 1]], "index -1 out of range for n = 3"),
        (2, [[0], [2**70, 1]], f"index {2**70} out of range for n = 2"),
        (2, [[0], [], [5]], "empty group in partition"),
        (2, [[0, 7], []], "index 7 out of range for n = 2"),
        (2, [], "partition does not cover all indices"),
        (3, [[2, 0]], "partition does not cover all indices"),
        (2, [np.array([0, 0])], "index 0 repeated in partition"),
    ])
    def test_first_bad_index_is_named(self, n, groups, message):
        sigma = IntensityVector(np.ones(n))
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            lemma2_certificate(sigma, sigma, groups)

    @pytest.mark.parametrize("group", [
        np.array([1, 0], dtype=np.uint8), (np.int64(1), 0), range(2),
    ])
    def test_integer_groups_of_any_kind_accepted(self, group):
        ones = IntensityVector([1.0, 1.0])
        cert = lemma2_certificate(ones, ones, [group])
        assert cert.groups == ((1, 0),) if group[0] else ((0, 1),)
        assert all(type(i) is int for i in cert.groups[0]) and cert.valid

    @pytest.mark.parametrize("group", [
        np.array([True, False]), np.array([0.0, 1.0]), [0, True], [np.True_, 0],
    ])
    def test_bool_and_float_groups_rejected(self, group):
        ones = IntensityVector([1.0, 1.0])
        with pytest.raises(InvalidInput, match=r"^groups\[0\] entry must be an integer$"):
            lemma2_certificate(ones, ones, [group])

    def test_one_group_of_a_million_permuted(self):
        n = 10**6
        point = IntensityVector(np.full(n, 0.7))
        order = np.random.default_rng(3).permutation(n)
        assert lemma2_certificate(point, point, [order.tolist()]).valid
        order[123_456] = order[654_321]
        with pytest.raises(InvalidInput,
                           match=f"^index {order[123_456]} repeated in partition$"):
            lemma2_certificate(point, point, [order])


class TestFindCertificate:
    def test_found_for_dominated_pair(self):
        sigma = IntensityVector([0.5, 0.5, 0.5])
        lam = IntensityVector([1.0, 2.0, 3.0])
        cert = find_lemma2_certificate(sigma, lam)
        assert cert is not None and cert.valid

    def test_found_only_with_grouping(self):
        # sigma exceeds one lambda entry, so singleton groups fail, but one
        # combined group has geometric mean 2 > sigma.
        sigma = IntensityVector([1.5, 1.5])
        lam = IntensityVector([1.0, 4.0])
        cert = find_lemma2_certificate(sigma, lam)
        assert cert is not None and cert.valid
        assert cert.groups == ((1, 0),) or cert.groups == ((0, 1),)

    def test_none_when_impossible(self):
        sigma = IntensityVector([3.0, 3.0])
        lam = IntensityVector([1.0, 1.0])
        assert find_lemma2_certificate(sigma, lam) is None

    def test_dimension_cap(self):
        big = IntensityVector(np.ones(9))
        with pytest.raises(InvalidInput):
            find_lemma2_certificate(big, big)


class TestCanonicalReduction:
    def test_product_floor_exact(self):
        red = canonical_reduction(ProductFloor(4, 1.5))
        assert red.equality_notion == EXACT
        assert len(red.points) == 1
        np.testing.assert_allclose(red.points.points[0].values, np.full(4, 1.5))

    def test_sum_floor_asymptotic(self):
        red = canonical_reduction(SumFloor(3, 2.0))
        assert red.equality_notion == ASYMPTOTIC
        assert len(red.points) == 3
        for p in red.points.points:
            assert float(np.max(p.values)) == pytest.approx(2.0 * math.sqrt(3.0))

    def test_finite_points_pareto(self):
        red = canonical_reduction(finite([1, 2], [2, 3]))
        assert red.equality_notion == EXACT
        assert len(red.points) == 1

    def test_unsupported_type(self):
        with pytest.raises(InvalidInput):
            canonical_reduction("not a set")
