"""Uncertainty-set reduction.

A candidate set can be shrunk to its componentwise-minimal (Pareto-minimal
under <=) subset without changing the mixture or max-ratio tests: any removed
point is dominated from below by a kept one, and the miss probability is
monotone along componentwise domination.  The module also provides the
geometric-mean partition certificate that extends this ordering beyond plain
componentwise comparison, and the canonical reductions of the two parametric
families (product floor to its flat corner point, sum floor to its one-hot
extreme points).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidInput
from .model import (
    CandidateSet,
    FinitePoints,
    IntensityVector,
    ProductFloor,
    SumFloor,
    _as_integer,
    check_same_length,
)
from .simulate import _COLUMN_ROWS

DOMINATES = "dominates"
INCOMPARABLE = "incomparable"

EXACT = "exact"
ASYMPTOTIC = "asymptotic"

MAX_PARTITION_SEARCH_N = 8

# Rounding slack of a computed geometric mean, in ulps per group member.
GEO_MEAN_ULPS = 4
_EPS = float(np.finfo(float).eps)

_SLAB_BOOLS = 1 << 20  # booleans one compare of reduce_to_minimal may hold


@dataclass(frozen=True)
class ReductionResult:
    """Pareto-minimal subset plus a witness for every removed point."""

    reduced: FinitePoints
    removed_count: int
    # index in the input -> index in `reduced` of a point dominating it from below
    witness_map: dict[int, int]


def dominance_check(sigma: IntensityVector, lam: IntensityVector) -> str:
    """"dominates" iff sigma <= lambda componentwise, else "incomparable".

    Domination implies beta(A, lambda) <= beta(A, sigma) for every level A,
    for both the matched and the designed-for-sigma test.
    """
    check_same_length(sigma, lam)
    return DOMINATES if bool(np.all(sigma.values <= lam.values)) else INCOMPARABLE


def _each_pair(holds, X: np.ndarray, rows, width: int, by_columns: bool) -> np.ndarray:
    """(len(rows), m) booleans: holds(x_j[k], x_i[k]) at every coordinate k,
    for each point i in ``rows`` (a slice or an index array) and every j.

    X holds the m points as rows, (m, n), or as columns, (n, m), when
    ``by_columns``; either way the reduction over k runs along X's
    contiguous axis.  Coordinates are taken ``width`` at a time, so no
    compare holds more than len(rows) * m * width booleans.
    """
    n = X.shape[0] if by_columns else X.shape[1]
    slab = None
    for k in range(0, n, width):
        if by_columns:
            c = X[k:k + width]
            part = np.logical_and.reduce(holds(c[:, None, :], c[:, rows, None]))
        else:
            c = X[:, k:k + width]
            part = np.all(holds(c[None, :, :], c[rows, None, :]), axis=-1)
        slab = part if slab is None else slab & part
    return slab


def reduce_to_minimal(candidates: FinitePoints) -> ReductionResult:
    """Componentwise-minimal subset of a finite candidate set.

    A point is removed when another lies componentwise below it; an exact
    duplicate counts only if it comes first, so duplicates collapse to
    their first occurrence.  Its witness is the first dominating input
    point, followed to the kept point it reaches.

    The points are compared in blocks of rows: one boolean (rows, m) slab
    marks every j below each i of the block.  It is reduced over the
    coordinates with the coordinates outermost when the block compares at
    least 2048 pairs per coordinate (``simulate._COLUMN_ROWS``, the rule of
    the Monte Carlo kernels), and row-wise otherwise.  Blocks and coordinate
    chunks are sized so that no compare holds more than ``_SLAB_BOOLS``
    (1M) booleans, whatever n, unless m alone exceeds it; the compares
    number O(m^2 n) in all.  Witness chains are followed by pointer
    doubling, O(m log m).
    """
    pts = candidates.points
    P = np.stack([p.values for p in pts])
    m, n = P.shape
    rows = min(m, max(1, _SLAB_BOOLS // (m * n)))
    width = max(1, _SLAB_BOOLS // (rows * m))
    by_columns = rows * m >= _COLUMN_ROWS * n
    X = np.ascontiguousarray(P.T) if by_columns else P
    first = np.arange(m)  # each point's first dominating point; itself if kept
    for a in range(0, m, rows):
        i = np.arange(a, min(a + rows, m))
        below = _each_pair(np.less_equal, X, slice(a, a + rows), width, by_columns)
        below[i - a, i] = False  # never its own witness
        j = below.argmax(axis=1)
        # A first dominator after i that equals it is a later duplicate, which
        # does not count; such a row has none before i, so every equal point
        # is cleared from it.
        late = np.flatnonzero(below[i - a, j] & (j > i))
        dup = late[np.all(P[j[late]] == P[i[late]], axis=1)]
        if dup.size:
            below[dup] &= ~_each_pair(np.equal, X, i[dup], width, by_columns)
            j[dup] = below[dup].argmax(axis=1)
        hit = below[i - a, j]
        first[i[hit]] = j[hit]
    kept = first == np.arange(m)
    root = first
    while not np.array_equal(hop := root[root], root):
        root = hop
    removed = np.flatnonzero(~kept)
    witness = (np.cumsum(kept) - 1)[root[removed]]
    return ReductionResult(
        reduced=FinitePoints(tuple(compress(pts, kept.tolist()))),
        removed_count=len(removed),
        witness_map=dict(zip(removed.tolist(), witness.tolist())),
    )


@dataclass(frozen=True)
class PartitionCertificate:
    """Geometric-mean partition certificate for the ordering of miss probabilities.

    groups partition the index set; geo_means[j] is the geometric mean of the
    lambda entries in group j.  The certificate is valid when every sigma_i
    within a group is at most the group's geometric mean, up to the rounding
    slack stated in ``lemma2_certificate``; validity implies
    beta(A, lambda) <= beta(A, sigma) for every level A.
    """

    groups: tuple[tuple[int, ...], ...]
    geo_means: tuple[float, ...]
    valid: bool


def _read_group(group, name: str) -> tuple[int, ...]:
    """A group's indices as Python ints; one that is not all ints is read
    entry by entry with ``_as_integer``."""
    g = tuple(group.tolist() if isinstance(group, np.ndarray) else group)
    return g if {int}.issuperset(map(type, g)) else tuple(
        map(_as_integer, g, repeat(name)))


def _partition_fault(parts: tuple[tuple[int, ...], ...], n: int) -> str:
    """What is wrong with a partition of range(n), at its first bad index."""
    seen: set[int] = set()
    for g in parts:
        if not g:
            return "empty group in partition"
        for i in g:
            if not 0 <= i < n:
                return f"index {i} out of range for n = {n}"
            if i in seen:
                return f"index {i} repeated in partition"
            seen.add(i)
    return "partition does not cover all indices"


def _read_partition(
    groups: Sequence[Sequence[int]], n: int
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The groups as tuples of indices, each read by ``_as_integer``, and
    their concatenation as an array, once they are checked to partition
    range(n).

    The range, repeat and cover checks run on the concatenated indices at
    once; a partition that fails them is walked index by index to name the
    first bad one.
    """
    try:
        parts = tuple(_read_group(g, f"groups[{j}] entry")
                      for j, g in enumerate(groups))
    except TypeError:  # groups, or one of its groups, is not iterable
        raise InvalidInput("groups must be an array of arrays of integers") from None
    size = sum(map(len, parts))
    try:
        flat = np.fromiter(chain.from_iterable(parts), np.int64, size)
    except OverflowError:  # an index beyond 64 bits is out of range
        flat = None
    if (flat is None or size != n or not all(parts)
            or flat.min() < 0 or flat.max() >= n
            or np.bincount(flat).max() > 1):
        raise InvalidInput(_partition_fault(parts, n))
    return parts, flat


def lemma2_certificate(
    sigma: IntensityVector,
    lam: IntensityVector,
    groups: Sequence[Sequence[int]],
) -> PartitionCertificate:
    """Build and validate the partition certificate for (sigma, lambda).

    The geometric mean of a group g is computed as exp(mean ln lambda_i),
    which rounding (ln, the mean, exp) can put up to about
    |g| eps max(1, |mean ln lambda_i|) relative off its true value, eps
    the float64 machine epsilon (exp turns the absolute error of the
    log-mean into a relative one).  So sigma_i counts as at most the
    geometric mean gm when

        sigma_i <= gm (1 + GEO_MEAN_ULPS |g| eps max(1, |mean ln lambda_i|))

    with GEO_MEAN_ULPS = 4: lambda against itself always gives a valid
    certificate, while an excess of 1e-9 relative stays invalid.
    """
    check_same_length(sigma, lam)
    groups, flat = _read_partition(groups, sigma.n)
    geo_means = []
    valid = True
    end = 0
    for g in groups:
        idx = flat[end:end + len(g)]
        end += len(g)
        vals = lam.values[idx]
        if np.all(vals > 0):
            mean_log = float(np.mean(np.log(vals)))
            gm = float(np.exp(mean_log))
            slack = GEO_MEAN_ULPS * idx.size * _EPS * max(1.0, abs(mean_log))
        else:
            gm, slack = 0.0, 0.0
        geo_means.append(gm)
        if np.any(sigma.values[idx] > gm * (1.0 + slack)):
            valid = False
    return PartitionCertificate(
        groups=groups,
        geo_means=tuple(geo_means),
        valid=valid,
    )


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def find_lemma2_certificate(
    sigma: IntensityVector, lam: IntensityVector
) -> Optional[PartitionCertificate]:
    """Exhaustive partition search for a valid certificate; n <= 8 only.

    The search is exponential (Bell numbers) and no selection rule is known,
    so it is intentionally capped at small dimensions.
    """
    if sigma.n > MAX_PARTITION_SEARCH_N:
        raise InvalidInput(
            f"partition search supported only for n <= {MAX_PARTITION_SEARCH_N}"
        )
    for part in _set_partitions(list(range(sigma.n))):
        cert = lemma2_certificate(sigma, lam, part)
        if cert.valid:
            return cert
    return None


@dataclass(frozen=True)
class CanonicalReduction:
    """Reduced point set plus the equality notion the reduction carries.

    equality_notion is "exact" when the reduced set attains the same minimax
    miss probability at every level, "asymptotic" when equality holds only
    in the logarithmic large-n sense.  Reports must not overclaim the latter.
    """

    points: FinitePoints
    equality_notion: str


def canonical_reduction(candidates: CandidateSet) -> CanonicalReduction:
    """Reduce a candidate set to the finite point set that represents it.

    ProductFloor(n, D) -> {(D, ..., D)}, exact equality.
    SumFloor(n, R) -> the n one-hot vectors with value R*sqrt(n),
    asymptotic equality.  A finite set is reduced to its Pareto-minimal
    subset (exact).
    """
    if isinstance(candidates, ProductFloor):
        return CanonicalReduction(candidates.witness_points(), EXACT)
    if isinstance(candidates, SumFloor):
        return CanonicalReduction(candidates.one_hot_points(), ASYMPTOTIC)
    if isinstance(candidates, FinitePoints):
        return CanonicalReduction(reduce_to_minimal(candidates).reduced, EXACT)
    raise InvalidInput(f"unsupported candidate set {type(candidates).__name__}")
