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
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidInput
from .model import (
    CandidateSet,
    FinitePoints,
    IntensityVector,
    ProductFloor,
    SumFloor,
    check_same_length,
)

DOMINATES = "dominates"
INCOMPARABLE = "incomparable"

EXACT = "exact"
ASYMPTOTIC = "asymptotic"

MAX_PARTITION_SEARCH_N = 8

# Rounding slack of a computed geometric mean, in ulps per group member.
GEO_MEAN_ULPS = 4
_EPS = float(np.finfo(float).eps)


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


def reduce_to_minimal(candidates: FinitePoints) -> ReductionResult:
    """Componentwise-minimal subset of a finite candidate set.

    Exact duplicates collapse to one representative.  Pairwise scan,
    O(m^2 n); candidate sets here are small.
    """
    pts = candidates.points
    m = len(pts)
    kept_in: list[int] = []  # input indices of kept points
    witness: dict[int, int] = {}
    for i in range(m):
        dominated_by: Optional[int] = None
        for j in range(m):
            if i == j:
                continue
            if bool(np.all(pts[j].values <= pts[i].values)):
                if pts[j] == pts[i]:
                    if j < i:  # duplicate: keep the first occurrence only
                        dominated_by = j
                        break
                else:
                    dominated_by = j
                    break
        if dominated_by is None:
            kept_in.append(i)
        else:
            witness[i] = dominated_by
    # Re-point witnesses at kept points (follow chains through removed ones).
    pos = {i: k for k, i in enumerate(kept_in)}
    out_witness: dict[int, int] = {}
    for i, j in witness.items():
        while j not in pos:
            j = witness[j]
        out_witness[i] = pos[j]
    reduced = FinitePoints(tuple(pts[i] for i in kept_in))
    return ReductionResult(
        reduced=reduced, removed_count=m - len(kept_in), witness_map=out_witness
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


def _check_partition(groups: Sequence[Sequence[int]], n: int) -> None:
    seen: set[int] = set()
    for g in groups:
        if not g:
            raise InvalidInput("empty group in partition")
        for i in g:
            if not 0 <= i < n:
                raise InvalidInput(f"index {i} out of range for n = {n}")
            if i in seen:
                raise InvalidInput(f"index {i} repeated in partition")
            seen.add(i)
    if len(seen) != n:
        raise InvalidInput("partition does not cover all indices")


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
    _check_partition(groups, sigma.n)
    geo_means = []
    valid = True
    for g in groups:
        idx = np.asarray(g, dtype=int)
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
        groups=tuple(tuple(int(i) for i in g) for g in groups),
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
