"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Every expected value is recomputed from an independent oracle (incomplete
gamma / normal CDF closed forms, fixed-seed Monte Carlo), never from the
implementation under test.  Run with ``pytest -s`` to see the criterion
lines; each test also enforces its stated runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc, ndtr

from gausdet import (
    Box,
    Ellipsoid,
    IntensityVector,
    NpTest,
    ProductFloor,
    beta_lower_bound,
    canonical_reduction,
    chi2_lower_tail_sandwich,
    chi2_upper_tail_sandwich,
    estimate_error_probs,
    example3_experiment,
    lemma1_check,
    lemma2_certificate,
    normal_tail_bounds,
    np_test_exact_probs,
    prop4_threshold,
    signal_statistics,
    solve_u0,
    weighted_chi2_cdf,
)
from gausdet.errors import OutOfRegime
from gausdet.exponents import INTERIOR
from gausdet.simulate import _shard_plan, shard_stream


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {num} ({name}): {detail}")


def mid_window_level(sigma):
    lo, hi = signal_statistics(sigma).window
    return 0.5 * (lo + hi)


def test_criterion_01_beta_sandwich_vs_monte_carlo():
    t0 = time.monotonic()
    n = 200
    sigma = IntensityVector(np.ones(n))
    A = mid_window_level(sigma)
    res = beta_lower_bound(sigma, A)
    est = estimate_error_probs(NpTest(sigma, A), sigma, samples=10**6, seed=1)
    ln_beta = math.log(est.p_hat)
    slack = 3.0 * est.stderr / est.p_hat
    lo = res.interval.lower - slack
    hi = res.interval.upper + slack
    elapsed = time.monotonic() - t0
    ok = lo <= ln_beta <= hi and elapsed < 30.0
    report(
        1,
        "ln(beta) sandwich vs 1e6-sample MC",
        ok,
        f"ln_beta_hat={ln_beta:.4f} in [{lo:.4f}, {hi:.4f}], "
        f"elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_chi2_lower_tail_sandwich():
    t0 = time.monotonic()
    worst = math.inf
    ok = True
    for n in (1, 2, 5, 20, 50, 200):
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            A = frac * n
            exact = math.log(float(gammainc(n / 2.0, A / 2.0)))
            sw = chi2_lower_tail_sandwich(A, n)
            ok = ok and sw.lower <= exact <= sw.upper
            worst = min(worst, exact - sw.lower, sw.upper - exact)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(
        2,
        "chi-square lower-tail sandwich, 30-point grid",
        ok,
        f"worst margin={worst:.4g} nats, elapsed={elapsed:.3f}s",
    )
    assert ok


def test_criterion_03_chi2_upper_tail_sandwich():
    t0 = time.monotonic()
    worst = math.inf
    ok = True
    for n in (2, 5, 20, 50, 200):
        for mult in (1.0, 1.5, 2.0, 3.0, 5.0):
            A = mult * n
            exact = math.log(float(gammaincc(n / 2.0, A / 2.0)))
            sw = chi2_upper_tail_sandwich(A, n)
            ok = ok and sw.lower <= exact <= sw.upper
            worst = min(worst, exact - sw.lower, sw.upper - exact)
    # n = 1 is outside the sandwich's validity range by construction.
    with pytest.raises(OutOfRegime):
        chi2_upper_tail_sandwich(2.0, 1)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(
        3,
        "chi-square upper-tail sandwich, grid with n >= 2",
        ok,
        f"worst margin={worst:.4g} nats, n=1 raises OutOfRegime, "
        f"elapsed={elapsed:.3f}s",
    )
    assert ok


def test_criterion_04_gaussian_tail_sandwich():
    ok = True
    for z in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0):
        sw = normal_tail_bounds(z)
        q = float(ndtr(-z))
        ok = ok and sw.lower <= q <= sw.upper
    report(4, "Gaussian tail sandwich on z grid", ok, "exact Q(z) inside bounds")
    assert ok


def test_criterion_05_berry_esseen_contract():
    from gausdet import berry_esseen_alpha

    t0 = time.monotonic()
    rng = np.random.default_rng(2025)
    ok = True
    worst = -math.inf
    for k in range(20):
        n = int(rng.integers(20, 121))
        sigma = IntensityVector(rng.uniform(0.5, 1.8, size=n))
        stats = signal_statistics(sigma)
        A = stats.T - stats.D + float(rng.uniform(0.3, 2.0)) * math.sqrt(
            stats.B
        )
        approx, guarantee = berry_esseen_alpha(sigma, A)
        est = estimate_error_probs(
            NpTest(sigma, A), None, samples=10**5, seed=100 + k
        )
        gap = abs(est.p_hat - approx)
        budget = guarantee + 3.0 * est.stderr
        ok = ok and gap <= budget
        worst = max(worst, gap - budget)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(
        5,
        "normal approximation of alpha with 5/sqrt(B) guarantee",
        ok,
        f"worst excess={worst:.4g} (<= 0 required), elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_06_alpha_cap_at_threshold_level():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    ok = True
    worst = -math.inf
    for k in range(10):
        n = int(rng.integers(80, 301))
        sigma = IntensityVector(rng.uniform(0.8, 2.0, size=n))
        stats = signal_statistics(sigma)
        assert stats.B > 20.0
        a_star, cap = prop4_threshold(sigma)
        est = estimate_error_probs(
            NpTest(sigma, a_star), None, samples=20_000, seed=200 + k
        )
        excess = est.p_hat - (cap + 3.0 * est.stderr)
        ok = ok and excess <= 0.0
        worst = max(worst, excess)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(
        6,
        "alpha <= 6/sqrt(B) at the threshold level",
        ok,
        f"worst excess={worst:.4g} (<= 0 required), elapsed={elapsed:.1f}s",
    )
    assert ok


def _certified_pair(rng, n=5):
    """Random (sigma, lambda, groups) with a valid partition certificate."""
    lam = rng.uniform(0.6, 2.2, size=n)
    order = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=rng.integers(0, 3),
                             replace=False).tolist())
    groups = [order[a:b].tolist() for a, b in
              zip([0] + cuts, cuts + [n])]
    sigma = np.empty(n)
    for g in groups:
        gm = float(np.exp(np.mean(np.log(lam[g]))))
        sigma[g] = gm * rng.uniform(0.55, 1.0, size=len(g))
    return IntensityVector(sigma), IntensityVector(lam), groups


def test_criterion_07_certified_miss_monotonicity():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    ok = True
    worst = -math.inf
    for k in range(20):
        sigma, lam, groups = _certified_pair(rng)
        cert = lemma2_certificate(sigma, lam, groups)
        assert cert.valid  # construction guarantees it
        lo, hi = signal_statistics(sigma).window
        for j, frac in enumerate((0.3, 0.5, 0.7)):
            A = lo + frac * (hi - lo)
            b_lam = estimate_error_probs(
                NpTest(lam, A), lam, samples=30_000, seed=1000 + 10 * k + j
            )
            b_sig = estimate_error_probs(
                NpTest(sigma, A), sigma, samples=30_000, seed=2000 + 10 * k + j
            )
            slack = 3.0 * math.hypot(b_lam.stderr, b_sig.stderr)
            excess = b_lam.p_hat - (b_sig.p_hat + slack)
            ok = ok and excess <= 0.0
            worst = max(worst, excess)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(
        7,
        "certified pairs: beta(A, lambda) <= beta(A, sigma)",
        ok,
        f"worst excess={worst:.4g} (<= 0 required), elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_08_product_floor_reduction():
    rng = np.random.default_rng(13)
    D = 1.5
    ok = True
    for n in (1, 3, 10):
        red = canonical_reduction(ProductFloor(n, D))
        point = red.points.points[0]
        ok = ok and red.equality_notion == "exact"
        ok = ok and point.values.tolist() == [D] * n
        # Sampled boundary points of the floor (a hair inside, so float
        # rounding cannot flip the exact certificate comparison): the
        # certificate is checked on the transformed variances nu that the
        # designed-for-corner-point test actually sees under lambda.
        for _ in range(5):
            x = rng.uniform(0.05, 1.0, size=n)
            x *= n * math.log1p(D * D) * (1.0 + 1e-9) / float(np.sum(x))
            lam2 = np.expm1(x)
            nu = D * np.sqrt((1.0 + lam2) / (1.0 + D * D))
            cert = lemma2_certificate(
                point, IntensityVector(nu), [list(range(n))]
            )
            ok = ok and cert.valid
    report(
        8,
        "product floor reduces exactly to its corner point",
        ok,
        "corner point and boundary certificates valid for n in {1, 3, 10}",
    )
    assert ok


def test_criterion_09_sum_floor_experiment_at_scale():
    t0 = time.monotonic()
    n = 10**4
    rep = example3_experiment(n, 1.0, samples=10**5, seed=1)
    alpha_ok = rep.alpha.p_hat <= rep.alpha_bound + 3.0 * rep.alpha.stderr
    beta_ok = (
        rep.beta_sigma1.p_hat
        <= rep.beta_bound + 3.0 * rep.beta_sigma1.stderr
    )
    pred_ok = (
        abs(rep.beta_sigma1.p_hat - rep.beta_predictor)
        <= 3.0 * rep.beta_sigma1.stderr
    )
    # Asymptotic equal-exponent claim: no finite-n pass/fail exists, so emit
    # the log-miss-ratio diagnostic from a cheaper run against a two-hot
    # probe on the same floor.  The flat probe's miss at n = 1e4 is about
    # 3.5e-11, far below what 1e4 samples can resolve: its estimate reads 0.
    probe_vals = np.zeros(n)
    probe_vals[:2] = math.sqrt(n / 2.0)
    diag = example3_experiment(
        n, 1.0, samples=10_000, seed=1,
        probe_lambda=IntensityVector(probe_vals),
    )
    elapsed = time.monotonic() - t0
    ok = alpha_ok and beta_ok and pred_ok and elapsed < 120.0
    report(
        9,
        "sum-floor max-ratio test at n=1e4",
        ok,
        f"alpha_hat={rep.alpha.p_hat:.4f}<=cap {rep.alpha_bound:.4f}, "
        f"beta_hat={rep.beta_sigma1.p_hat:.4f}<=cap {rep.beta_bound:.4f}, "
        f"predictor={rep.beta_predictor:.4f}, "
        f"log-ratio diagnostic={diag.log_ratio} (no pass/fail), "
        f"elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_symmetric_region_smoothing():
    t0 = time.monotonic()
    rng = np.random.default_rng(17)
    ok = True
    worst = -math.inf
    for k in range(50):
        d = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            region = Box(rng.uniform(0.3, 2.5, size=d))
        else:
            region = Ellipsoid(rng.uniform(0.2, 2.0, size=d),
                               float(rng.uniform(0.5, 3.0 * d)))
        xi_sd = rng.uniform(0.5, 1.5, size=d)
        eta_sd = rng.uniform(0.2, 1.5, size=d)
        res = lemma1_check(region, xi_sd, eta_sd, samples=20_000,
                           seed=3000 + k)
        slack = 4.0 * math.hypot(res.p_sum.stderr, res.p_xi.stderr)
        excess = res.p_sum.p_hat - (res.p_xi.p_hat + slack)
        ok = ok and excess <= 0.0
        worst = max(worst, excess)
    # 2-D unit box, unit noise: both sides have a normal-CDF product form.
    res = lemma1_check(Box(np.ones(2)), np.ones(2), np.ones(2),
                       samples=10**5, seed=99)
    want_sum = (2.0 * float(ndtr(1.0 / math.sqrt(2.0))) - 1.0) ** 2
    want_xi = (2.0 * float(ndtr(1.0)) - 1.0) ** 2
    closed_ok = (
        abs(res.p_sum.p_hat - want_sum) <= 3.0 * res.p_sum.stderr
        and abs(res.p_xi.p_hat - want_xi) <= 3.0 * res.p_xi.stderr
    )
    elapsed = time.monotonic() - t0
    ok = ok and closed_ok and elapsed < 60.0
    report(
        10,
        "noise smoothing on symmetric convex regions",
        ok,
        f"worst excess={worst:.4g} (<= 0 required), 2-D closed form "
        f"{'matches' if closed_ok else 'MISMATCH'}, elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_11_oracle_coherence():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    ok = True
    worst = -math.inf
    for k in range(30):
        n = int(rng.integers(1, 9))
        sigma = IntensityVector(rng.uniform(0.3, 2.0, size=n))
        A = mid_window_level(sigma)
        test = NpTest(sigma, A)
        alpha, beta = np_test_exact_probs(test)
        est_a = estimate_error_probs(test, None, samples=50_000,
                                     seed=6000 + k)
        est_b = estimate_error_probs(test, sigma, samples=50_000,
                                     seed=7000 + k)
        for est, exact in ((est_a, alpha), (est_b, beta)):
            excess = abs(est.p_hat - exact) - 3.0 * max(est.stderr, 1e-9)
            ok = ok and excess <= 0.0
            worst = max(worst, excess)
    gamma_gap = 0.0
    for n in (1, 2, 5, 10):
        for w in (0.5, 1.0, 2.7):
            for x in (0.5, 2.0, 8.0):
                got = weighted_chi2_cdf(np.full(n, w), x)
                want = float(gammainc(n / 2.0, x / (2.0 * w)))
                gamma_gap = max(gamma_gap, abs(got - want))
    elapsed = time.monotonic() - t0
    ok = ok and gamma_gap <= 1e-10 and elapsed < 60.0
    report(
        11,
        "MC vs exact weighted chi-square oracle",
        ok,
        f"worst MC excess={worst:.4g} (<= 0 required), equal-weight gap="
        f"{gamma_gap:.2g} (<= 1e-10), elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_12_exponent_identities_and_solver_quality():
    from gausdet import g_eval

    rng = np.random.default_rng(29)
    ok = True
    worst_identity = 0.0
    worst_residual = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 15))
        sigma = IntensityVector(np.sort(rng.uniform(0.4, 2.5, size=n)))
        A = float(rng.uniform(-1.0, 1.0))
        g1, _ = g_eval(sigma, A, 1.0)
        ok = ok and math.isclose(g1, -A / 2.0, rel_tol=1e-12, abs_tol=1e-12)
        worst_identity = max(worst_identity, abs(g1 + A / 2.0))
        stats = signal_statistics(sigma)
        two_f1 = (stats.D + A) + float(np.sum(np.log1p(-sigma.r_squared)))
        ok = ok and math.isclose(two_f1, A, rel_tol=1e-12, abs_tol=1e-12)
        worst_identity = max(worst_identity, abs(two_f1 - A))
        # Interior solver quality and the block-construction ordering.
        A_mid = mid_window_level(sigma)
        sol = solve_u0(sigma, A_mid)
        assert sol.boundary_case == INTERIOR
        worst_residual = max(worst_residual, abs(sol.stationarity_residual))
        res = beta_lower_bound(sigma, A_mid)
        worst_residual = max(worst_residual, abs(res.u1_residual))
        ok = ok and res.u1 >= res.u0.argmax - 1e-10
    ok = ok and worst_residual <= 1e-10
    report(
        12,
        "exponent identities and solver residuals",
        ok,
        f"worst identity gap={worst_identity:.2g}, worst residual="
        f"{worst_residual:.2g} (<= 1e-10), u1 >= u0 on all instances",
    )
    assert ok


def test_shard_reproducibility_is_machine_independent():
    # Supporting check for the MC criteria: sharded streams are pure
    # functions of (seed, shard), and the plan is a pure function of
    # (samples, n).
    a = shard_stream(123, 5).standard_normal(8)
    b = shard_stream(123, 5).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert list(_shard_plan(10**5, 10**4)) == list(_shard_plan(10**5, 10**4))
