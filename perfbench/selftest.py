#!/usr/bin/env python3
"""Self-tests of the benchmark's checkers.

    python3 perfbench/selftest.py

Every checker must pass a correct value and reject a planted wrong one (an
estimate several standard errors off, a value outside its bracket, a wrong
witness, ...): a check that cannot fail is found this way.  The correct
values are built here from closed forms, without gausdet.  The GLRT and
Bayes brackets are also confronted with a direct numpy simulation of the
two statistics.  Finally BENCHMARK.json is compared with the metric names
the benchmark prints.  Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np
from scipy import special

import checks
from wl_exact import grid_profile

FAILURES = []


def expect(name: str, reason, should_fail: bool) -> None:
    if (reason is not None) != should_fail:
        FAILURES.append(f"{name}: {'passed' if reason is None else reason}")


def passes(name, reason):
    expect(name, reason, False)


def rejects(name, reason):
    expect(name, reason, True)


def test_mc_consistent():
    N, p = 100_000, 0.3
    se = math.sqrt(p * (1 - p) / N)
    passes("mc on target", checks.mc_consistent(p, N, p))
    passes("mc 2 se off", checks.mc_consistent(p + 2 * se, N, p))
    rejects("mc 8 se high", checks.mc_consistent(p + 8 * se, N, p))
    rejects("mc 8 se low", checks.mc_consistent(p - 8 * se, N, p))
    passes("mc small count", checks.mc_consistent(6 / 2000, 2000, 0.003))
    rejects("mc small count off", checks.mc_consistent(30 / 2000, 2000, 0.003))
    passes("mc in range", checks.mc_consistent(0.5, N, 0.4, 0.6))
    rejects("mc below range", checks.mc_consistent(0.39, N, 0.4, 0.6))


def test_log_gamma():
    for a, x in ((0.5, 0.1), (5.0, 2.0), (5.0, 20.0), (50.0, 60.0), (500.0, 300.0)):
        p, q = float(special.gammainc(a, x)), float(special.gammaincc(a, x))
        passes(f"ln P({a},{x})", checks.close(checks.log_gamma_p(a, x), math.log(p),
                                              rel=1e-9))
        passes(f"ln Q({a},{x})", checks.close(checks.log_gamma_q(a, x),
                                              math.log(q) if q < 0.5 else math.log1p(-p),
                                              rel=1e-9))


def test_oracle_checks():
    w, x = np.array([1.0, 2.0, 3.0]), 6.0
    lo, hi = checks.chi2_cdf_bracket(w, x)
    truth = float(checks.mc_weighted_chi2_le([w], [x], 200_000, 7)[0])
    passes("cdf inside", checks.check_chi2_cdf(truth, w, x, (truth, 200_000)))
    rejects("cdf above bracket", checks.check_chi2_cdf(hi * 1.01, w, x))
    rejects("cdf vs MC", checks.check_chi2_cdf(truth + 0.05, w, x, (truth, 200_000)))
    # Fault (b): the truncation slack returned as the value.
    wb = np.linspace(1.0, 1.001, 200)
    rejects("cdf slack as value", checks.check_chi2_cdf(1.4e-15, wb, 40.0))
    eq = np.full(7, 2.0)
    exact = float(special.gammainc(3.5, 5.0 / 4.0))
    passes("equal weights", checks.check_chi2_cdf(exact, eq, 5.0))
    rejects("equal weights 1e-8 off", checks.check_chi2_cdf(exact * (1 + 1e-8), eq, 5.0))
    # Fault (c): alpha from 1 - cdf is 0.0 where gammaincc gives 4.5e-18.
    ones = np.ones(50)
    thr = 50 * math.log(2.0) + 60.0
    alpha = float(special.gammaincc(25.0, thr))
    beta = float(special.gammainc(25.0, thr / 2.0))
    passes("np exact", checks.check_np_exact((alpha, beta), ones, 60.0))
    rejects("np alpha cancelled", checks.check_np_exact((0.0, beta), ones, 60.0))
    rejects("np beta swapped", checks.check_np_exact((alpha, 1 - beta), ones, 60.0))
    # The n = 1000, spread 2 grid cell: its monotone bracket is about [0, 1],
    # so only the independent MC can reject a wrong value there.
    w = grid_profile(1000, 2.0)
    x, N = float(w.sum()), 100_000
    f1, f2 = (float(checks.mc_weighted_chi2_le([w], [x], N, seed)[0]) for seed in (1, 2))
    passes("cdf n=1000 vs MC", checks.check_chi2_cdf(f2, w, x, (f1, N)))
    passes("cdf n=1000 0.02 off, bracket alone", checks.check_chi2_cdf(f2 + 0.02, w, x))
    rejects("cdf n=1000 0.02 off vs MC", checks.check_chi2_cdf(f2 + 0.02, w, x, (f1, N)))


def _flat_solution(w2: float, n: int, thr: float, sign: float):
    """Interior root of n w2/(1 + sign x w2) = thr and its exponent."""
    x = sign * (n * w2 / thr - 1.0) / w2
    value = 0.5 * (sign * n * math.log1p(sign * x * w2) - sign * x * thr)
    return NS(argmax=x, value=value, stationarity_residual=0.0, iterations=5,
              boundary_case="interior")


def test_exponent_checks():
    n, s, A = 40, 0.8, 3.0
    s2 = s * s
    sig = np.full(n, s)
    D = n * math.log1p(s2)
    thr = D + A
    u0 = _flat_solution(s2, n, thr, 1.0)
    passes("u0", checks.check_solve_u0((u0, (-A / 2, 0.0)), sig, A))
    rejects("u0 residual", checks.check_solve_u0(
        (NS(**{**vars(u0), "stationarity_residual": 1e-6}), (-A / 2, 0.0)), sig, A))
    rejects("g(1)", checks.check_solve_u0((u0, (-A / 2 + 1e-6, 0.0)), sig, A))
    rejects("g(u0) value", checks.check_solve_u0(
        (NS(**{**vars(u0), "value": u0.value + 0.1}), (-A / 2, 0.0)), sig, A))

    r2 = s2 / (1 + s2)
    t0 = _flat_solution(r2, n, thr, -1.0)
    t0.value = 0.5 * (t0.argmax * thr + n * math.log1p(-t0.argmax * r2))
    good = (t0, math.exp(-t0.value), math.exp(-A / 2))
    passes("t0", checks.check_alpha_bound(good, sig, A))
    rejects("Chernoff below alpha", checks.check_alpha_bound(
        (NS(**{**vars(t0), "value": 50.0}), math.exp(-50.0), math.exp(-A / 2)), sig, A))
    rejects("simple bound", checks.check_alpha_bound(
        (t0, good[1], math.exp(-A)), sig, A))

    lam = np.full(n, 0.9)
    nu2 = s2 * (1 + 0.81) / (1 + s2)
    v0 = _flat_solution(nu2, n, thr, 1.0)
    passes("v0", checks.check_mismatch_bound((v0, math.exp(-v0.value)), sig, lam, A))
    rejects("mismatch bound below miss", checks.check_mismatch_bound(
        (NS(**{**vars(v0), "value": 80.0}), math.exp(-80.0)), sig, lam, A))

    ln_beta = checks.log_gamma_p(n / 2, thr / (2 * s2))
    res = NS(interval=NS(lower=ln_beta - 1, upper=ln_beta + 0.5),
             constructive_lower=ln_beta - 2, u0=u0, u1=u0.argmax + 0.1,
             u1_residual=0.0)
    passes("sandwich", checks.check_beta_sandwich(res, sig, A))
    res.interval = NS(lower=ln_beta + 0.1, upper=ln_beta + 0.5)
    rejects("sandwich above ln beta", checks.check_beta_sandwich(res, sig, A))


def test_tail_checks():
    z = 2.0
    core = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    passes("normal tail", checks.check_normal_tail(NS(lower=z * core / (z * z + 1),
                                                      upper=core / z), z))
    rejects("normal tail", checks.check_normal_tail(NS(lower=0.03, upper=0.04), z))
    A, n = 20.0, 40
    p = -0.5 * (n * math.log(n / (math.e * A)) + A)
    sw = NS(lower=p - 0.5 * math.log(math.pi * n) - 1 / (3 * n), upper=p)
    passes("chi2 lower tail", checks.check_chi2_log_tail(sw, A, n, "lower"))
    rejects("chi2 lower tail", checks.check_chi2_log_tail(
        NS(lower=p + 1, upper=p + 2), A, n, "lower"))
    s, n, A = 0.6, 200, 5.0
    s2 = s * s
    D, T, B = n * math.log1p(s2), n * s2 / (1 + s2), 2 * n * (s2 / (1 + s2)) ** 2
    approx = checks.normal_upper_tail((D + A - T) / math.sqrt(B))
    passes("Berry-Esseen", checks.check_berry_esseen((approx, 5 / math.sqrt(B)), s, n, A))
    rejects("Berry-Esseen", checks.check_berry_esseen((approx + 0.01, 5 / math.sqrt(B)),
                                                      s, n, A))
    a_star = T - D + math.sqrt(B * (math.log(B) - math.log(math.log(B))))
    passes("prop4", checks.check_prop4((a_star, 6 / math.sqrt(B)), s, n))
    rejects("prop4 cap", checks.check_prop4((a_star, 1e-9), s, n))


def test_reduction_check():
    pts = np.array([[1, 1], [2, 2], [0.5, 3], [1, 1], [3, 0.5]], dtype=float)
    kept = pts[[0, 2, 4]]
    passes("reduction", checks.check_reduction(pts, kept, 2, {1: 0, 3: 0}))
    rejects("wrong witness", checks.check_reduction(pts, kept, 2, {1: 1, 3: 0}))
    rejects("kept dominated", checks.check_reduction(pts, pts[[0, 1, 2, 4]], 1, {3: 0}))
    rejects("counts", checks.check_reduction(pts, kept, 3, {1: 0, 3: 0}))


def test_mc_workload_checks():
    n, R, N = 1000, 1.0, 100_000
    probe = np.zeros(n)
    probe[[3, 7]] = math.sqrt(n / 2)
    ref = checks.example3_reference(n, R, probe)
    est = lambda p: NS(p_hat=p)  # noqa: E731
    rep = NS(A=ref["A"], threshold=ref["threshold"], alpha_bound=ref["alpha_bound"],
             beta_bound=ref["beta_bound"], beta_predictor=ref["beta_sigma1"],
             alpha=est(ref["alpha"]), beta_sigma1=est(ref["beta_sigma1"]),
             beta_lambda=est(ref["beta_lambda"]))
    passes("example3", checks.check_example3(rep, n, R, probe, N))
    bad = NS(**{**vars(rep), "alpha": est(ref["alpha"] + 0.02)})
    rejects("example3 alpha", checks.check_example3(bad, n, R, probe, N))
    bad = NS(**{**vars(rep), "beta_predictor": ref["beta_sigma1"] * 1.001})
    rejects("example3 predictor", checks.check_example3(bad, n, R, probe, N))

    # Example 3 against a direct simulation of max_i (1+lam_i^2) z_i^2.
    rng = np.random.default_rng(11)
    m, small_n = 20_000, 50
    thr = checks.example3_reference(small_n, R)["threshold"]
    y2 = rng.standard_normal((m, small_n)) ** 2
    alpha = float(np.mean(np.max(y2, axis=1) > thr))
    passes("example3 alpha formula", checks.mc_consistent(
        alpha, m, checks.example3_reference(small_n, R)["alpha"]))

    rng = np.random.default_rng(5)
    n, K, M = 12, 24, 100_000
    sizes = rng.integers(2, 7, K)
    values = rng.uniform(0.5, 1.5, K)
    subsets = [rng.choice(n, k, replace=False) for k in sizes]
    levels = rng.uniform(4.0, 6.0, K)
    weights = rng.uniform(0.5, 1.5, K)
    weights /= weights.sum()
    level = 1.5
    y2 = rng.standard_normal((M, n)) ** 2
    c = values**2 / (1 + values**2)
    r = np.stack([0.5 * c[k] * y2[:, S].sum(axis=1) - 0.5 * sizes[k] * math.log1p(
        values[k] ** 2) for k, S in enumerate(subsets)], axis=1)
    glrt = float(np.mean(np.max(2 * r - levels, axis=1) > 0))
    bayes = float(np.mean(special.logsumexp(r, b=weights, axis=1) > level))
    gb = checks.glrt_alpha_bracket(sizes, values, levels)
    bb = checks.bayes_alpha_bracket(sizes, values, weights, level)
    passes("GLRT bracket holds", checks.check_alpha_in(NS(p_hat=glrt), M, gb, "glrt"))
    passes("Bayes bracket holds", checks.check_alpha_in(NS(p_hat=bayes), M, bb, "bayes"))
    rejects("GLRT below bracket", checks.check_alpha_in(
        NS(p_hat=gb[0] * 0.8), M, gb, "glrt"))
    rejects("Bayes above bracket", checks.check_alpha_in(
        NS(p_hat=min(1.0, bb[1] * 1.2 + 0.01)), M, (bb[0], min(1.0, bb[1])), "bayes"))

    ones = np.ones(2)
    p_xi = checks.box_inside(ones, ones)
    p_sum = checks.box_inside(ones, np.hypot(ones, ones))
    ok = NS(p_xi=NS(p_hat=p_xi), p_sum=NS(p_hat=p_sum), holds=True)
    passes("lemma1 box", checks.check_lemma1(ok, "box", ones, 0.0, ones, ones, N))
    rejects("lemma1 box p_xi", checks.check_lemma1(
        NS(**{**vars(ok), "p_xi": NS(p_hat=p_xi + 0.02)}), "box", ones, 0.0, ones, ones, N))
    rejects("lemma1 verdict", checks.check_lemma1(
        NS(**{**vars(ok), "holds": False}), "box", ones, 0.0, ones, ones, N))


def test_cli_check():
    sigma = [0.5, 1.0, 2.0]
    D, T, B = checks._dtb(sigma)
    s2 = np.square(sigma)
    out = [{"name": k, "value": v, "provenance": ""} for k, v in
           (("D", D), ("T", T), ("B", B), ("window_high", float(s2.sum()) - D))]
    doc = {"command": "stats", "inputs": {}, "outputs": out, "wall_time_s": 0.1}
    cfg = {"sigma": sigma}
    passes("cli stats", checks.check_cli("stats", cfg, 0, json.dumps(doc)))
    rejects("cli exit", checks.check_cli("stats", cfg, 1, json.dumps(doc)))
    rejects("cli keys", checks.check_cli("stats", cfg, 0,
                                         json.dumps({**doc, "extra": 1})))
    bad = dict(doc, outputs=[dict(out[0], value=D * 1.001)] + out[1:])
    rejects("cli D", checks.check_cli("stats", cfg, 0, json.dumps(bad)))
    # Fault (e): example1's self certificate reported invalid.
    ex1 = {"command": "example1", "inputs": {}, "wall_time_s": 0.1, "outputs": [
        {"name": "sigma0", "value": [1.5] * 3, "provenance": ""},
        {"name": "equality_notion", "value": "exact", "provenance": ""},
        {"name": "self_certificate_valid", "value": False, "provenance": ""}]}
    rejects("cli example1", checks.check_cli("example1", {"n": 3, "D": 1.5}, 0,
                                             json.dumps(ex1)))


def test_benchmark_json():
    import layers
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.E2E_UNITS:
        FAILURES.append(f"end_to_end {e2e} != printed {run.E2E_UNITS}")
    per_layer = [m["name"] for m in spec["per_layer"]]
    if per_layer != layers.names():
        FAILURES.append("per_layer names differ from layers.names()")
    for m in spec["per_layer"]:
        if m["unit"] != layers.unit(m["name"]):
            FAILURES.append(f"unit of {m['name']}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        FAILURES.append("workloads differ from run.WORKLOADS")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    for f in FAILURES:
        print(f"FAIL {f}")
    print(f"{len(tests)} groups, {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
