"""Independent checks of gausdet outputs.

Nothing here imports gausdet.  Expected values come from closed forms
(``math`` and ``scipy.special``), log-space incomplete gamma functions
written out below, and Monte Carlo with numpy's default PCG64 generator,
never the package's Philox streams.  A check returns None when the output
passes and a one-line reason when it does not; ``selftest.py`` plants a
wrong value into every check to show that it can fail.

Monte Carlo frequencies are judged by the exact binomial tail: a count is
rejected when it lies beyond a tail probability of 1e-9 from every true value
the check allows, about six standard errors in the normal limit.  That is
wide enough that a second seed, or a declared change to the random stream,
still passes, and narrow enough to catch a wrong probability.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np
from scipy import special, stats

MC_TAIL = 1e-9
REL = 1e-10  # closed forms and brackets: relative tolerance
RESIDUAL = 1e-10  # interior stationarity residual, relative to max(1, D + A)
IMHOF_ABS = 1e-4  # documented absolute accuracy of the oracle's fallback path
REPORT_KEYS = {"command", "inputs", "outputs", "wall_time_s"}

Reason = Optional[str]


# -- reference functions ---------------------------------------------------

def _log_gamma_series(a: float, x: float) -> float:
    """ln P(a, x) by the power series; converges for x < a + 1."""
    term = total = 1.0
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= x / (a + k)
        total += term
    return a * math.log(x) - x - math.lgamma(a + 1.0) + math.log(total)


def _log_gamma_cf(a: float, x: float) -> float:
    """ln Q(a, x) by the modified Lentz continued fraction; x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1_000_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = d if abs(d) > tiny else tiny
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        d = 1.0 / d
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return -x + a * math.log(x) - math.lgamma(a) + math.log(h)


def log_gamma_p(a: float, x: float) -> float:
    """ln P(a, x), the regularized lower incomplete gamma, without underflow."""
    if x <= 0.0:
        return -math.inf
    if x < a + 1.0:
        return _log_gamma_series(a, x)
    return math.log1p(-math.exp(_log_gamma_cf(a, x)))


def log_gamma_q(a: float, x: float) -> float:
    """ln Q(a, x) = ln(1 - P(a, x)), without cancellation or underflow."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return math.log1p(-math.exp(_log_gamma_series(a, x)))
    return _log_gamma_cf(a, x)


def normal_upper_tail(z: float) -> float:
    """Q(z) = P(N(0,1) >= z) from the math module's erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_cdf_bracket(weights, x: float) -> tuple[float, float]:
    """Monotone bracket [P(w_max chi2_n <= x), P(w_min chi2_n <= x)]."""
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    a = 0.5 * w.size
    return (float(special.gammainc(a, x / (2.0 * w.max()))),
            float(special.gammainc(a, x / (2.0 * w.min()))))


def chi2_sf_bracket(weights, x: float) -> tuple[float, float]:
    """Monotone bracket [P(w_min chi2_n > x), P(w_max chi2_n > x)]."""
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    a = 0.5 * w.size
    return (float(special.gammaincc(a, x / (2.0 * w.min()))),
            float(special.gammaincc(a, x / (2.0 * w.max()))))


def mc_weighted_chi2_le(weight_rows, xs, samples: int, seed: int) -> np.ndarray:
    """Frequencies of sum_i w_i z_i^2 <= x for several (w, x) of one length.

    All rows share one set of PCG64 draws, made in chunks to bound memory.
    """
    W = np.asarray(weight_rows, dtype=float)  # (k, n)
    xs = np.asarray(xs, dtype=float)
    rng = np.random.default_rng(seed)
    chunk = max(1, 500_000 // W.shape[1])
    hits = np.zeros(W.shape[0], dtype=np.int64)
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        z2 = rng.standard_normal((m, W.shape[1])) ** 2
        hits += np.count_nonzero(z2 @ W.T <= xs, axis=0)
        done += m
    return hits / samples


# -- primitive checks --------------------------------------------------------

def mc_consistent(p_hat: float, samples: int, p_lo: float,
                  p_hi: Optional[float] = None, what: str = "estimate") -> Reason:
    """A Monte Carlo frequency agrees with some true value in [p_lo, p_hi]."""
    p_hi = p_lo if p_hi is None else p_hi
    p_lo = min(1.0, max(0.0, p_lo))
    p_hi = min(1.0, max(0.0, p_hi))
    hits = int(round(p_hat * samples))
    if hits > 0 and stats.binom.sf(hits - 1, samples, p_hi) < MC_TAIL:
        return f"{what} {p_hat:.6g} above {p_hi:.6g} (n={samples})"
    if stats.binom.cdf(hits, samples, p_lo) < MC_TAIL:
        return f"{what} {p_hat:.6g} below {p_lo:.6g} (n={samples})"
    return None


def in_bracket(value: float, lo: float, hi: float, what: str = "value",
               rel: float = REL) -> Reason:
    if value is None or not math.isfinite(value):
        return f"{what} is {value!r}"
    if value < lo * (1.0 - rel) or value > hi * (1.0 + rel):
        return f"{what} {value:.6g} outside [{lo:.6g}, {hi:.6g}]"
    return None


def close(value: float, want: float, what: str = "value", rel: float = REL) -> Reason:
    if value is None or not abs(value - want) <= rel * max(abs(want), 1e-300):
        return f"{what} {value!r} != {want:.12g}"
    return None


def first(*reasons: Reason) -> Reason:
    for r in reasons:
        if r is not None:
            return r
    return None


# -- exact oracle ------------------------------------------------------------

def check_chi2_cdf(value: float, weights, x: float,
                   mc: Optional[tuple[float, int]] = None) -> Reason:
    """weighted_chi2_cdf: monotone bracket, equal-weight closed form, MC."""
    lo, hi = chi2_cdf_bracket(weights, x)
    return first(
        in_bracket(value, lo, hi, "cdf"),
        None if mc is None else mc_consistent(
            mc[0], mc[1], value - IMHOF_ABS, value + IMHOF_ABS,
            "independent MC of the cdf vs oracle"),
    )


def check_np_exact(out, sigma_values, A: float,
                   mc: Optional[tuple[float, float, int]] = None) -> Reason:
    """np_test_exact_probs: both error probabilities inside their brackets."""
    alpha, beta = out
    s2 = np.asarray(sigma_values, dtype=float) ** 2
    r2 = s2 / (1.0 + s2)
    thr = float(np.sum(np.log1p(s2))) + A
    a_lo, a_hi = chi2_sf_bracket(r2, thr)
    b_lo, b_hi = chi2_cdf_bracket(s2, thr)
    return first(
        in_bracket(alpha, a_lo, a_hi, "alpha"),
        in_bracket(beta, b_lo, b_hi, "beta"),
        None if mc is None else mc_consistent(
            mc[0], mc[2], alpha - IMHOF_ABS, alpha + IMHOF_ABS,
            "independent MC of alpha vs oracle"),
        None if mc is None else mc_consistent(
            mc[1], mc[2], beta - IMHOF_ABS, beta + IMHOF_ABS,
            "independent MC of beta vs oracle"),
    )


# -- exponents ---------------------------------------------------------------

def _flat(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(v == v[0]))


def _threshold(sigma_values, A: float) -> float:
    return float(np.sum(np.log1p(np.asarray(sigma_values, dtype=float) ** 2))) + A


def check_interior(sol, threshold: float, what: str) -> Reason:
    """An interior ExponentSolution has argmax > 0 and a tiny residual."""
    if sol.boundary_case != "interior":
        return None
    if not sol.argmax > 0.0:
        return f"{what}: interior argmax {sol.argmax!r} not positive"
    if abs(sol.stationarity_residual) > RESIDUAL * max(1.0, abs(threshold)):
        return f"{what}: residual {sol.stationarity_residual:.3g}"
    return None


def check_solve_u0(out, sigma_values, A: float) -> Reason:
    """solve_u0 and g_eval(u=1): residual, g value, g(1) = -A/2, Chernoff."""
    sol, (g1, _) = out
    s2 = np.asarray(sigma_values, dtype=float) ** 2
    thr = _threshold(sigma_values, A)
    g = 0.5 * (float(np.sum(np.log1p(sol.argmax * s2))) - sol.argmax * thr)
    n = s2.size
    reason = first(
        check_interior(sol, thr, "u0"),
        None if sol.argmax <= 1.0 else f"u0 {sol.argmax} > 1",
        close(sol.value, g, "g(u0)", rel=1e-9),
        None if abs(g1 + A / 2.0) <= RESIDUAL * (1.0 + abs(thr))
        else f"g(1) = {g1!r}, not -A/2 = {-A / 2.0!r}",
    )
    if reason is None and _flat(sigma_values):
        ln_beta = log_gamma_p(0.5 * n, thr / (2.0 * s2[0]))
        if ln_beta > -sol.value + 1e-9 * (1.0 + abs(sol.value)):
            reason = f"ln beta {ln_beta:.6g} above Chernoff -g(u0) {-sol.value:.6g}"
    return reason


def check_alpha_bound(out, sigma_values, A: float) -> Reason:
    """alpha_upper_bound: residual, simple bound, both bounds above alpha."""
    sol, chernoff, simple = out
    s2 = np.asarray(sigma_values, dtype=float) ** 2
    r2 = s2 / (1.0 + s2)
    thr = _threshold(sigma_values, A)
    n = s2.size
    if _flat(sigma_values):
        ln_alpha = log_gamma_q(0.5 * n, thr / (2.0 * r2[0]))
    else:  # alpha is at least its monotone bracket's lower end
        ln_alpha = log_gamma_q(0.5 * n, thr / (2.0 * r2.min()))
    ln_chernoff = -sol.value if chernoff < 1.0 else 0.0
    return first(
        check_interior(sol, thr, "t0"),
        None if sol.argmax <= 1.0 else f"t0 {sol.argmax} > 1",
        close(simple, math.exp(-A / 2.0), "simple bound", rel=1e-12),
        None if ln_alpha <= ln_chernoff + 1e-9 * (1.0 + abs(ln_chernoff))
        else f"ln alpha {ln_alpha:.6g} above Chernoff {ln_chernoff:.6g}",
        None if ln_alpha <= -A / 2.0 + 1e-9 * (1.0 + abs(A))
        else f"ln alpha {ln_alpha:.6g} above -A/2",
    )


def check_mismatch_bound(out, sigma_values, lam_values, A: float) -> Reason:
    """beta_mismatch_upper: residual and bound above the mismatched miss."""
    sol, bound = out
    s2 = np.asarray(sigma_values, dtype=float) ** 2
    l2 = np.asarray(lam_values, dtype=float) ** 2
    nu2 = s2 * (1.0 + l2) / (1.0 + s2)
    thr = _threshold(sigma_values, A)
    n = s2.size
    if _flat(sigma_values) and _flat(lam_values):
        ln_beta = log_gamma_p(0.5 * n, thr / (2.0 * nu2[0]))
    else:  # the miss is at least its monotone bracket's lower end
        ln_beta = log_gamma_p(0.5 * n, thr / (2.0 * nu2.max()))
    ln_bound = -sol.value if bound < 1.0 else 0.0
    return first(
        check_interior(sol, thr, "v0"),
        None if ln_beta <= ln_bound + 1e-9 * (1.0 + abs(ln_bound))
        else f"ln beta_mm {ln_beta:.6g} above bound {ln_bound:.6g}",
    )


def check_beta_sandwich(res, sigma_values, A: float) -> Reason:
    """beta_lower_bound: ln beta inside the sandwich, u1 >= u0, residuals."""
    s2 = np.asarray(sigma_values, dtype=float) ** 2
    thr = _threshold(sigma_values, A)
    n = s2.size
    iv = res.interval
    if _flat(sigma_values):
        ln_lo = ln_hi = log_gamma_p(0.5 * n, thr / (2.0 * s2[0]))
    else:  # ln beta lies in its monotone bracket
        ln_lo = log_gamma_p(0.5 * n, thr / (2.0 * s2.max()))
        ln_hi = log_gamma_p(0.5 * n, thr / (2.0 * s2.min()))
    tol = 1e-9 * (1.0 + abs(ln_lo))
    return first(
        check_interior(res.u0, thr, "u0"),
        None if abs(res.u1_residual) <= RESIDUAL * max(1.0, abs(thr))
        else f"u1 residual {res.u1_residual:.3g}",
        None if res.u1 >= res.u0.argmax - 1e-12 else "u1 < u0",
        None if iv.upper >= ln_lo - tol
        else f"sandwich upper {iv.upper:.6g} below ln beta {ln_lo:.6g}",
        None if iv.lower <= ln_hi + tol
        else f"sandwich lower {iv.lower:.6g} above ln beta {ln_hi:.6g}",
        None if res.constructive_lower <= ln_hi + tol
        else f"constructive lower {res.constructive_lower:.6g} above ln beta",
    )


# -- tails -------------------------------------------------------------------

def check_normal_tail(sw, z: float) -> Reason:
    q = normal_upper_tail(z)
    return None if sw.lower <= q <= sw.upper else (
        f"Q({z:.4g}) = {q:.6g} outside [{sw.lower:.6g}, {sw.upper:.6g}]")


def check_chi2_log_tail(sw, A: float, n: int, tail: str) -> Reason:
    exact = (log_gamma_p if tail == "lower" else log_gamma_q)(0.5 * n, 0.5 * A)
    tol = 1e-12 * (1.0 + abs(exact))
    if sw.lower - tol <= exact <= sw.upper + tol:
        return None
    return (f"ln P(chi2_{n} {tail} {A:.6g}) = {exact:.6g} outside "
            f"[{sw.lower:.6g}, {sw.upper:.6g}]")


def _flat_alpha(s: float, n: int, A: float) -> float:
    r2 = s * s / (1.0 + s * s)
    thr = n * math.log1p(s * s) + A
    return float(special.gammaincc(0.5 * n, thr / (2.0 * r2)))


def check_berry_esseen(out, s: float, n: int, A: float) -> Reason:
    """Flat sigma: |alpha - approx| <= 5/sqrt(B), approx = Q((D+A-T)/sqrt(B))."""
    approx, guarantee = out
    s2 = s * s
    D, T, B = n * math.log1p(s2), n * s2 / (1.0 + s2), 2.0 * n * (s2 / (1.0 + s2)) ** 2
    alpha = _flat_alpha(s, n, A)
    return first(
        close(approx, normal_upper_tail((D + A - T) / math.sqrt(B)), "approx", 1e-9),
        close(guarantee, 5.0 / math.sqrt(B), "guarantee", 1e-12),
        None if abs(alpha - approx) <= guarantee
        else f"|alpha - approx| = {abs(alpha - approx):.3g} > {guarantee:.3g}",
    )


def check_prop4(out, s: float, n: int) -> Reason:
    """Flat sigma: alpha at the returned level is at most the cap."""
    a_star, cap = out
    s2 = s * s
    D, T, B = n * math.log1p(s2), n * s2 / (1.0 + s2), 2.0 * n * (s2 / (1.0 + s2)) ** 2
    want = T - D + math.sqrt(B * (math.log(B) - math.log(math.log(B))))
    alpha = _flat_alpha(s, n, a_star)
    return first(
        None if abs(a_star - want) <= 1e-12 * (T + D + abs(want))
        else f"A_star {a_star!r} != {want!r}",  # T - D cancels: absolute scale
        close(cap, 6.0 / math.sqrt(B), "cap", 1e-12),
        None if alpha <= cap else f"alpha(A*) {alpha:.4g} > cap {cap:.4g}",
    )


# -- reduction ---------------------------------------------------------------

def check_reduction(points, kept_points, removed_count: int,
                    witness_map: dict) -> Reason:
    """Every removed point is dominated by its witness; no kept point is
    dominated by another kept point; the counts add up."""
    P = np.asarray(points, dtype=float)
    K = np.asarray(kept_points, dtype=float).reshape(-1, P.shape[1])
    m = P.shape[0]
    kept_idx = [i for i in range(m) if i not in witness_map]
    if removed_count != len(witness_map) or len(kept_idx) != K.shape[0]:
        return (f"counts: {K.shape[0]} kept + {removed_count} removed, "
                f"{len(witness_map)} witnesses, {m} points")
    if not np.array_equal(P[kept_idx], K):
        return "kept points are not the unremoved inputs in order"
    for i, w in witness_map.items():
        if not 0 <= w < K.shape[0] or not np.all(K[w] <= P[i]):
            return f"witness {w} does not dominate removed point {i}"
    le = np.all(K[:, None, :] <= K[None, :, :], axis=2)  # le[j, k]: K[j] <= K[k]
    np.fill_diagonal(le, False)
    if le.any():
        j, k = map(int, np.argwhere(le)[0])
        return f"kept point {k} is dominated by kept point {j}"
    return None


# -- Monte Carlo -------------------------------------------------------------

def flat_np_alpha(s: float, n: int, A: float) -> float:
    return _flat_alpha(s, n, A)


def flat_np_beta(s: float, n: int, A: float) -> float:
    thr = n * math.log1p(s * s) + A
    return float(special.gammainc(0.5 * n, thr / (2.0 * s * s)))


def example3_reference(n: int, R: float, probe=None) -> dict:
    """Closed forms of the sum-floor experiment, recomputed from scratch."""
    nr2 = n * R * R
    A = 2.0 * math.log(n) - math.log1p(nr2)
    thr = (1.0 + nr2) * 2.0 * math.log(n) / nr2
    log_noise = math.log1p(-math.erfc(math.sqrt(thr / 2.0)))  # ln P(z^2 <= thr)
    ref = {
        "A": A,
        "threshold": thr,
        "alpha": -math.expm1(n * log_noise),
        "beta_sigma1": math.erf(math.sqrt(thr / (2.0 * (1.0 + nr2))))
        * math.exp((n - 1) * log_noise),
        "alpha_bound": 1.0 / math.sqrt(2.0 * math.log(n)),
        "beta_bound": math.sqrt(2.0 * math.log(n)) / (R * math.sqrt(n)),
    }
    if probe is not None:
        l2 = np.asarray(probe, dtype=float) ** 2
        hot = l2 > 0
        ref["beta_lambda"] = math.exp(
            float(np.sum(np.log(special.erf(np.sqrt(thr / (2.0 * (1.0 + l2[hot])))))))
            + int(np.count_nonzero(~hot)) * log_noise)
    return ref


def check_example3(rep, n: int, R: float, probe, samples: int) -> Reason:
    ref = example3_reference(n, R, probe)
    return first(
        close(rep.A, ref["A"], "A", 1e-12),
        close(rep.threshold, ref["threshold"], "threshold", 1e-12),
        close(rep.alpha_bound, ref["alpha_bound"], "alpha_bound", 1e-12),
        close(rep.beta_bound, ref["beta_bound"], "beta_bound", 1e-12),
        close(rep.beta_predictor, ref["beta_sigma1"], "beta_predictor", 1e-9),
        mc_consistent(rep.alpha.p_hat, samples, ref["alpha"], what="alpha_hat"),
        mc_consistent(rep.beta_sigma1.p_hat, samples, ref["beta_sigma1"],
                      what="beta_hat_sigma1"),
        None if probe is None else mc_consistent(
            rep.beta_lambda.p_hat, samples, ref["beta_lambda"],
            what="beta_hat_lambda"),
    )


def subset_tail(size: int, value: float, t: float) -> float:
    """P(r > t) for a candidate flat at ``value`` on ``size`` coordinates,
    r = (1/2) sum_S c y_i^2 - D/2 with c = v^2/(1+v^2), D = |S| ln(1+v^2)."""
    c = value * value / (1.0 + value * value)
    x = 2.0 * t + size * math.log1p(value * value)
    return 1.0 if x <= 0 else float(special.gammaincc(0.5 * size, x / (2.0 * c)))


def glrt_alpha_bracket(sizes, values, levels) -> tuple[float, float]:
    """[max_k alpha_k, sum_k alpha_k]: the union of the candidates' rejections."""
    a = [subset_tail(m, v, 0.5 * lev) for m, v, lev in zip(sizes, values, levels)]
    return max(a), min(1.0, sum(a))


def bayes_alpha_bracket(sizes, values, weights, level) -> tuple[float, float]:
    """From max_k(r_k + ln pi_k) <= L <= max_k r_k for L the log mixture ratio."""
    lo = max(subset_tail(m, v, level - math.log(p))
             for m, v, p in zip(sizes, values, weights))
    hi = sum(subset_tail(m, v, level) for m, v in zip(sizes, values))
    return lo, min(1.0, hi)


def check_alpha_in(est, samples: int, bracket, what: str) -> Reason:
    return mc_consistent(est.p_hat, samples, bracket[0], bracket[1], what)


def box_inside(half_widths, sd) -> float:
    """P(|y_i| <= h_i for all i), y_i ~ N(0, sd_i^2)."""
    h = np.asarray(half_widths, dtype=float)
    return float(np.prod(special.erf(h / (math.sqrt(2.0) * np.asarray(sd)))))


def ellipsoid_inside_bracket(weights, c: float, sd) -> tuple[float, float]:
    """Monotone bracket on P(sum w_i y_i^2 <= c), y_i ~ N(0, sd_i^2)."""
    return chi2_cdf_bracket(np.asarray(weights) * np.asarray(sd) ** 2, c)


def check_lemma1(res, kind: str, shape, c: float, xi_sd, eta_sd,
                 samples: int) -> Reason:
    sum_sd = np.hypot(xi_sd, eta_sd)
    if kind == "box":
        want_xi = (box_inside(shape, xi_sd),) * 2
        want_sum = (box_inside(shape, sum_sd),) * 2
    else:
        want_xi = ellipsoid_inside_bracket(shape, c, xi_sd)
        want_sum = ellipsoid_inside_bracket(shape, c, sum_sd)
    return first(
        mc_consistent(res.p_xi.p_hat, samples, *want_xi, what="P(xi in B)"),
        mc_consistent(res.p_sum.p_hat, samples, *want_sum, what="P(xi+eta in B)"),
        None if res.holds else "verdict holds=False for a convex symmetric set",
    )


# -- CLI reports -------------------------------------------------------------

def parse_report(returncode: int, stdout: str) -> tuple[Optional[dict], Reason]:
    if returncode != 0:
        return None, f"exit code {returncode}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"
    if not isinstance(doc, dict) or set(doc) != REPORT_KEYS:
        return None, f"report keys {sorted(doc) if isinstance(doc, dict) else doc!r}"
    return doc, None


def outputs(doc: dict) -> dict:
    return {o["name"]: o["value"] for o in doc["outputs"]}


def _dtb(sigma) -> tuple[float, float, float]:
    s2 = np.asarray(sigma, dtype=float) ** 2
    r2 = s2 / (1.0 + s2)
    return float(np.sum(np.log1p(s2))), float(np.sum(r2)), float(2.0 * np.sum(r2**2))


def check_cli(sub: str, cfg: dict, returncode: int, stdout: str) -> Reason:
    """One cold CLI call: report shape, then the subcommand's numbers."""
    doc, reason = parse_report(returncode, stdout)
    if reason is not None:
        return reason
    if doc["command"] != sub:
        return f"command {doc['command']!r}"
    out = outputs(doc)
    try:
        return _CLI_CHECKS[sub](cfg, out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"{sub}: malformed output ({exc!r})"


def _cli_stats(cfg, out):
    D, T, B = _dtb(cfg["sigma"])
    s2 = np.asarray(cfg["sigma"], dtype=float) ** 2
    return first(close(out["D"], D, "D", 1e-12), close(out["T"], T, "T", 1e-12),
                 close(out["B"], B, "B", 1e-12),
                 close(out["window_high"], float(np.sum(s2)) - D, "window_high", 1e-12))


def _cli_bounds_beta(cfg, out):
    sigma, A = cfg["sigma"], cfg["A"]
    n, s = len(sigma), sigma[0]
    thr = n * math.log1p(s * s) + A
    ln_beta = log_gamma_p(0.5 * n, thr / (2.0 * s * s))
    tol = 1e-9 * (1.0 + abs(ln_beta))
    return first(
        None if out["beta_upper"] >= math.exp(ln_beta) * (1 - 1e-12)
        else f"beta_upper {out['beta_upper']:.6g} below miss {math.exp(ln_beta):.6g}",
        None if out["ln_beta_lower"] - tol <= ln_beta <= out["ln_beta_upper"] + tol
        else f"ln beta {ln_beta:.6g} outside the sandwich",
    )


def _cli_bounds_alpha(cfg, out):
    sigma, A = cfg["sigma"], cfg["A"]
    n, s = len(sigma), sigma[0]
    alpha = _flat_alpha(s, n, A)
    reason = first(
        None if out["alpha_upper_chernoff"] >= alpha * (1 - 1e-12)
        else f"Chernoff {out['alpha_upper_chernoff']:.6g} below alpha {alpha:.6g}",
        close(out["alpha_upper_simple"], math.exp(-A / 2.0), "simple bound", 1e-12),
    )
    if reason is None and out["alpha_normal_approx"] is not None:
        reason = check_berry_esseen(
            (out["alpha_normal_approx"], out["alpha_normal_guarantee"]), s, n, A)
    return reason


def _cli_mismatch(cfg, out):
    sigma, lam, A = cfg["sigma"], cfg["lambda"], cfg["A"]
    n, s, lv = len(sigma), sigma[0], lam[0]
    nu2 = s * s * (1.0 + lv * lv) / (1.0 + s * s)
    thr = n * math.log1p(s * s) + A
    beta = math.exp(log_gamma_p(0.5 * n, thr / (2.0 * nu2)))
    return first(
        close(out["nu_squared"][0], nu2, "nu_squared", 1e-12),
        None if out["beta_mismatch_upper"] >= beta * (1 - 1e-12)
        else f"bound {out['beta_mismatch_upper']:.6g} below miss {beta:.6g}",
    )


def _cli_reduce(cfg, out):
    wm = {int(k): v for k, v in out["witness_map"].items()}
    return check_reduction(cfg["points"], out["reduced"], out["removed_count"], wm)


def _cli_simulate(cfg, out):
    n, s = len(cfg["sigma"]), cfg["sigma"][0]
    return mc_consistent(out["alpha_hat"], cfg["samples"],
                         _flat_alpha(s, n, cfg["A"]), what="alpha_hat")


def _cli_example1(cfg, out):
    n, D = cfg["n"], cfg["D"]
    return first(
        None if out["sigma0"] == [D] * n else "sigma0 is not (D, ..., D)",
        None if out["equality_notion"] == "exact" else "equality_notion",
        None if out["self_certificate_valid"] is True else "self certificate invalid",
    )


def _cli_example3(cfg, out):
    ref = example3_reference(cfg["n"], cfg["R"], cfg["lambda"])
    N = cfg["samples"]
    return first(
        close(out["A"], ref["A"], "A", 1e-12),
        close(out["beta_predictor"], ref["beta_sigma1"], "beta_predictor", 1e-9),
        mc_consistent(out["alpha_hat"], N, ref["alpha"], what="alpha_hat"),
        mc_consistent(out["beta_hat_sigma1"], N, ref["beta_sigma1"],
                      what="beta_hat_sigma1"),
        mc_consistent(out["beta_hat_lambda"], N, ref["beta_lambda"],
                      what="beta_hat_lambda"),
    )


def _cli_tails(cfg, out):
    z = cfg["z"]
    chi = cfg["chi2"]
    Q = normal_upper_tail(z)
    exact = log_gamma_p(0.5 * chi["n"], 0.5 * chi["A"])
    tol = 1e-12 * (1.0 + abs(exact))
    return first(
        None if out["normal_tail_lower"] <= Q <= out["normal_tail_upper"]
        else f"Q(z) {Q:.6g} outside the normal tail sandwich",
        None if out["chi2_log_tail_lower"] - tol <= exact <= out["chi2_log_tail_upper"] + tol
        else f"ln P(chi2 < A) {exact:.6g} outside the sandwich",
    )


_CLI_CHECKS = {
    "stats": _cli_stats,
    "bounds-beta": _cli_bounds_beta,
    "bounds-alpha": _cli_bounds_alpha,
    "mismatch": _cli_mismatch,
    "reduce": _cli_reduce,
    "simulate": _cli_simulate,
    "example1": _cli_example1,
    "example3": _cli_example3,
    "tails": _cli_tails,
}
