"""Command line interface: config ingestion, scenario runners, reporting.

One JSON config format serves files and stdin; every subcommand validates
its fields strictly (unknown fields are rejected) before dispatch, and emits
a machine-readable report on stdout as JSON or flattened CSV.  Exit codes:
0 success, 1 invalid input, 2 out of regime.  See docs/formats.md for the
bit-exact config and report schemas.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from typing import Any, Optional

import click
import numpy as np

from . import exponents, reduction, simulate, tails
from .errors import InvalidInput, OutOfRegime
from .model import (
    BayesTest,
    DiscretePrior,
    FinitePoints,
    GlrtTest,
    IntensityVector,
    NpTest,
    ProductFloor,
    SumFloor,
    signal_statistics,
)

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 1

COMMON_KEYS = {"samples", "seed", "format"}

# Caps on a dimension n, documented in docs/formats.md: arrays of n floats
# stay small, and sum_floor's reduction lists n one-hot vectors of length n.
MAX_DIM = 10**6
MAX_ONE_HOT_DIM = 2_000


class ConfigError(InvalidInput):
    pass


def _load_config(config_path: Optional[str]) -> dict:
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        source = config_path
    else:
        text = sys.stdin.read()
        source = "<stdin>"
    if not text.strip():
        return {}
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set[str], required: set[str]) -> None:
    unknown = set(cfg) - allowed - COMMON_KEYS
    if unknown:
        raise ConfigError(f"unknown field {sorted(unknown)[0]!r}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing required field {sorted(missing)[0]!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, float) or _is_int(value)


def _number(value, key: str) -> float:
    """A finite JSON number as a float."""
    try:
        if _is_number(value) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(f"{key} must be a finite number")


def _vector(value, key: str) -> np.ndarray:
    """A nonempty JSON array of finite numbers as a float array."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a nonempty array of numbers")
    return np.array([_number(v, f"{key}[{i}]") for i, v in enumerate(value)])


def _section(cfg: dict, key: str) -> dict:
    """A nested JSON object."""
    value = cfg[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return value


def _sigma_from(cfg: dict, key: str = "sigma") -> IntensityVector:
    return IntensityVector(_vector(cfg[key], key))


def _float_from(cfg: dict, key: str) -> float:
    return _number(cfg[key], key)


def _dim_from(cfg: dict, key: str, cap: int = MAX_DIM) -> int:
    """A dimension: a JSON integer in [1, cap]."""
    n = cfg[key]
    if not (_is_int(n) and 1 <= n <= cap):
        raise ConfigError(f"{key} must be an integer in [1, {cap}]")
    return n


class Report:
    """Accumulates labeled outputs and renders JSON or CSV."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.outputs: list[dict[str, Any]] = []
        self._t0 = time.monotonic()

    def add(self, name: str, value, provenance: str) -> None:
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        if isinstance(value, np.ndarray):
            value = value.tolist()
        self.outputs.append(
            {"name": name, "value": value, "provenance": provenance}
        )

    def render(self, fmt: str) -> str:
        if fmt == "json":
            doc = {
                "command": self.command,
                "inputs": self.inputs,
                "outputs": self.outputs,
                "wall_time_s": round(time.monotonic() - self._t0, 6),
            }
            return json.dumps(doc, indent=2, sort_keys=True)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["quantity", "value", "provenance"])
        for out in self.outputs:
            writer.writerow([out["name"], out["value"], out["provenance"]])
        return buf.getvalue().rstrip("\n")


def _mc_outputs(report: Report, name: str, est: simulate.MonteCarloEstimate,
                provenance: str) -> None:
    report.add(name, est.p_hat, provenance)
    report.add(f"{name}_stderr", est.stderr, "binomial standard error")


@click.group()
def main():
    """Minimax detection of Gaussian stochastic signals: bounds, tests, MC."""


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True),
                      default=None, help="JSON config file (default: stdin).")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="RNG seed (overrides config).")(fn)
    fn = click.option("--samples", type=int, default=None,
                      help="Monte Carlo samples (overrides config).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                      default=None, help="Output format (overrides config).")(fn)
    return fn


def _run(handler, config_path, seed, samples, fmt):
    try:
        cfg = _load_config(config_path)
        fmt = fmt or cfg.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError("format must be 'json' or 'csv'")
        samples = samples if samples is not None else cfg.get("samples",
                                                             DEFAULT_SAMPLES)
        seed = seed if seed is not None else cfg.get("seed", DEFAULT_SEED)
        if not _is_int(samples):
            raise ConfigError("samples must be an integer")
        if not _is_int(seed):
            raise ConfigError("seed must be an integer")
        report = handler(cfg, samples, seed)
        click.echo(report.render(fmt))
    except OutOfRegime as exc:
        click.echo(f"out of regime: {exc}", err=True)
        sys.exit(2)
    except InvalidInput as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


def _register(name: str):
    def deco(handler):
        @main.command(name=name, help=handler.__doc__)
        @_common_options
        def _cmd(config_path, seed, samples, fmt):
            _run(handler, config_path, seed, samples, fmt)

        _cmd.__name__ = name.replace("-", "_")
        return handler

    return deco


@_register("stats")
def _stats(cfg, samples, seed) -> Report:
    """Scalar statistics D, T, B, delta and the operating window."""
    _check_keys(cfg, {"sigma"}, {"sigma"})
    sigma = _sigma_from(cfg)
    stats = signal_statistics(sigma)
    report = Report("stats", {"sigma": sigma.values.tolist()})
    report.add("D", stats.D, "D = sum ln(1+sigma_i^2)")
    report.add("T", stats.T, "T = sum sigma_i^2/(1+sigma_i^2)")
    report.add("B", stats.B, "B = 2 sum sigma_i^4/(1+sigma_i^2)^2")
    report.add("delta", stats.delta,
               "delta = ln(max sigma_i^2 / min sigma_i^2); null if undefined")
    report.add("window_low", stats.window[0], "operating window lower edge T - D")
    report.add("window_high", stats.window[1],
               "operating window upper edge sum sigma_i^2 - D")
    return report


@_register("bounds-beta")
def _bounds_beta(cfg, samples, seed) -> Report:
    """Chernoff upper bound and block-partition sandwich on the miss probability."""
    _check_keys(cfg, {"sigma", "A", "K"}, {"sigma", "A"})
    sigma = _sigma_from(cfg)
    A = _float_from(cfg, "A")
    K = cfg.get("K")
    if K is not None and not _is_int(K):
        raise ConfigError("K must be an integer")
    report = Report("bounds-beta", {"sigma": sigma.values.tolist(), "A": A})
    sol = exponents.solve_u0(sigma, A)
    report.add("u0", sol.argmax, "stationary point of the miss exponent g")
    report.add("g_u0", sol.value, "maximized miss exponent g(u0)")
    report.add("boundary_case", sol.boundary_case,
               "interior, or the endpoint at which the maximum sits")
    report.add("u0_iterations", sol.iterations,
               "safeguarded Newton iterations of the u0 solve; 0 at an endpoint")
    report.add("u0_residual", sol.stationarity_residual,
               "g'(u0); zero up to the solver tolerance when interior")
    report.add("beta_upper", exponents.beta_upper_bound(sigma, A),
               "Chernoff bound exp(-g(u0))")
    try:
        sandwich = exponents.beta_lower_bound(sigma, A, K=K)
        report.add("ln_beta_lower", sandwich.interval.lower,
                   sandwich.interval.lower_provenance)
        report.add("ln_beta_upper", sandwich.interval.upper,
                   sandwich.interval.upper_provenance)
        report.add("ln_beta_constructive_lower", sandwich.constructive_lower,
                   "per-block chi-square lower-tail bound at optimized levels")
        report.add("u1", sandwich.u1, "blockwise stationary point, u1 >= u0")
        report.add("u1_residual", sandwich.u1_residual,
                   "sum_k m_k b_k/(1+u1 b_k) - (D + A); zero up to the "
                   "solver tolerance")
        report.add("K", sandwich.K, "block count")
    except (InvalidInput, OutOfRegime) as exc:
        report.add("ln_beta_sandwich", None, f"not available: {exc}")
    return report


@_register("bounds-alpha")
def _bounds_alpha(cfg, samples, seed) -> Report:
    """Chernoff and normal-approximation bounds on the false alarm probability."""
    _check_keys(cfg, {"sigma", "A"}, {"sigma", "A"})
    sigma = _sigma_from(cfg)
    A = _float_from(cfg, "A")
    report = Report("bounds-alpha", {"sigma": sigma.values.tolist(), "A": A})
    sol, chernoff, simple = exponents.alpha_upper_bound(sigma, A)
    report.add("t0", sol.argmax, "stationary point of the false-alarm exponent f")
    report.add("f_t0", sol.value, "maximized false-alarm exponent f(t0)")
    report.add("t0_iterations", sol.iterations,
               "safeguarded Newton iterations of the t0 solve; 0 at an endpoint")
    report.add("t0_residual", sol.stationarity_residual,
               "f'(t0); zero up to the solver tolerance when interior")
    report.add("alpha_upper_chernoff", chernoff, "Chernoff bound exp(-f(t0))")
    report.add("alpha_upper_simple", simple, "simple bound exp(-A/2) = exp(-f(1))")
    try:
        approx, guarantee = tails.berry_esseen_alpha(sigma, A)
        report.add("alpha_normal_approx", approx,
                   "normal approximation Q((D+A-T)/sqrt(B))")
        report.add("alpha_normal_guarantee", guarantee,
                   "Berry-Esseen guarantee 5/sqrt(B) on the approximation")
    except OutOfRegime as exc:
        report.add("alpha_normal_approx", None, f"not available: {exc}")
    try:
        a_star, cap = tails.prop4_threshold(sigma)
        report.add("A_star", a_star,
                   "level above which alpha <= 6/sqrt(B) is guaranteed")
        report.add("alpha_cap", cap, "guaranteed cap 6/sqrt(B) for A >= A_star")
    except OutOfRegime as exc:
        report.add("A_star", None, f"not available: {exc}")
    return report


@_register("mismatch")
def _mismatch(cfg, samples, seed) -> Report:
    """Mismatched miss bound and replaceability condition checks."""
    _check_keys(cfg, {"sigma", "lambda", "A"}, {"sigma", "lambda", "A"})
    sigma = _sigma_from(cfg)
    lam = _sigma_from(cfg, "lambda")
    A = _float_from(cfg, "A")
    report = Report(
        "mismatch",
        {"sigma": sigma.values.tolist(), "lambda": lam.values.tolist(), "A": A},
    )
    prof = exponents.mismatch_profile(sigma, lam)
    report.add("nu_squared", prof.nu_squared,
               "transformed variances sigma^2 (1+lambda^2)/(1+sigma^2)")
    sol, bound = exponents.beta_mismatch_upper(sigma, lam, A)
    report.add("v0", sol.argmax, "stationary point of the mismatch exponent")
    report.add("v0_iterations", sol.iterations,
               "safeguarded Newton iterations of the v0 solve; 0 at v0 = 0")
    report.add("v0_residual", sol.stationarity_residual,
               "g_nu'(v0); zero up to the solver tolerance when interior")
    report.add("beta_mismatch_upper", bound,
               "Chernoff bound exp(-g_nu(v0)) on the mismatched miss")
    for mode in (exponents.MODE_EXACT_U0, exponents.MODE_U0_EQUALS_1,
                 exponents.MODE_ASYMP1A):
        try:
            check = exponents.sufficient_condition_check(sigma, lam, A, mode)
            report.add(f"condition_{mode}_lhs", check.lhs,
                       "exponent perturbation from replacing sigma by lambda")
            report.add(f"condition_{mode}_ratio", check.ratio,
                       "perturbation relative to the reference exponent")
            report.add(f"condition_{mode}_violated", check.violated,
                       "true when a log argument was nonpositive")
        except OutOfRegime as exc:
            report.add(f"condition_{mode}_lhs", None, f"not available: {exc}")
    transfer = exponents.bound_transfer(sigma, lam, A)
    if transfer.applicable:
        report.add("ln_beta_lambda_transfer", transfer.value,
                   "transferred bound -g_sigma(u0) + spread penalty, clipped at 0")
    else:
        report.add("ln_beta_lambda_transfer", None,
                   "exponent ordering hypothesis failed; transfer not applicable")
    return report


def _points_from(cfg_points, key: str) -> FinitePoints:
    if not isinstance(cfg_points, list) or not cfg_points:
        raise ConfigError(f"{key} must be a nonempty array of arrays")
    return FinitePoints(
        tuple(IntensityVector(_vector(p, f"{key}[{i}]"))
              for i, p in enumerate(cfg_points))
    )


def _groups_from(value, key: str) -> list:
    if not (isinstance(value, list) and value and all(
            isinstance(g, list) and all(map(_is_int, g)) for g in value)):
        raise ConfigError(f"{key} must be a nonempty array of arrays of integers")
    return value


@_register("reduce")
def _reduce(cfg, samples, seed) -> Report:
    """Set reduction: Pareto-minimal subset, canonical reductions, certificates."""
    _check_keys(
        cfg,
        {"points", "product_floor", "sum_floor", "certificate"},
        set(),
    )
    sources = [k for k in ("points", "product_floor", "sum_floor") if k in cfg]
    if len(sources) > 1:
        raise ConfigError("give exactly one of points, product_floor, sum_floor")
    report = Report("reduce", {k: cfg[k] for k in cfg})
    if "points" in cfg:
        result = reduction.reduce_to_minimal(_points_from(cfg["points"], "points"))
        report.add("reduced",
                   [p.values.tolist() for p in result.reduced.points],
                   "componentwise-minimal subset")
        report.add("removed_count", result.removed_count,
                   "points dominated from below by a kept point")
        report.add("witness_map",
                   {str(k): v for k, v in result.witness_map.items()},
                   "removed input index -> dominating kept index")
    elif "product_floor" in cfg:
        pf = _section(cfg, "product_floor")
        _check_keys(pf, {"n", "D"}, {"n", "D"})
        red = reduction.canonical_reduction(
            ProductFloor(_dim_from(pf, "n"), _float_from(pf, "D"))
        )
        report.add("reduced", [p.values.tolist() for p in red.points.points],
                   "flat corner point of the product floor")
        report.add("equality_notion", red.equality_notion,
                   "exact: same minimax miss probability at every level")
    elif "sum_floor" in cfg:
        sf = _section(cfg, "sum_floor")
        _check_keys(sf, {"n", "R"}, {"n", "R"})
        red = reduction.canonical_reduction(
            SumFloor(_dim_from(sf, "n", MAX_ONE_HOT_DIM), _float_from(sf, "R"))
        )
        report.add("reduced", [p.values.tolist() for p in red.points.points],
                   "one-hot minimizers of D on the sum floor")
        report.add("equality_notion", red.equality_notion,
                   "asymptotic: equality of logarithmic rates only")
    if "certificate" in cfg:
        cert_cfg = _section(cfg, "certificate")
        _check_keys(cert_cfg, {"sigma", "lambda", "groups"},
                    {"sigma", "lambda", "groups"})
        cert = reduction.lemma2_certificate(
            _sigma_from(cert_cfg),
            _sigma_from(cert_cfg, "lambda"),
            _groups_from(cert_cfg["groups"], "certificate.groups"),
        )
        report.add("certificate_valid", cert.valid,
                   "sigma_i <= group geometric mean of lambda, every group")
        report.add("certificate_geo_means", list(cert.geo_means),
                   "geometric mean of lambda per group")
    if not sources and "certificate" not in cfg:
        raise ConfigError("missing required field 'points'")
    return report


@_register("simulate")
def _simulate(cfg, samples, seed) -> Report:
    """Monte Carlo error probabilities for an NP, mixture, or max-ratio test."""
    _check_keys(
        cfg,
        {"test", "sigma", "A", "prior", "level", "candidates", "levels", "true"},
        {"test"},
    )
    kind = cfg["test"]
    if kind == "np":
        _check_keys(cfg, {"test", "sigma", "A", "true"}, {"sigma", "A"})
        test = NpTest(_sigma_from(cfg), _float_from(cfg, "A"))
    elif kind == "bayes":
        _check_keys(cfg, {"test", "prior", "level", "true"}, {"prior", "level"})
        prior_cfg = _section(cfg, "prior")
        _check_keys(prior_cfg, {"points", "weights"}, {"points", "weights"})
        prior = DiscretePrior(
            _points_from(prior_cfg["points"], "prior.points").points,
            _vector(prior_cfg["weights"], "prior.weights"),
        )
        test = BayesTest(prior, _float_from(cfg, "level"))
    elif kind == "glrt":
        _check_keys(cfg, {"test", "candidates", "levels", "true"},
                    {"candidates", "levels"})
        levels = cfg["levels"]
        test = GlrtTest(
            _points_from(cfg["candidates"], "candidates"),
            _vector(levels, "levels") if isinstance(levels, list)
            else _number(levels, "levels"),
        )
    else:
        raise ConfigError("test must be one of 'np', 'bayes', 'glrt'")
    true_spec = cfg.get("true", "H0")
    report = Report("simulate", {k: cfg[k] for k in cfg})
    if true_spec == "H0":
        est = simulate.estimate_error_probs(test, None, samples, seed)
        _mc_outputs(report, "alpha_hat", est,
                    "rejection frequency under pure noise")
    else:
        if not isinstance(true_spec, list):
            raise ConfigError("true must be 'H0' or an array of numbers")
        true_sigma = IntensityVector(_vector(true_spec, "true"))
        est = simulate.estimate_error_probs(test, true_sigma, samples, seed)
        _mc_outputs(report, "beta_hat", est,
                    "acceptance frequency under the given true intensity")
    return report


@_register("example1")
def _example1(cfg, samples, seed) -> Report:
    """Product-floor set: exact reduction to its flat corner point."""
    _check_keys(cfg, {"n", "D"}, {"n", "D"})
    n = _dim_from(cfg, "n")
    D = _float_from(cfg, "D")
    red = reduction.canonical_reduction(ProductFloor(n, D))
    point = red.points.points[0]
    report = Report("example1", {"n": n, "D": D})
    report.add("sigma0", point.values.tolist(),
               "flat corner point of the product floor")
    report.add("equality_notion", red.equality_notion,
               "exact: same minimax miss probability at every level")
    cert = reduction.lemma2_certificate(
        point, point, [list(range(n))]
    )
    report.add("self_certificate_valid", cert.valid,
               "one-group geometric-mean certificate at the corner point")
    return report


@_register("example3")
def _example3(cfg, samples, seed) -> Report:
    """Sum-floor set: max-ratio test over one-hot candidates, MC vs caps."""
    _check_keys(cfg, {"n", "R", "lambda"}, {"n", "R"})
    n = _dim_from(cfg, "n")
    R = _float_from(cfg, "R")
    probe = None
    if "lambda" in cfg:
        probe = _sigma_from(cfg, "lambda")
    report = Report("example3", {"n": n, "R": R,
                                 "lambda": None if probe is None
                                 else probe.values.tolist()})
    rep = simulate.example3_experiment(n, R, samples, seed, probe)
    report.add("A", rep.A, "common level 2 ln n - ln(1+n R^2)")
    report.add("threshold", rep.threshold,
               "per-coordinate acceptance threshold on y_i^2")
    _mc_outputs(report, "alpha_hat", rep.alpha,
                "rejection frequency under pure noise")
    _mc_outputs(report, "beta_hat_sigma1", rep.beta_sigma1,
                "acceptance frequency at the one-hot design point")
    report.add("alpha_bound", rep.alpha_bound, "cap 1/sqrt(2 ln n)")
    report.add("beta_bound", rep.beta_bound, "cap sqrt(2 ln n)/(R sqrt(n))")
    report.add("beta_predictor", rep.beta_predictor,
               "closed-form product of per-coordinate normal probabilities")
    if rep.beta_lambda is not None:
        _mc_outputs(report, "beta_hat_lambda", rep.beta_lambda,
                    "acceptance frequency at the probe intensity")
        report.add("log_ratio", rep.log_ratio,
                   "ln beta(lambda) / ln beta(sigma1), diagnostic only")
    return report


@_register("tails")
def _tails(cfg, samples, seed) -> Report:
    """Gaussian tail sandwich and chi-square log-tail sandwiches."""
    _check_keys(cfg, {"z", "chi2"}, set())
    if "z" not in cfg and "chi2" not in cfg:
        raise ConfigError("give z and/or chi2")
    report = Report("tails", {k: cfg[k] for k in cfg})
    if "z" in cfg:
        sw = tails.normal_tail_bounds(_float_from(cfg, "z"))
        report.add("normal_tail_lower", sw.lower,
                   "z exp(-z^2/2)/((z^2+1) sqrt(2 pi))")
        report.add("normal_tail_upper", sw.upper, "exp(-z^2/2)/(z sqrt(2 pi))")
    if "chi2" in cfg:
        chi = _section(cfg, "chi2")
        _check_keys(chi, {"n", "A", "tail"}, {"n", "A", "tail"})
        n = _dim_from(chi, "n")
        A = _float_from(chi, "A")
        if chi["tail"] == "lower":
            sw = tails.chi2_lower_tail_sandwich(A, n)
            label = "ln P(chi2_n < A)"
        elif chi["tail"] == "upper":
            sw = tails.chi2_upper_tail_sandwich(A, n)
            label = "ln P(chi2_n > A)"
        else:
            raise ConfigError("chi2.tail must be 'lower' or 'upper'")
        report.add("chi2_log_tail_lower", sw.lower, f"{label} lower bound")
        report.add("chi2_log_tail_upper", sw.upper, f"{label} upper bound")
        report.add("chi2_pivot", sw.center,
                   "exponent pivot -((n/2) ln(n/(eA)) + A/2)")
    return report


if __name__ == "__main__":
    main()
