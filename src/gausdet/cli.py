"""Command line interface: config ingestion, scenario runners, reporting.

One JSON config format serves files and stdin.  Each subcommand has one
field table, and ``_parse`` checks a config against it: unknown field, then
missing required field, then each value through its typed reader.  A number,
an integer, an array or an intensity is read by the model's ``_as_number``,
``_as_integer``, ``_as_vector`` or ``_as_intensities``, the library's own
readers; the readers here add only JSON shapes, caps and choices.  It reads
the common fields (top level only, checked even where a flag overrides
them) and every nested section the same way.  A flag is read
as the JSON value it spells, else as a string, by the common field's reader.
Each subcommand builds its report with the config as given and the flags
over it as its ``inputs``; handlers get the parsed values and only add outputs,
rendered on stdout as JSON or flattened CSV.  Exit codes: 0 success, 1
invalid input, 2 out of regime.  See docs/formats.md for the bit-exact
config and report schemas.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from typing import Any, Callable, Optional

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
    _as_integer,
    _as_intensities,
    _as_number,
    _as_vector,
    signal_statistics,
)

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 1

# Caps, documented in docs/formats.md: arrays of n floats stay small, sum_floor's
# reduction lists n one-hot vectors of length n, and samples bounds a run's work.
MAX_DIM = 10**6
MAX_ONE_HOT_DIM = 2_000
MAX_SAMPLES = 10**9


def _load_config(config_path: Optional[str]) -> dict:
    source = "<stdin>" if config_path is None else config_path
    try:
        if config_path is None:
            text = sys.stdin.read()
        else:
            with open(config_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        cfg = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{source}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, huge integer
        why = getattr(exc, "strerror", None) or exc
        raise InvalidInput(f"{source}: {why}") from exc
    if not isinstance(cfg, dict):
        raise InvalidInput(f"{source}: top level must be a JSON object")
    return cfg


def _flag_value(text: str):
    """The JSON value a flag spells, or the flag as a string if it is not JSON."""
    try:
        return json.loads(text)
    except ValueError:
        return text


# Readers: (JSON value, field name) -> parsed value, or an InvalidInput naming it.
def _vector(value, key: str) -> np.ndarray:
    """A nonempty JSON array of numbers; its entry i is named key[i]."""
    if not isinstance(value, list) or not value:
        raise InvalidInput(f"{key} must be a nonempty array of numbers")
    return _as_vector(value, key)


def _sigma(value, key: str) -> IntensityVector:
    return IntensityVector(_as_intensities(_vector(value, key), key))


def _points(value, key: str) -> FinitePoints:
    if not isinstance(value, list) or not value:
        raise InvalidInput(f"{key} must be a nonempty array of arrays")
    return FinitePoints(tuple(_sigma(p, f"{key}[{i}]") for i, p in enumerate(value)))


def _groups(value, key: str) -> list:
    """A nonempty array of arrays; lemma2_certificate reads the indices."""
    if not (isinstance(value, list) and value
            and all(isinstance(g, list) for g in value)):
        raise InvalidInput(f"{key} must be a nonempty array of arrays of integers")
    return value


def _dim(cap: int = MAX_DIM) -> Callable:
    """A dimension: an integer in [1, cap]."""
    def read(value, key: str) -> int:
        n = _as_integer(value, key)
        if not 1 <= n <= cap:
            raise InvalidInput(f"{key} must be an integer in [1, {cap}]")
        return n
    return read


def _samples(value, key: str) -> int:
    """An integer up to MAX_SAMPLES; the Monte Carlo runs set the floor."""
    samples = _as_integer(value, key)
    if samples > MAX_SAMPLES:
        raise InvalidInput(f"{key} must be at most {MAX_SAMPLES}")
    return samples


def _choice(*options: str) -> Callable:
    def read(value, key: str) -> str:
        if not (isinstance(value, str) and value in options):
            listed = ", ".join(map(repr, options))
            raise InvalidInput(f"{key} must be one of {listed}")
        return value
    return read


def _parse(cfg: dict, fields: dict) -> dict:
    """Read cfg against a table that maps each field to its reader, or to
    (reader, default) when it is optional; a nested section's reader is its
    own table.  An absent optional field takes its default as it stands.
    """
    unknown = sorted(set(cfg) - set(fields))
    if unknown:
        raise InvalidInput(f"unknown field {unknown[0]!r}")
    missing = sorted(k for k, spec in fields.items()
                     if not isinstance(spec, tuple) and k not in cfg)
    if missing:
        raise InvalidInput(f"missing required field {missing[0]!r}")
    args = {}
    for k, spec in fields.items():
        read, default = spec if isinstance(spec, tuple) else (spec, None)
        if k not in cfg:
            args[k] = default
        elif not isinstance(read, dict):
            args[k] = read(cfg[k], k)
        elif isinstance(cfg[k], dict):
            args[k] = _parse(cfg[k], read)
        else:
            raise InvalidInput(f"{k} must be a JSON object")
    return args


# Read at the top level of every subcommand, before its own fields; a flag
# given on the command line overrides the value read.
COMMON_FIELDS = {
    "format": (_choice("json", "csv"), "json"),
    "samples": (_samples, DEFAULT_SAMPLES),
    "seed": (_as_integer, DEFAULT_SEED),
}


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


FIELDS: dict[str, Any] = {}  # subcommand -> table, or a function of the config


def _register(name: str, fields):
    def deco(handler):
        @main.command(name=name, help=handler.__doc__)
        @click.option("--format", default=None,
                      help="Output format (overrides config).")
        @click.option("--samples", default=None,
                      help="Monte Carlo samples (overrides config).")
        @click.option("--seed", default=None,
                      help="RNG seed (overrides config).")
        @click.option("--config", "config_path", default=None,
                      help="JSON config file (default: stdin).")
        def _cmd(config_path, **flags):
            try:
                cfg = _load_config(config_path)
                given = {k: _flag_value(v) for k, v in flags.items() if v is not None}
                table = fields if isinstance(fields, dict) else fields(cfg)
                args = _parse(cfg, {**COMMON_FIELDS, **table})
                args.update((k, COMMON_FIELDS[k][0](v, k)) for k, v in given.items())
                report = Report(name, {**cfg, **given})
                handler(args, report)
                click.echo(report.render(args["format"]))
            except OutOfRegime as exc:
                click.echo(f"out of regime: {exc}", err=True)
                sys.exit(2)
            except InvalidInput as exc:
                click.echo(f"invalid input: {exc}", err=True)
                sys.exit(1)
            sys.exit(0)

        _cmd.__name__ = name.replace("-", "_")
        FIELDS[name] = fields
        return handler

    return deco


@_register("stats", {"sigma": _sigma})
def _stats(args, report: Report) -> None:
    """Scalar statistics D, T, B, delta and the operating window."""
    sigma = args["sigma"]
    stats = signal_statistics(sigma)
    report.add("D", stats.D, "D = sum ln(1+sigma_i^2)")
    report.add("T", stats.T, "T = sum sigma_i^2/(1+sigma_i^2)")
    report.add("B", stats.B, "B = 2 sum sigma_i^4/(1+sigma_i^2)^2")
    report.add("delta", stats.delta,
               "delta = ln(max sigma_i^2 / min sigma_i^2); null if undefined")
    report.add("window_low", stats.window[0], "operating window lower edge T - D")
    report.add("window_high", stats.window[1],
               "operating window upper edge sum sigma_i^2 - D")


def _block_count(value, key: str) -> Optional[int]:
    """K; null means omitted, as an absent K does."""
    return None if value is None else _as_integer(value, key)


@_register("bounds-beta", {"sigma": _sigma, "A": _as_number, "K": (_block_count, None)})
def _bounds_beta(args, report: Report) -> None:
    """Chernoff upper bound and block-partition sandwich on the miss probability."""
    sigma, A = args["sigma"], args["A"]
    try:  # u0 is solved once: the sandwich holds the Chernoff bound's solve
        sandwich = exponents.beta_lower_bound(sigma, A, K=args["K"])
        sol = sandwich.u0
    except (InvalidInput, OutOfRegime) as exc:
        sandwich, unavailable = None, f"not available: {exc}"
        sol = exponents.solve_u0(sigma, A)
    report.add("u0", sol.argmax, "stationary point of the miss exponent g")
    report.add("g_u0", sol.value, "maximized miss exponent g(u0)")
    report.add("boundary_case", sol.boundary_case,
               "interior, or the endpoint at which the maximum sits")
    report.add("u0_iterations", sol.iterations,
               "safeguarded Newton iterations of the u0 solve; 0 at an endpoint")
    report.add("u0_residual", sol.stationarity_residual,
               "g'(u0); zero up to the solver tolerance when interior")
    # beta_upper_bound's value, from the u0 solved above
    report.add("beta_upper", min(1.0, math.exp(-sol.value)),
               "Chernoff bound exp(-g(u0))")
    if sandwich is None:
        report.add("ln_beta_sandwich", None, unavailable)
        return
    report.add("ln_beta_lower", sandwich.interval.lower,
               "block chi-square construction, optimized K")
    report.add("ln_beta_upper", sandwich.interval.upper,
               "Chernoff bound exp(-g(u0))")
    report.add("ln_beta_constructive_lower", sandwich.constructive_lower,
               "per-block chi-square lower-tail bound at optimized levels")
    report.add("u1", sandwich.u1, "blockwise stationary point, u1 >= u0")
    report.add("u1_residual", sandwich.u1_residual,
               "sum_k m_k b_k/(1+u1 b_k) - (D + A); zero up to the "
               "solver tolerance")
    report.add("K", sandwich.K, "block count")


@_register("bounds-alpha", {"sigma": _sigma, "A": _as_number})
def _bounds_alpha(args, report: Report) -> None:
    """Chernoff and normal-approximation bounds on the false alarm probability."""
    sigma, A = args["sigma"], args["A"]
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


@_register("mismatch", {"sigma": _sigma, "lambda": _sigma, "A": _as_number})
def _mismatch(args, report: Report) -> None:
    """Mismatched miss bound and replaceability condition checks."""
    sigma, lam, A = args["sigma"], args["lambda"], args["A"]
    report.add("nu_squared", exponents.mismatch_profile(sigma, lam),
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
            why = ("a log argument was nonpositive" if check.violated
                   else "the reference exponent is 0")
            for key, value, provenance in (
                    ("lhs", check.lhs,
                     "exponent perturbation from replacing sigma by lambda"),
                    ("ratio", check.ratio,
                     "perturbation relative to the reference exponent")):
                if math.isnan(value):
                    value, provenance = None, f"not available: {why}"
                report.add(f"condition_{mode}_{key}", value, provenance)
            report.add(f"condition_{mode}_violated", check.violated,
                       "true when a log argument was nonpositive")
        except OutOfRegime as exc:
            report.add(f"condition_{mode}_lhs", None, f"not available: {exc}")
    try:
        transfer = exponents.bound_transfer(sigma, lam, A)
    except InvalidInput as exc:  # delta is undefined when some sigma_i = 0
        report.add("ln_beta_lambda_transfer", None, f"not available: {exc}")
        return
    if transfer.applicable:
        report.add("ln_beta_lambda_transfer", transfer.value,
                   "transferred bound -g_sigma(u0) + spread penalty, clipped at 0")
    else:
        report.add("ln_beta_lambda_transfer", None,
                   "exponent ordering hypothesis failed; transfer not applicable")


@_register("reduce", {
    "points": (_points, None),
    "product_floor": ({"n": _dim(), "D": _as_number}, None),
    "sum_floor": ({"n": _dim(MAX_ONE_HOT_DIM), "R": _as_number}, None),
    "certificate": ({"sigma": _sigma, "lambda": _sigma, "groups": _groups}, None),
})
def _reduce(args, report: Report) -> None:
    """Set reduction: Pareto-minimal subset, canonical reductions, certificates."""
    sources = [k for k in ("points", "product_floor", "sum_floor")
               if args[k] is not None]
    if len(sources) > 1:
        raise InvalidInput("give exactly one of points, product_floor, sum_floor")
    if not sources and args["certificate"] is None:
        raise InvalidInput("missing required field 'points'")
    if args["points"] is not None:
        result = reduction.reduce_to_minimal(args["points"])
        report.add("reduced",
                   [p.values.tolist() for p in result.reduced.points],
                   "componentwise-minimal subset")
        report.add("removed_count", result.removed_count,
                   "points dominated from below by a kept point")
        report.add("witness_map",
                   {str(k): v for k, v in result.witness_map.items()},
                   "removed input index -> dominating kept index")
    elif args["product_floor"] is not None:
        red = reduction.canonical_reduction(ProductFloor(**args["product_floor"]))
        report.add("reduced", [p.values.tolist() for p in red.points.points],
                   "flat corner point of the product floor")
        report.add("equality_notion", red.equality_notion,
                   "exact: same minimax miss probability at every level")
    elif args["sum_floor"] is not None:
        red = reduction.canonical_reduction(SumFloor(**args["sum_floor"]))
        report.add("reduced", [p.values.tolist() for p in red.points.points],
                   "one-hot minimizers of D on the sum floor")
        report.add("equality_notion", red.equality_notion,
                   "asymptotic: equality of logarithmic rates only")
    if args["certificate"] is not None:
        c = args["certificate"]
        cert = reduction.lemma2_certificate(c["sigma"], c["lambda"], c["groups"])
        report.add("certificate_valid", cert.valid,
                   "sigma_i <= group geometric mean of lambda, every group")
        report.add("certificate_geo_means", list(cert.geo_means),
                   "geometric mean of lambda per group")


def _truth(value, key: str) -> Optional[IntensityVector]:
    """The sampling law: "H0" (None) or a true intensity vector."""
    if value == "H0":
        return None
    if not isinstance(value, list):
        raise InvalidInput(f"{key} must be 'H0' or an array of numbers")
    return _sigma(value, key)


def _levels(value, key: str):
    """One level for every candidate, or an array of one per candidate."""
    return _vector(value, key) if isinstance(value, list) else _as_number(value, key)


_TEST_KIND = {"test": _choice("np", "bayes", "glrt")}
# simulate has one table per test kind.
SIMULATE_FIELDS = {
    "np": {**_TEST_KIND, "sigma": _sigma, "A": _as_number, "true": (_truth, None)},
    "bayes": {**_TEST_KIND, "prior": {"points": _points, "weights": _vector},
              "level": _as_number, "true": (_truth, None)},
    "glrt": {**_TEST_KIND, "candidates": _points, "levels": _levels,
             "true": (_truth, None)},
}


def _simulate_fields(cfg: dict) -> dict:
    """The table of the test kind that cfg names."""
    kind = _parse({k: cfg[k] for k in _TEST_KIND if k in cfg}, _TEST_KIND)
    return SIMULATE_FIELDS[kind["test"]]


@_register("simulate", _simulate_fields)
def _simulate(args, report: Report) -> None:
    """Monte Carlo error probabilities for an NP, mixture, or max-ratio test."""
    if args["test"] == "np":
        test = NpTest(args["sigma"], args["A"])
    elif args["test"] == "bayes":
        prior = args["prior"]
        test = BayesTest(DiscretePrior(prior["points"].points, prior["weights"]),
                         args["level"])
    else:
        test = GlrtTest(args["candidates"], args["levels"])
    est = simulate.estimate_error_probs(test, args["true"], args["samples"],
                                        args["seed"])
    if args["true"] is None:
        _mc_outputs(report, "alpha_hat", est,
                    "rejection frequency under pure noise")
    else:
        _mc_outputs(report, "beta_hat", est,
                    "acceptance frequency under the given true intensity")


@_register("example1", {"n": _dim(), "D": _as_number})
def _example1(args, report: Report) -> None:
    """Product-floor set: exact reduction to its flat corner point."""
    n, D = args["n"], args["D"]
    red = reduction.canonical_reduction(ProductFloor(n, D))
    point = red.points.points[0]
    report.add("sigma0", point.values.tolist(),
               "flat corner point of the product floor")
    report.add("equality_notion", red.equality_notion,
               "exact: same minimax miss probability at every level")
    cert = reduction.lemma2_certificate(point, point, [list(range(n))])
    report.add("self_certificate_valid", cert.valid,
               "one-group geometric-mean certificate at the corner point")


@_register("example3", {"n": _dim(), "R": _as_number, "lambda": (_sigma, None)})
def _example3(args, report: Report) -> None:
    """Sum-floor set: max-ratio test over one-hot candidates, MC vs caps."""
    n, R, probe = args["n"], args["R"], args["lambda"]
    rep = simulate.example3_experiment(n, R, args["samples"],
                                       args["seed"], probe)
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


@_register("tails", {
    "z": (_as_number, None),
    "chi2": ({"n": _dim(), "A": _as_number, "tail": _choice("lower", "upper")},
             None),
})
def _tails(args, report: Report) -> None:
    """Gaussian tail sandwich and chi-square log-tail sandwiches."""
    z, chi = args["z"], args["chi2"]
    if z is None and chi is None:
        raise InvalidInput("give z and/or chi2")
    if z is not None:
        sw = tails.normal_tail_bounds(z)
        report.add("normal_tail_lower", sw.lower,
                   "z exp(-z^2/2)/((z^2+1) sqrt(2 pi))")
        report.add("normal_tail_upper", sw.upper, "exp(-z^2/2)/(z sqrt(2 pi))")
    if chi is not None:
        lower = chi["tail"] == "lower"
        sw = (tails.chi2_lower_tail_sandwich if lower
              else tails.chi2_upper_tail_sandwich)(chi["A"], chi["n"])
        label = f"ln P(chi2_n {'<' if lower else '>'} A)"
        report.add("chi2_log_tail_lower", sw.lower, f"{label} lower bound")
        report.add("chi2_log_tail_upper", sw.upper, f"{label} upper bound")
        report.add("chi2_pivot", sw.center,
                   "exponent pivot -((n/2) ln(n/(eA)) + A/2)")


if __name__ == "__main__":
    main()
