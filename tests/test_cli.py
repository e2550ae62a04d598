"""End-to-end tests of the gausdet command line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from gausdet import IntensityVector, cli, signal_statistics
from gausdet.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, config):
    res = runner.invoke(main, args, input=json.dumps(config))
    # CliRunner reports an escaped exception as exit code 1, as for a rejection.
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        repr(res.exception))
    return res


def outputs_by_name(payload):
    return {out["name"]: out for out in payload["outputs"]}


PINNED = os.path.join(os.path.dirname(__file__), "pinned_reports.json")


def _pinned():
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


class TestPinnedReports:
    """Full reports, pinned: the JSON minus ``wall_time_s`` and the CSV text.

    One config per subcommand plus echo cases: ``inputs`` is the config as
    given, so integers (``points``, ``A``, ``D``) and the common fields stay
    as written, ``bounds-beta`` echoes ``K`` and ``"K": null``, and
    ``example3`` without ``lambda`` echoes none.  Also ``glrt`` with scalar
    ``levels`` and ``simulate`` with a ``true`` vector.  JSON is compared
    after re-dumping, so an integer that turns into a float fails.
    """

    @pytest.mark.parametrize(
        "pin", _pinned(),
        ids=[f"{i}-{pin['command']}" for i, pin in enumerate(_pinned())],
    )
    def test_report_unchanged(self, runner, pin):
        res = run(runner, [pin["command"]], pin["config"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        doc.pop("wall_time_s")
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            pin["json"], sort_keys=True)
        res = run(runner, [pin["command"], "--format", "csv"], pin["config"])
        assert res.exit_code == 0, res.output
        assert res.stdout == pin["csv"]

    @pytest.mark.parametrize(
        "pin", _pinned(),
        ids=[f"{i}-{pin['command']}" for i, pin in enumerate(_pinned())],
    )
    def test_inputs_reproduce_the_report(self, runner, pin):
        res = run(runner, [pin["command"]], pin["json"]["inputs"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        doc.pop("wall_time_s")
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            pin["json"], sort_keys=True)


class TestConfigHandling:
    def test_unknown_field_rejected(self, runner):
        res = run(runner, ["stats"], {"sigma": [1.0], "bogus": 1})
        assert res.exit_code == 1
        assert "unknown field 'bogus'" in res.output

    def test_missing_field_rejected(self, runner):
        res = run(runner, ["stats"], {})
        assert res.exit_code == 1
        assert "missing required field 'sigma'" in res.output

    def test_bad_json_rejected(self, runner):
        res = runner.invoke(main, ["stats"], input="{not json")
        assert res.exit_code == 1
        assert "invalid input" in res.output

    def test_non_object_rejected(self, runner):
        res = runner.invoke(main, ["stats"], input="[1, 2]")
        assert res.exit_code == 1

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": [1.0, 2.0]}))
        res = runner.invoke(main, ["stats", "--config", str(cfg)])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["inputs"]["sigma"] == [1.0, 2.0]

    def test_invalid_value_exit_code(self, runner):
        res = run(runner, ["stats"], {"sigma": [1.0, -2.0]})
        assert res.exit_code == 1
        assert "sigma[1] negative" in res.output

    @pytest.mark.parametrize(
        "command, config",
        [
            ("stats", {"sigma": ["a"]}),
            ("simulate", {"test": "np", "sigma": [1], "A": 0, "true": "H1"}),
            ("simulate", {"test": "bayes", "level": 0.0,
                          "prior": {"points": [[1.0]], "weights": "x"}}),
            ("simulate", {"test": "glrt", "candidates": [[1.0]], "levels": "a"}),
            ("reduce", {"product_floor": 5}),
            ("reduce", {"certificate": {"sigma": [1], "lambda": [1], "groups": 5}}),
            ("reduce", {"certificate": {"sigma": [1], "lambda": [1],
                                        "groups": [["a"]]}}),
        ],
    )
    def test_malformed_value_rejected(self, runner, command, config):
        res = run(runner, [command, "--samples", "1000"], config)
        assert res.exit_code == 1
        assert res.stderr.startswith("invalid input:")
        assert "Traceback" not in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize(
        "command, config",
        [
            ("reduce", {"sum_floor": {"n": 10**400, "R": 1}}),
            ("reduce", {"product_floor": {"n": 10**400, "D": 1}}),
            ("example1", {"n": 10**12, "D": 1}),
            ("example1", {"n": 0, "D": 1}),
            ("reduce", {"sum_floor": {"n": 2_001, "R": 1}}),
            ("example3", {"n": 10**6 + 1, "R": 1}),
            ("tails", {"chi2": {"n": -3, "A": 1.0, "tail": "lower"}}),
        ],
    )
    def test_dimension_out_of_range_rejected(self, runner, command, config):
        res = run(runner, [command, "--samples", "1000"], config)
        assert res.exit_code == 1
        assert res.stderr.startswith("invalid input: n must be an integer in [1, ")
        assert "Traceback" not in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_out_of_regime_exit_code(self, runner):
        res = run(
            runner, ["tails"], {"chi2": {"n": 5, "A": 6.0, "tail": "lower"}}
        )
        assert res.exit_code == 2
        assert "out of regime" in res.output

    def test_bad_format_rejected(self, runner):
        res = run(runner, ["stats"], {"sigma": [1.0], "format": "xml"})
        assert res.exit_code == 1

    @pytest.mark.parametrize("kind", ["directory", "not utf-8", "missing"])
    def test_unreadable_config_rejected(self, runner, tmp_path, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b'{"sigma": [1.0]}\xff')
        res = run(runner, ["stats", "--config", str(path)], {})
        assert res.exit_code == 1
        assert res.stderr.startswith(f"invalid input: {path}: ")

    def test_config_directory_rejected_by_a_fresh_interpreter(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run(
            [sys.executable, "-m", "gausdet.cli", "stats", "--config",
             str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == f"invalid input: {tmp_path}: Is a directory\n"


class TestFlags:
    # Each spelling is malformed for every common field.
    @pytest.mark.parametrize("text", ["xml", "abc", "1e3", "1.5", "null", "true",
                                      "[1]"])
    @pytest.mark.parametrize("key", list(cli.COMMON_FIELDS))
    def test_malformed_flag_rejected(self, runner, key, text):
        res = run(runner, ["stats", f"--{key}", text], {"sigma": [1.0]})
        assert res.exit_code == 1
        assert res.stderr.startswith(f"invalid input: {key} must be ")

    @pytest.mark.parametrize("flags, want", [
        (["--samples", "2000"], {"samples": 2000}),
        (["--format", "json"], {"format": "json"}),
        (["--format", '"json"'], {"format": "json"}),
        (["--seed", "-4"], {"seed": -4}),
    ])
    def test_flag_read_as_the_json_value_it_spells(self, runner, flags, want):
        res = run(runner, ["stats", *flags], {"sigma": [1.0]})
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["inputs"] == {"sigma": [1.0], **want}

    def test_flags_override_config_and_are_echoed(self, runner):
        cfg = {"test": "np", "sigma": [1.0], "A": 0.0, "samples": 5000, "seed": 3}
        res = run(runner, ["simulate", "--samples", "2000", "--seed", "9"], cfg)
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert doc["inputs"] == {**cfg, "samples": 2000, "seed": 9}
        ref = run(runner, ["simulate"], {**cfg, "samples": 2000, "seed": 9})
        assert doc["outputs"] == json.loads(ref.stdout)["outputs"]


class TestFieldTables:
    @pytest.mark.parametrize("key, value", [
        ("samples", 1000), ("seed", 7), ("format", "x"),
    ])
    @pytest.mark.parametrize("command, config, section", [
        ("reduce", {"product_floor": {"n": 2, "D": 1.5}}, "product_floor"),
        ("reduce", {"sum_floor": {"n": 2, "R": 1.0}}, "sum_floor"),
        ("reduce", {"points": [[1.0]], "certificate": {
            "sigma": [1.0], "lambda": [1.0], "groups": [[0]]}}, "certificate"),
        ("simulate", {"test": "bayes", "level": 0.0, "samples": 1000, "prior": {
            "points": [[1.0]], "weights": [1.0]}}, "prior"),
        ("tails", {"chi2": {"n": 5, "A": 2.0, "tail": "lower"}}, "chi2"),
    ])
    def test_nested_section_rejects_common_field(self, runner, command, config,
                                                 section, key, value):
        config = json.loads(json.dumps(config))
        config[section][key] = value
        res = run(runner, [command], config)
        assert res.exit_code == 1
        assert res.stderr == f"invalid input: unknown field {key!r}\n"

    @pytest.mark.parametrize("key, value, message", [
        ("format", "xml", "format must be one of 'json', 'csv'"),
        ("samples", "x", "samples must be an integer"),
        ("seed", True, "seed must be an integer"),
    ])
    def test_config_value_checked_when_a_flag_overrides_it(
            self, runner, key, value, message):
        flags = ["--format", "csv", "--samples", "5", "--seed", "3"]
        res = run(runner, ["stats", *flags], {"sigma": [1], key: value})
        assert res.exit_code == 1
        assert res.stderr == f"invalid input: {message}\n"

    def test_sigma_whose_square_overflows_rejected(self, runner):
        res = run(runner, ["stats"], {"sigma": [1e200, 1]})
        assert res.exit_code == 1
        assert res.stderr.startswith("invalid input: sigma[0] too large")

    def test_sigma_whose_sum_of_squares_overflows_rejected(self, runner):
        res = run(runner, ["stats"], {"sigma": [1.3e154, 1.3e154]})
        assert res.exit_code == 1
        assert res.stderr == (
            "invalid input: sigma[0] too large: the sum of squares overflows\n")

    # (command, config with BAD where the intensity goes, its field path)
    INTENSITY_FIELDS = {
        "mismatch.lambda": (
            "mismatch", {"sigma": [1, 1], "lambda": "BAD", "A": 0}, "lambda"),
        "simulate.true": (
            "simulate", {"test": "np", "sigma": [1, 1], "A": 0, "true": "BAD"},
            "true"),
        "prior.points[i]": (
            "simulate", {"test": "bayes", "level": 0, "prior": {
                "points": [[1, 1], "BAD"], "weights": [0.5, 0.5]}}, "points[1]"),
        "candidates[i]": (
            "simulate", {"test": "glrt", "candidates": [[1, 1], "BAD"],
                         "levels": 0.5}, "candidates[1]"),
        "reduce.points[i]": ("reduce", {"points": [[1, 2], "BAD"]}, "points[1]"),
        "certificate.lambda": (
            "reduce", {"certificate": {"sigma": [1, 1], "lambda": "BAD",
                                       "groups": [[0, 1]]}}, "lambda"),
        "example3.lambda": (
            "example3", {"n": 2, "R": 1, "lambda": "BAD"}, "lambda"),
    }

    @pytest.mark.parametrize("field", sorted(INTENSITY_FIELDS))
    @pytest.mark.parametrize("value, message", [
        ([1, -1], "[1] negative"),
        ([1e200, 1], "[0] too large: the sum of squares overflows"),
    ], ids=["negative", "overflow"])
    def test_intensity_message_names_its_field(self, runner, field, value,
                                               message):
        command, config, path = self.INTENSITY_FIELDS[field]
        config = json.loads(json.dumps(config).replace('"BAD"', json.dumps(value)))
        res = run(runner, [command], {"samples": 1000, **config})
        assert res.exit_code == 1
        assert res.stderr == f"invalid input: {path}{message}\n"

    @pytest.mark.parametrize("samples", [10**9 + 1, 10**15])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_samples_capped(self, runner, samples, where):
        cfg = {"test": "np", "sigma": [1.0], "A": 0.0}
        flags = []
        if where == "flag":
            flags = ["--samples", str(samples)]
        else:
            cfg["samples"] = samples
        res = run(runner, ["simulate", *flags], cfg)
        assert res.exit_code == 1
        assert res.stderr == "invalid input: samples must be at most 1000000000\n"


# One valid config per subcommand (per simulate test kind) and per nested
# section; the sweep below substitutes into these.
SWEEP_BASES = {
    "stats": [{"sigma": [1.0, 2.0]}],
    "bounds-beta": [{"sigma": [1.0] * 8, "A": -1.0, "K": 2}],
    "bounds-alpha": [{"sigma": [1.0] * 20, "A": 4.0}],
    "mismatch": [{"sigma": [1.0, 1.0], "lambda": [1.2, 1.2], "A": -0.8}],
    "reduce": [
        {"points": [[1, 2], [2, 3]], "certificate": {
            "sigma": [1.0, 1.0], "lambda": [0.5, 4.0], "groups": [[0, 1]]}},
        {"product_floor": {"n": 2, "D": 1.5}},
        {"sum_floor": {"n": 2, "R": 1.0}},
    ],
    "simulate": [
        {"test": "np", "sigma": [1.0, 2.0], "A": 0.0, "true": [1.0, 1.0]},
        {"test": "bayes", "level": 0.0, "true": "H0", "prior": {
            "points": [[1.0, 1.0], [2.0, 2.0]], "weights": [0.5, 0.5]}},
        {"test": "glrt", "candidates": [[1.0, 0.0], [0.0, 1.0]], "levels": 0.5},
    ],
    "example1": [{"n": 3, "D": 2.0}],
    "example3": [{"n": 20, "R": 1.0, "lambda": [1.0] * 20}],
    "tails": [{"z": 2.0, "chi2": {"n": 10, "A": 5.0, "tail": "lower"}}],
}
BIG = 10**400
MALFORMED = ["x", True, None, [], {}, [["x"]], BIG]
# Substitutions that are valid: "K": null means omitted, and the integer fields
# without a cap take any JSON integer (a K outside [1, n] leaves the sandwich
# unavailable).
VALID = [("K", None), ("K", BIG), ("seed", BIG)]


def _paths(table, prefix=()):
    """Every field of a table, nested ones included, as a key path."""
    for name, spec in table.items():
        reader = spec[0] if isinstance(spec, tuple) else spec
        yield prefix + (name,)
        if isinstance(reader, dict):
            yield from _paths(reader, prefix + (name,))


def _sweep_cases():
    for command, fields in cli.FIELDS.items():
        kinds = cli.SIMULATE_FIELDS if callable(fields) else {"": fields}
        for kind, table in kinds.items():
            table = {**cli.COMMON_FIELDS, **table}
            bases = [b for b in SWEEP_BASES[command]
                     if set(b) <= set(table) and b.get("test", kind) == kind]
            label = f"{command}[{kind}]" if kind else command
            for path in _paths(table):
                base = next((b for b in bases if _has(b, path[:-1])), None)
                yield pytest.param(command, base, path,
                                   id=f"{label}-{'.'.join(path)}")


def _has(config, path):
    for key in path:
        if not isinstance(config, dict) or key not in config:
            return False
        config = config[key]
    return True


class TestMalformedValueSweep:
    """Every field of every table, substituted with each malformed value."""

    @pytest.mark.parametrize("command, base, path", _sweep_cases())
    def test_rejected(self, runner, command, base, path):
        assert base is not None, f"no sweep base config has {path[:-1]}"
        base = {"samples": 1000, **base}
        for value in MALFORMED:
            if (path[-1], value) in VALID:
                continue
            config = json.loads(json.dumps(base))
            section = config
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
            res = runner.invoke(main, [command], input=json.dumps(config))
            assert res.exit_code == 1, (config, res.output)
            assert res.stderr.startswith("invalid input:"), (config, res.stderr)
            assert "Traceback" not in res.output
            assert res.exception is None or isinstance(res.exception, SystemExit)


class TestStats:
    def test_values_match_library(self, runner):
        res = run(runner, ["stats"], {"sigma": [1.0, 2.0]})
        assert res.exit_code == 0
        payload = json.loads(res.output)
        outs = outputs_by_name(payload)
        stats = signal_statistics(IntensityVector([1.0, 2.0]))
        assert outs["D"]["value"] == pytest.approx(stats.D)
        assert outs["T"]["value"] == pytest.approx(stats.T)
        assert outs["B"]["value"] == pytest.approx(stats.B)
        assert outs["delta"]["value"] == pytest.approx(stats.delta)
        assert payload["command"] == "stats"
        assert payload["wall_time_s"] >= 0.0

    def test_null_delta(self, runner):
        res = run(runner, ["stats"], {"sigma": [0.0, 1.0]})
        outs = outputs_by_name(json.loads(res.output))
        assert outs["delta"]["value"] is None

    def test_csv_format(self, runner):
        res = run(runner, ["stats"], {"sigma": [1.0], "format": "csv"})
        assert res.exit_code == 0
        rows = list(csv.reader(io.StringIO(res.output)))
        assert rows[0] == ["quantity", "value", "provenance"]
        assert rows[1][0] == "D"

    def test_deterministic_modulo_wall_time(self, runner):
        a = json.loads(run(runner, ["stats"], {"sigma": [1.0, 2.0]}).output)
        b = json.loads(run(runner, ["stats"], {"sigma": [1.0, 2.0]}).output)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b


class TestBounds:
    def test_bounds_beta_interior(self, runner):
        sigma = [1.0] * 10
        stats = signal_statistics(IntensityVector(sigma))
        A = 0.5 * (stats.window[0] + stats.window[1])
        res = run(runner, ["bounds-beta"], {"sigma": sigma, "A": A})
        assert res.exit_code == 0
        outs = outputs_by_name(json.loads(res.output))
        assert 0.0 < outs["u0"]["value"] < 1.0
        assert outs["boundary_case"]["value"] == "interior"
        assert outs["ln_beta_lower"]["value"] <= outs["ln_beta_upper"]["value"]
        assert outs["K"]["value"] >= 1

    @pytest.mark.parametrize(
        "sigma", [[1.0] * 10, [0.3, 0.9, 1.4, 2.2, 5.0], list(np.linspace(0.1, 3, 200))]
    )
    def test_u1_residual_reported(self, runner, sigma):
        stats = signal_statistics(IntensityVector(sigma))
        A = 0.3 * stats.window[0] + 0.7 * stats.window[1]
        res = run(runner, ["bounds-beta"], {"sigma": sigma, "A": A})
        assert res.exit_code == 0
        outs = outputs_by_name(json.loads(res.output))
        residual = outs["u1_residual"]
        assert residual["provenance"]
        assert abs(residual["value"]) <= 1e-9 * max(1.0, abs(stats.D + A))

    def test_bounds_beta_sandwich_unavailable_outside_window(self, runner):
        res = run(runner, ["bounds-beta"], {"sigma": [1.0, 1.0], "A": 5.0})
        outs = outputs_by_name(json.loads(res.output))
        assert outs["ln_beta_sandwich"]["value"] is None
        assert "not available" in outs["ln_beta_sandwich"]["provenance"]

    def test_bounds_alpha(self, runner):
        res = run(runner, ["bounds-alpha"], {"sigma": [1.0] * 20, "A": 4.0})
        assert res.exit_code == 0
        outs = outputs_by_name(json.loads(res.output))
        assert outs["alpha_upper_simple"]["value"] == pytest.approx(
            math.exp(-2.0)
        )
        assert 0.0 < outs["alpha_upper_chernoff"]["value"] <= 1.0

    def test_mismatch(self, runner):
        cfg = {"sigma": [1.0, 1.0], "lambda": [1.2, 1.2], "A": -0.8}
        res = run(runner, ["mismatch"], cfg)
        assert res.exit_code == 0
        outs = outputs_by_name(json.loads(res.output))
        assert "beta_mismatch_upper" in outs
        assert "ln_beta_lambda_transfer" in outs

    @pytest.mark.parametrize("config, why, names", [
        ({"sigma": [1, 2], "lambda": [1.1, 2.1], "A": 0},
         "the reference exponent is 0", ["u0_equals_1_ratio"]),
        ({"sigma": [1e10, 1e10], "lambda": [0, 0], "A": 0},
         "a log argument was nonpositive",
         ["exact_u0_lhs", "exact_u0_ratio", "u0_equals_1_lhs", "u0_equals_1_ratio"]),
    ])
    def test_mismatch_condition_unavailable_is_null(self, runner, config, why,
                                                     names):
        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        res = run(runner, ["mismatch"], config)
        assert res.exit_code == 0
        outs = outputs_by_name(json.loads(res.output, parse_constant=no_constant))
        for name in names:
            assert outs[f"condition_{name}"] == {
                "name": f"condition_{name}", "value": None,
                "provenance": f"not available: {why}"}

    @pytest.mark.parametrize("sigma, lam", [
        ([0.0, 1.0], [0.5, 1.2]),
        ([0.0] * 9 + [3.0], [1.0] * 10),  # one-hot: a SumFloor canonical point
    ])
    def test_mismatch_with_a_zero_sigma(self, runner, sigma, lam):
        """delta is undefined when some sigma_i = 0: the transfer bound alone
        is null, and every other output of the report stands."""
        res = run(runner, ["mismatch"], {"sigma": sigma, "lambda": lam, "A": 0.1})
        assert res.exit_code == 0, res.output
        outs = outputs_by_name(json.loads(res.output))
        assert outs["ln_beta_lambda_transfer"] == {
            "name": "ln_beta_lambda_transfer", "value": None,
            "provenance": "not available: delta undefined: some sigma_i = 0"}
        full = run(runner, ["mismatch"], {"sigma": [1.0, 2.0], "lambda": [1.1, 2.1],
                                          "A": 0.1})
        assert list(outs) == list(outputs_by_name(json.loads(full.output)))
        assert 0.0 < outs["beta_mismatch_upper"]["value"] <= 1.0

    @pytest.mark.parametrize("sigma, lam", [
        ([1e154], [1e154]), ([1e154, 1.0], [1e154, 2.0]),
    ])
    def test_mismatch_near_the_float_limit(self, runner, sigma, lam):
        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(runner, ["mismatch"], {"sigma": sigma, "lambda": lam, "A": 0})
        assert res.exit_code == 0, res.output
        outs = outputs_by_name(json.loads(res.stdout, parse_constant=no_constant))
        assert 0.0 < outs["beta_mismatch_upper"]["value"] <= 1.0

    @pytest.mark.parametrize(
        "command, config, name",
        [
            ("bounds-beta", {"sigma": [1.0] * 10, "A": 1.0}, "u0"),
            ("bounds-alpha", {"sigma": [1.0] * 20, "A": 4.0}, "t0"),
            ("mismatch", {"sigma": [1.0, 1.0], "lambda": [1.2, 1.2], "A": -0.8},
             "v0"),
        ],
    )
    def test_solver_counters_reported(self, runner, command, config, name):
        res = run(runner, [command], config)
        assert res.exit_code == 0
        outs = outputs_by_name(json.loads(res.output))
        iterations = outs[f"{name}_iterations"]
        residual = outs[f"{name}_residual"]
        assert iterations["provenance"] and residual["provenance"]
        assert isinstance(iterations["value"], int) and iterations["value"] > 0
        assert abs(residual["value"]) <= 1e-9

    def test_solver_counters_at_an_endpoint(self, runner):
        res = run(runner, ["bounds-beta"], {"sigma": [1.0, 1.0], "A": 5.0})
        outs = outputs_by_name(json.loads(res.output))
        assert outs["boundary_case"]["value"] == "at_zero"
        assert outs["u0_iterations"]["value"] == 0
        assert outs["u0_residual"]["value"] < 0.0


class TestReduce:
    def test_points(self, runner):
        res = run(runner, ["reduce"], {"points": [[1, 2], [2, 3], [3, 1]]})
        outs = outputs_by_name(json.loads(res.output))
        assert outs["reduced"]["value"] == [[1.0, 2.0], [3.0, 1.0]]
        assert outs["removed_count"]["value"] == 1

    def test_product_floor(self, runner):
        res = run(runner, ["reduce"], {"product_floor": {"n": 2, "D": 1.5}})
        outs = outputs_by_name(json.loads(res.output))
        assert outs["reduced"]["value"] == [[1.5, 1.5]]
        assert outs["equality_notion"]["value"] == "exact"

    def test_sum_floor(self, runner):
        res = run(runner, ["reduce"], {"sum_floor": {"n": 2, "R": 1.0}})
        outs = outputs_by_name(json.loads(res.output))
        assert outs["equality_notion"]["value"] == "asymptotic"
        assert len(outs["reduced"]["value"]) == 2

    def test_multiple_sources_rejected(self, runner):
        res = run(
            runner,
            ["reduce"],
            {"points": [[1.0]], "sum_floor": {"n": 2, "R": 1.0}},
        )
        assert res.exit_code == 1

    def test_no_source_rejected(self, runner):
        res = run(runner, ["reduce"], {})
        assert res.exit_code == 1

    def test_certificate(self, runner):
        cfg = {
            "points": [[1.0, 1.0]],
            "certificate": {
                "sigma": [1.0, 1.0],
                "lambda": [0.5, 4.0],
                "groups": [[0, 1]],
            },
        }
        res = run(runner, ["reduce"], cfg)
        outs = outputs_by_name(json.loads(res.output))
        assert outs["certificate_valid"]["value"] is True


class TestSimulate:
    def test_np_alpha(self, runner):
        cfg = {"test": "np", "sigma": [1.0, 1.0], "A": 0.0, "samples": 5000}
        res = run(runner, ["simulate"], cfg)
        assert res.exit_code == 0
        outs = outputs_by_name(json.loads(res.output))
        assert 0.0 <= outs["alpha_hat"]["value"] <= 1.0

    def test_np_beta_with_true(self, runner):
        cfg = {
            "test": "np",
            "sigma": [1.0, 1.0],
            "A": 0.0,
            "true": [1.0, 1.0],
            "samples": 5000,
        }
        res = run(runner, ["simulate"], cfg)
        outs = outputs_by_name(json.loads(res.output))
        assert "beta_hat" in outs

    def test_seed_override_changes_estimate(self, runner):
        cfg = {"test": "np", "sigma": [1.0, 1.0], "A": 0.0, "samples": 5000}
        a = run(runner, ["simulate", "--seed", "1"], cfg)
        b = run(runner, ["simulate", "--seed", "1"], cfg)
        c = run(runner, ["simulate", "--seed", "2"], cfg)
        va = outputs_by_name(json.loads(a.output))["alpha_hat"]["value"]
        vb = outputs_by_name(json.loads(b.output))["alpha_hat"]["value"]
        vc = outputs_by_name(json.loads(c.output))["alpha_hat"]["value"]
        assert va == vb
        assert va != vc

    def test_bayes(self, runner):
        cfg = {
            "test": "bayes",
            "prior": {"points": [[1.0, 1.0], [2.0, 2.0]], "weights": [0.5, 0.5]},
            "level": 0.0,
            "samples": 5000,
        }
        res = run(runner, ["simulate"], cfg)
        assert res.exit_code == 0

    def test_glrt(self, runner):
        cfg = {
            "test": "glrt",
            "candidates": [[1.0, 0.0], [0.0, 1.0]],
            "levels": [0.5, 0.5],
            "samples": 5000,
        }
        res = run(runner, ["simulate"], cfg)
        assert res.exit_code == 0

    def test_unknown_test_kind(self, runner):
        res = run(runner, ["simulate"], {"test": "magic"})
        assert res.exit_code == 1

    def test_samples_floor_rejected(self, runner):
        cfg = {"test": "np", "sigma": [1.0], "A": 0.0, "samples": 10}
        res = run(runner, ["simulate"], cfg)
        assert res.exit_code == 1


class TestExamples:
    def test_example1(self, runner):
        res = run(runner, ["example1"], {"n": 3, "D": 2.0})
        outs = outputs_by_name(json.loads(res.output))
        assert outs["sigma0"]["value"] == [2.0, 2.0, 2.0]
        assert outs["self_certificate_valid"]["value"] is True

    def test_example3(self, runner):
        cfg = {"n": 50, "R": 1.0, "samples": 5000}
        res = run(runner, ["example3"], cfg)
        assert res.exit_code == 0
        outs = outputs_by_name(json.loads(res.output))
        assert outs["alpha_bound"]["value"] == pytest.approx(
            1.0 / math.sqrt(2.0 * math.log(50.0))
        )
        assert "beta_predictor" in outs

    def test_example3_with_probe(self, runner):
        cfg = {
            "n": 20,
            "R": 1.0,
            "lambda": [1.0] * 20,
            "samples": 5000,
        }
        res = run(runner, ["example3"], cfg)
        outs = outputs_by_name(json.loads(res.output))
        assert "beta_hat_lambda" in outs
        assert "log_ratio" in outs

    @pytest.mark.parametrize("R", [1e-200, 1e200])
    def test_example3_radius_out_of_float_range(self, runner, R):
        # n R^2 underflows to 0 or overflows: out of regime, no traceback
        # and no non-finite number in a report.
        res = run(runner, ["example3"], {"n": 10, "R": R, "samples": 1000})
        assert res.exit_code == 2
        assert res.output.startswith("out of regime: n R^2")


class TestTails:
    def test_normal_only(self, runner):
        res = run(runner, ["tails"], {"z": 2.0})
        outs = outputs_by_name(json.loads(res.output))
        assert outs["normal_tail_lower"]["value"] <= outs[
            "normal_tail_upper"
        ]["value"]

    def test_chi2_only(self, runner):
        res = run(
            runner, ["tails"], {"chi2": {"n": 5, "A": 2.0, "tail": "lower"}}
        )
        outs = outputs_by_name(json.loads(res.output))
        assert outs["chi2_log_tail_lower"]["value"] <= outs[
            "chi2_log_tail_upper"
        ]["value"]

    def test_neither_rejected(self, runner):
        res = run(runner, ["tails"], {})
        assert res.exit_code == 1

    def test_bad_tail_side(self, runner):
        res = run(
            runner, ["tails"], {"chi2": {"n": 5, "A": 2.0, "tail": "middle"}}
        )
        assert res.exit_code == 1
