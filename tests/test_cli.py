"""End-to-end tests of the gausdet command line interface."""

import csv
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from gausdet import IntensityVector, signal_statistics
from gausdet.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, config):
    return runner.invoke(main, args, input=json.dumps(config))


def outputs_by_name(payload):
    return {out["name"]: out for out in payload["outputs"]}


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

    def test_out_of_regime_exit_code(self, runner):
        res = run(
            runner, ["tails"], {"chi2": {"n": 5, "A": 6.0, "tail": "lower"}}
        )
        assert res.exit_code == 2
        assert "out of regime" in res.output

    def test_bad_format_rejected(self, runner):
        res = run(runner, ["stats"], {"sigma": [1.0], "format": "xml"})
        assert res.exit_code == 1


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
