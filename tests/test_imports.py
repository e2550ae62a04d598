"""scipy stays off the import path: only the exact oracle loads it.

Each check runs in a fresh interpreter, because the test process itself has
scipy loaded by other test modules.
"""

import json
import os
import subprocess
import sys

import gausdet

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gausdet.__file__)))

# One small config per subcommand; simulate once per decision rule.
CALLS = [
    ("stats", {"sigma": [0.5, 1.0, 2.0]}),
    ("bounds-beta", {"sigma": [1.0] * 8, "A": -1.0}),
    ("bounds-alpha", {"sigma": [1.0] * 20, "A": 4.0}),
    ("mismatch", {"sigma": [1.0, 1.0], "lambda": [1.2, 1.2], "A": -0.8}),
    ("reduce", {
        "points": [[1, 2], [2, 3], [3, 1]],
        "certificate": {"sigma": [1.0, 1.0], "lambda": [0.5, 4.0],
                        "groups": [[0, 1]]},
    }),
    ("simulate", {"test": "np", "sigma": [1.0, 2.0], "A": 0.0,
                  "samples": 1000}),
    ("simulate", {"test": "bayes",
                  "prior": {"points": [[1.0, 1.0], [2.0, 2.0]],
                            "weights": [0.5, 0.5]},
                  "level": 0.0, "samples": 1000}),
    ("simulate", {"test": "glrt", "candidates": [[1.0, 0.0], [0.0, 1.0]],
                  "levels": [0.5, 0.5], "samples": 1000}),
    ("example1", {"n": 5, "D": 1.548219614885789}),
    ("example3", {"n": 20, "R": 1.0, "samples": 1000}),
    ("tails", {"z": 2.0, "chi2": {"n": 10, "A": 5.0, "tail": "lower"}}),
]

SCRIPT = """
import json, sys
from click.testing import CliRunner
import gausdet.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_loaded()
runner = CliRunner()
codes = []
for sub, cfg in json.loads(sys.argv[1]):
    codes.append(runner.invoke(gausdet.cli.main, [sub], input=json.dumps(cfg)).exit_code)
after_cli = scipy_loaded()
value = float(gausdet.weighted_chi2_cdf([1.0, 2.0, 3.5], 4.0))
gausdet.weighted_chi2_cdf([10.0 ** (4 * k / 9) for k in range(10)], 4000.0)
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_cli": after_cli, "after_oracle": scipy_loaded(),
                  "value": value}))
"""


def test_cli_never_loads_scipy_and_the_oracle_does():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(CALLS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * len(CALLS)
    assert out["after_import"] == []
    assert out["after_cli"] == []
    assert "scipy.special" in out["after_oracle"]
    # The oracle needs no quadrature, even at a weight spread of 1e4.
    assert "scipy.integrate" not in out["after_oracle"]
    # Chi-square mixture value on unequal weights; mpmath gives
    # 0.42361406731897220667.
    assert out["value"] == 0.423614067318972


POOL_SCRIPT = """
import json, sys
from click.testing import CliRunner
import gausdet.cli
from gausdet import IntensityVector, NpTest, estimate_error_probs, simulate

def pool_loaded():
    return "concurrent.futures" in sys.modules

after_import = pool_loaded()
cfg = {"test": "np", "sigma": [1.0, 2.0], "A": 0.0, "samples": 1000}
result = CliRunner().invoke(gausdet.cli.main, ["simulate"], input=json.dumps(cfg))
code = result.exit_code
after_single_shard = pool_loaded()
test = NpTest(IntensityVector([1.0] * 2000), 0.0)
estimate_error_probs(test, None, 3 * simulate._shard_rows(2000), 1)
print(json.dumps({"after_import": after_import, "code": code,
                  "after_single_shard": after_single_shard,
                  "after_multi_shard": pool_loaded(),
                  "cpus": simulate._cpu_count()}))
"""


def test_single_shard_calls_never_load_the_thread_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", POOL_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    assert out["after_import"] is False
    assert out["after_single_shard"] is False
    # Three shards run on a pool wherever this process may use two CPUs.
    assert out["after_multi_shard"] is (out["cpus"] > 1)
