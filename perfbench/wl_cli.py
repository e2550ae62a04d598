"""Cold command-line calls: ``cli-cold``.

A closed loop with one client: each round makes one cold ``gausdet
<subcommand>`` call per subcommand, in turn, each in a fresh interpreter
(``python -m gausdet.cli``, run through ``CLI_MAIN``) with its config on
stdin, and waits for the report before the next call.  A tenth call runs
``example1`` on the fixed input of fault (e); it is counted and checked but
not timed.  Configs are small, so interpreter start, imports and config
parsing dominate; ``simulate`` and ``example3`` run at the 1,000-sample
minimum.

The probes for the traced run live here too: interpreter start, the import
profile from ``python -X importtime``, and each subcommand's handler run
in-process through click's test runner.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

from ledger import checks, lower_quartile, median, typical_rate, typical_seconds

CALL_TIMEOUT_S = 120
# ``python -m gausdet.cli`` that also prints its peak resident size (VmHWM,
# kB) as the last line of stderr.  The children's ru_maxrss cannot serve:
# a spawned child's starts from its parent's peak, and this process, with
# numpy and scipy.stats loaded for the checks, is as large as a CLI call.
CLI_MAIN = """\
import runpy, sys
try:
    runpy.run_module("gausdet.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        print(next(l for l in fh if l.startswith("VmHWM:")).split()[1],
              file=sys.stderr)
"""
# Fault (e): the corner point's one-group certificate against itself is
# invalid whenever exp(mean(ln D)) rounds below D, as it does here.  The
# config is fixed so that the call fails on every run, whatever the seed.
EXAMPLE1_FAULT = {"n": 5, "D": 1.548219614885789}


def _example1_case(rng) -> dict:
    """A seeded (n, D) clear of fault (e): the geometric mean of n copies of
    D, computed as the certificate computes it, does not round below D."""
    while True:
        n, D = int(rng.integers(2, 9)), float(rng.uniform(0.5, 3.0))
        if float(np.exp(np.mean(np.log(np.full(n, D))))) >= D:
            return {"n": n, "D": D}


def _flat_case(rng, n_lo: int, n_hi: int) -> tuple[list, float]:
    n = int(rng.integers(n_lo, n_hi + 1))
    s = float(rng.uniform(0.5, 1.5))
    s2 = s * s
    D = n * np.log1p(s2)
    A = 0.5 * (n * s2 / (1 + s2) + n * s2) - D  # middle of the operating window
    return [s] * n, float(A)


def make_configs(seed: int) -> list[tuple[str, dict]]:
    """One small config per subcommand, then the fault (e) config; flat
    intensities where a check needs a closed form."""
    rng = np.random.default_rng([seed, 4])
    sigma_b, A_b = _flat_case(rng, 5, 40)
    sigma_a, A_a = _flat_case(rng, 5, 40)
    sigma_m, A_m = _flat_case(rng, 5, 40)
    sigma_s, A_s = _flat_case(rng, 3, 8)
    points = rng.uniform(0.1, 2.0, (30, 3))
    points[rng.choice(30, 2, replace=False)] = points[rng.choice(30, 2, replace=False)]
    n3, R3 = int(rng.integers(20, 61)), float(rng.uniform(0.8, 1.2))
    probe = [0.0] * n3
    for i in rng.choice(n3, 2, replace=False):
        probe[int(i)] = float(np.sqrt(n3 * R3 * R3 / 2.0))
    n_chi = int(rng.integers(2, 51))
    return [
        ("stats", {"sigma": rng.uniform(0.2, 2.0, 8).tolist()}),
        ("bounds-beta", {"sigma": sigma_b, "A": A_b}),
        ("bounds-alpha", {"sigma": sigma_a, "A": A_a}),
        ("mismatch", {"sigma": sigma_m,
                      "lambda": [sigma_m[0] * float(rng.uniform(0.9, 1.1))] * len(sigma_m),
                      "A": A_m}),
        ("reduce", {"points": points.tolist()}),
        ("simulate", {"test": "np", "sigma": sigma_s, "A": A_s,
                      "samples": 1000, "seed": int(rng.integers(1, 2**31))}),
        ("example1", _example1_case(rng)),
        ("example3", {"n": n3, "R": R3, "lambda": probe,
                      "samples": 1000, "seed": int(rng.integers(1, 2**31))}),
        ("tails", {"z": float(rng.uniform(0.5, 4.0)),
                   "chi2": {"n": n_chi, "A": float(rng.uniform(0.2, 1.0)) * n_chi,
                            "tail": "lower"}}),
        ("example1", EXAMPLE1_FAULT),
    ]


def call(sub: str, cfg: dict) -> subprocess.CompletedProcess:
    """One cold ``gausdet <sub>`` call with its config on stdin."""
    return subprocess.run([sys.executable, "-c", CLI_MAIN, sub],
                          input=json.dumps(cfg), capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)


class CliCold:
    name = "cli-cold"

    def setup(self, seed: int) -> None:
        self.modules = {}
        self.configs = make_configs(seed)
        self.peak_rss_mb = 0.0
        # The CLI is one entry point: every subcommand loads the same modules.
        call("stats", {"sigma": [1.0]}).check_returncode()

    def prepare_checks(self) -> None:
        checks()

    def run_round(self, ledger, r: int) -> None:
        for sub, cfg in self.configs:
            fault = "e" if cfg is EXAMPLE1_FAULT else None
            proc = ledger.op(
                "cli", lambda: call(sub, cfg),
                lambda proc: checks().check_cli(sub, cfg, proc.returncode, proc.stdout),
                work=1, fault=fault, sub=sub)
            if proc is not None and fault is None:
                kb = int(proc.stderr.strip().splitlines()[-1])
                self.peak_rss_mb = max(self.peak_rss_mb, kb / 1024.0)

    def end_to_end(self, ledger) -> dict:
        recs = ledger.timed()
        return {
            "round_s": typical_seconds(recs),
            "key_op_s": lower_quartile(r.seconds for r in recs),
            "work_per_s": typical_rate(recs),
            "peak_rss_mb": self.peak_rss_mb,
        }


def _timed_run(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def import_profile() -> tuple[float, float]:
    """(seconds to import gausdet.cli, seconds of it spent importing scipy)
    from ``python -X importtime``; scipy counts only its outermost imports."""
    _, proc = _timed_run([sys.executable, "-X", "importtime", "-c",
                          "import gausdet.cli"])
    proc.check_returncode()
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = scipy_s = 0.0
    stack: list[tuple[int, str]] = []  # ancestors, walking parents first
    for depth, name, seconds in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack and name.split(".")[0] == "gausdet":
            total += seconds
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for _, a in stack):
            scipy_s += seconds
        stack.append((depth, name))
    return total, scipy_s


def probes(configs, repeats: int = 3) -> dict:
    """Per-layer CLI figures, measured outside the timed rounds."""
    from click.testing import CliRunner

    from gausdet.cli import main

    interp = median(_timed_run([sys.executable, "-c", "pass"])[0]
                    for _ in range(repeats))
    imports = [import_profile() for _ in range(repeats)]
    runner = CliRunner()
    handler_ms = {}
    for sub, cfg in configs:
        if cfg is EXAMPLE1_FAULT:
            continue
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = runner.invoke(main, [sub], input=json.dumps(cfg))
            times.append((time.perf_counter() - t0) * 1e3)
            if res.exit_code != 0:
                raise RuntimeError(f"in-process {sub} exited {res.exit_code}")
        handler_ms[sub] = median(times)
    return {
        "interp_s": interp,
        "import_s": median(t for t, _ in imports),
        "import_scipy_s": median(s for _, s in imports),
        "handler_ms": handler_ms,
    }

